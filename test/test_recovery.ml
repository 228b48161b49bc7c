(* Durability subsystem: WAL record/digest semantics, the packed attempt
   key, the WAL against the naive log of [Wal_ref], jittered backoff,
   crash recovery (redo, presumed abort, re-crash during recovery),
   primary/backup failover, and the no-lost-commit capstone — a sweep of
   random fault plans under which every committed transaction must leave
   durable evidence. *)

open Ddbm_model

(* --- WAL unit tests ------------------------------------------------ *)

(* Run [body] as the sole process of a fresh engine (log forces and
   scans block on the modeled log disk, so they need a process). *)
let in_process body =
  let eng = Desim.Engine.create () in
  let wal =
    Wal.create eng (Desim.Rng.create 7) ~min_time:0.005 ~max_time:0.015
  in
  Desim.Engine.spawn eng (fun () -> body eng wal);
  Desim.Engine.run eng

let test_wal_force_makes_prefix_durable () =
  in_process (fun eng wal ->
      Wal.append wal (Wal.Begin { tid = 1; attempt = 1 });
      Wal.append wal (Wal.Update { tid = 1; attempt = 1; page = Ids.Page.make ~file:0 ~index:0 });
      Wal.append wal (Wal.Prepare { tid = 1; attempt = 1 });
      Alcotest.(check bool) "nothing durable before the force" false
        (Wal.prepared_durable wal ~tid:1 ~attempt:1);
      let t0 = Desim.Engine.now eng in
      Wal.force wal;
      Alcotest.(check bool) "force paid log-disk time" true
        (Desim.Engine.now eng -. t0 >= 0.005);
      Alcotest.(check bool) "prepare durable after the force" true
        (Wal.prepared_durable wal ~tid:1 ~attempt:1);
      Alcotest.(check int) "one force completed" 1 (Wal.forces wal);
      (* Begin only creates the digest entry: the update page and the
         promoted prepare status are the two forced records. *)
      Alcotest.(check int) "update and prepare records forced" 2
        (Wal.forced_records wal);
      Alcotest.(check bool) "utilization accrued" true
        (Wal.busy_time wal > 0.))

let test_wal_crash_drops_volatile_tail () =
  in_process (fun _ wal ->
      Wal.append wal (Wal.Begin { tid = 1; attempt = 1 });
      Wal.append wal (Wal.Update { tid = 1; attempt = 1; page = Ids.Page.make ~file:0 ~index:0 });
      Wal.append wal (Wal.Prepare { tid = 1; attempt = 1 });
      Wal.force wal;
      (* the commit record stays in the volatile tail *)
      Wal.append wal (Wal.Commit { tid = 1; attempt = 1 });
      Wal.on_crash wal;
      Alcotest.(check bool) "durable prepare survives the crash" true
        (Wal.prepared_durable wal ~tid:1 ~attempt:1);
      Alcotest.(check bool) "volatile commit is lost" false
        (Wal.committed_durable wal ~tid:1 ~attempt:1);
      Alcotest.(check (list (pair int int)))
        "the attempt is in doubt"
        [ (1, 1) ]
        (Wal.in_doubt wal);
      Alcotest.(check int) "one update page to redo" 1
        (Wal.redo_pages wal ~tid:1 ~attempt:1))

let test_wal_installed_resolves_doubt () =
  in_process (fun _ wal ->
      Wal.append wal (Wal.Begin { tid = 3; attempt = 2 });
      Wal.append wal (Wal.Update { tid = 3; attempt = 2; page = Ids.Page.make ~file:0 ~index:1 });
      Wal.append wal (Wal.Prepare { tid = 3; attempt = 2 });
      Wal.force wal;
      Wal.mark_installed wal ~tid:3 ~attempt:2;
      Alcotest.(check (list (pair int int)))
        "installed attempts are not in doubt" [] (Wal.in_doubt wal);
      Alcotest.(check bool) "install flag survives a crash" true
        (Wal.on_crash wal;
         Wal.installed wal ~tid:3 ~attempt:2))

let test_wal_checkpoint_prunes_decided () =
  in_process (fun _ wal ->
      Wal.append wal (Wal.Begin { tid = 1; attempt = 1 });
      Wal.append wal (Wal.Update { tid = 1; attempt = 1; page = Ids.Page.make ~file:0 ~index:0 });
      Wal.append wal (Wal.Commit { tid = 1; attempt = 1 });
      Wal.mark_installed wal ~tid:1 ~attempt:1;
      (* an undecided peer must survive the checkpoint *)
      Wal.append wal (Wal.Begin { tid = 2; attempt = 1 });
      Wal.append wal (Wal.Update { tid = 2; attempt = 1; page = Ids.Page.make ~file:0 ~index:2 });
      Wal.append wal (Wal.Prepare { tid = 2; attempt = 1 });
      Wal.append wal (Wal.Checkpoint { active = 1 });
      Wal.force wal;
      Alcotest.(check bool) "decided-and-installed entry pruned" false
        (Wal.tracked wal ~tid:1 ~attempt:1);
      Alcotest.(check bool) "undecided entry survives" true
        (Wal.tracked wal ~tid:2 ~attempt:1))

let test_wal_readonly_not_tracked () =
  in_process (fun _ wal ->
      (* A read-only cohort never logs Begin/Update (the machine gates
         appends on the update footprint); a stray decision record for
         an attempt the log never saw creates no digest entry. *)
      Wal.append wal (Wal.Commit { tid = 9; attempt = 1 });
      Wal.force wal;
      Alcotest.(check bool) "no update footprint, nothing tracked" false
        (Wal.tracked wal ~tid:9 ~attempt:1);
      Alcotest.(check (list (pair int int)))
        "and nothing in doubt" [] (Wal.in_doubt wal))

(* --- the packed attempt key ----------------------------------------- *)

let key_limits =
  [
    (0, 0);
    (1, 1);
    (7, 3);
    (Txn.Key.tid_limit - 1, 1);
    (1, Txn.Key.attempt_limit - 1);
    (Txn.Key.tid_limit - 1, Txn.Key.attempt_limit - 1);
  ]

let test_key_round_trips () =
  List.iter
    (fun (tid, attempt) ->
      let k = Txn.Key.make ~tid ~attempt in
      Alcotest.(check (pair int int))
        (Printf.sprintf "(%d, %d)" tid attempt)
        (tid, attempt)
        (Txn.Key.tid k, Txn.Key.attempt k);
      Alcotest.(check bool) "non-negative" true ((k :> int) >= 0))
    key_limits

let test_key_rejects_out_of_range () =
  List.iter
    (fun (tid, attempt) ->
      match Txn.Key.make ~tid ~attempt with
      | _ -> Alcotest.failf "(%d, %d) packed" tid attempt
      | exception Invalid_argument _ -> ())
    [
      (-1, 1);
      (1, -1);
      (Txn.Key.tid_limit, 1);
      (1, Txn.Key.attempt_limit);
      (max_int, 0);
      (min_int, 0);
    ]

(* The packed order is the (tid, attempt) order, so a sorted fold of the
   digest keeps the order the tuple keys had. *)
let prop_key_order =
  let near_limit limit = QCheck.Gen.(oneof [ int_range 0 9; int_range (limit - 10) (limit - 1) ]) in
  let gen_key =
    QCheck.Gen.pair (near_limit Txn.Key.tid_limit) (near_limit Txn.Key.attempt_limit)
  in
  QCheck.Test.make ~name:"packed keys sort in (tid, attempt) order" ~count:500
    (QCheck.make
       QCheck.Gen.(pair gen_key gen_key)
       ~print:QCheck.Print.(pair (pair int int) (pair int int)))
    (fun (((t1, a1) as k1), ((t2, a2) as k2)) ->
      let lexi = Wal_ref.key_compare k1 k2 in
      let packed =
        Txn.Key.compare
          (Txn.Key.make ~tid:t1 ~attempt:a1)
          (Txn.Key.make ~tid:t2 ~attempt:a2)
      in
      Int.equal (Int.compare lexi 0) (Int.compare packed 0))

(* Three attempts of one transaction are three digest entries. *)
let test_key_attempts_distinct () =
  in_process (fun _ wal ->
      let page = Ids.Page.make ~file:0 ~index:0 in
      for attempt = 1 to 3 do
        Wal.append wal (Wal.Begin { tid = 5; attempt });
        for _ = 1 to attempt do
          Wal.append wal (Wal.Update { tid = 5; attempt; page })
        done
      done;
      Wal.append wal (Wal.Prepare { tid = 5; attempt = 2 });
      Wal.force wal;
      Wal.mark_installed wal ~tid:5 ~attempt:3;
      Alcotest.(check (list int))
        "redo pages per attempt" [ 1; 2; 3 ]
        (List.map (fun attempt -> Wal.redo_pages wal ~tid:5 ~attempt) [ 1; 2; 3 ]);
      Alcotest.(check (list (pair int int))) "only attempt 2 in doubt" [ (5, 2) ]
        (Wal.in_doubt wal);
      Alcotest.(check (list bool))
        "only attempt 3 installed" [ false; false; true ]
        (List.map (fun attempt -> Wal.installed wal ~tid:5 ~attempt) [ 1; 2; 3 ]);
      Alcotest.(check (list (list (pair int int))))
        "one chain through the shared page, attempt 2 last by its prepare"
        [ [ (5, 1); (5, 3); (5, 2) ] ]
        (Wal.redo_chains wal [ (5, 1); (5, 2); (5, 3) ]))

(* --- the log against the reference model --------------------------- *)

type wal_op =
  | Log of Wal.record
  | Force
  | Crash of bool  (** torn *)
  | Install of int * int
  | Checkpoint_force
      (** end-of-recovery checkpoint: a checkpoint record, a force, and
          the dependency repair that follows it *)

let wal_tids = 3
let wal_attempts = 3
let wal_pages = 4

let wal_keys =
  List.init wal_tids (fun tid ->
      List.init wal_attempts (fun a -> (tid, a + 1)))
  |> List.concat

let pp_wal_op = function
  | Log (Wal.Begin { tid; attempt }) -> Printf.sprintf "begin T%d.%d" tid attempt
  | Log (Wal.Update { tid; attempt; page }) ->
      Printf.sprintf "update T%d.%d p%d" tid attempt (Ids.Page.index page)
  | Log (Wal.Prepare { tid; attempt }) ->
      Printf.sprintf "prepare T%d.%d" tid attempt
  | Log (Wal.Commit { tid; attempt }) -> Printf.sprintf "commit T%d.%d" tid attempt
  | Log (Wal.Abort { tid; attempt }) -> Printf.sprintf "abort T%d.%d" tid attempt
  | Log (Wal.Checkpoint _) -> "checkpoint"
  | Force -> "force"
  | Crash torn -> if torn then "torn crash" else "crash"
  | Install (tid, attempt) -> Printf.sprintf "install T%d.%d" tid attempt
  | Checkpoint_force -> "checkpoint+force"

let gen_wal_op =
  let open QCheck.Gen in
  let key = pair (int_range 0 (wal_tids - 1)) (int_range 1 wal_attempts) in
  let log f = map (fun (tid, attempt) -> Log (f tid attempt)) key in
  frequency
    [
      (3, log (fun tid attempt -> Wal.Begin { tid; attempt }));
      ( 6,
        map2
          (fun (tid, attempt) p ->
            Log
              (Wal.Update
                 { tid; attempt; page = Ids.Page.make ~file:0 ~index:p }))
          key
          (int_range 0 (wal_pages - 1)) );
      (3, log (fun tid attempt -> Wal.Prepare { tid; attempt }));
      (2, log (fun tid attempt -> Wal.Commit { tid; attempt }));
      (1, log (fun tid attempt -> Wal.Abort { tid; attempt }));
      (1, return (Log (Wal.Checkpoint { active = 0 })));
      (4, return Force);
      (2, map (fun torn -> Crash torn) bool);
      (2, map (fun (tid, attempt) -> Install (tid, attempt)) key);
      (1, return Checkpoint_force);
    ]

(* Everything both logs answer, as text, so a failure prints where they
   part. *)
let observe_wal ~prepared_durable ~committed_durable ~installed ~tracked
    ~redo_pages ~in_doubt ~redo_chains ~records ~forced_records ~torn_tails
    ~deps_corrupt =
  let key_s (tid, attempt) = Printf.sprintf "T%d.%d" tid attempt in
  let keys_s ks = String.concat "," (List.map key_s ks) in
  let chains =
    List.sort
      (List.compare Wal_ref.key_compare)
      (List.map (List.sort Wal_ref.key_compare) (redo_chains wal_keys))
  in
  List.map
    (fun k ->
      Printf.sprintf "%s: prepared %b committed %b installed %b tracked %b redo %d"
        (key_s k) (prepared_durable k) (committed_durable k) (installed k)
        (tracked k) (redo_pages k))
    wal_keys
  @ [
      "in doubt " ^ keys_s in_doubt;
      "chains " ^ String.concat " | " (List.map keys_s chains);
      Printf.sprintf "records %d forced %d torn %d corrupt %b" records
        forced_records torn_tails deps_corrupt;
    ]

let observe_real wal =
  let on f (tid, attempt) = f wal ~tid ~attempt in
  observe_wal ~prepared_durable:(on Wal.prepared_durable)
    ~committed_durable:(on Wal.committed_durable) ~installed:(on Wal.installed)
    ~tracked:(on Wal.tracked) ~redo_pages:(on Wal.redo_pages)
    ~in_doubt:(Wal.in_doubt wal) ~redo_chains:(Wal.redo_chains wal)
    ~records:(Wal.records wal) ~forced_records:(Wal.forced_records wal)
    ~torn_tails:(Wal.torn_tails wal) ~deps_corrupt:(Wal.deps_corrupt wal)

let observe_ref r =
  observe_wal ~prepared_durable:(Wal_ref.prepared_durable r)
    ~committed_durable:(Wal_ref.committed_durable r)
    ~installed:(Wal_ref.installed r) ~tracked:(Wal_ref.tracked r)
    ~redo_pages:(Wal_ref.redo_pages r) ~in_doubt:(Wal_ref.in_doubt r)
    ~redo_chains:(Wal_ref.redo_chains r) ~records:(Wal_ref.records r)
    ~forced_records:(Wal_ref.forced_records r)
    ~torn_tails:(Wal_ref.torn_tails r) ~deps_corrupt:(Wal_ref.deps_corrupt r)

(* The differential property's case count: DDBM_WAL_CASES, else 400. *)
let wal_reference_cases () =
  match Sys.getenv_opt "DDBM_WAL_CASES" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 400)
  | None -> 400

(* The log against the reference model: random appends of all six record
   kinds over a few attempts and pages, forces, crashes (torn or not),
   installs and end-of-recovery checkpoints, in one process (a force
   blocks on the log disk). After every step both logs must answer every
   query alike for every attempt. *)
let prop_wal_matches_reference =
  QCheck.Test.make ~name:"WAL matches the reference model"
    ~count:(wal_reference_cases ())
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_wal_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_wal_op))
    (fun ops ->
      let r = Wal_ref.create () in
      let mismatch = ref None in
      in_process (fun _ wal ->
          let step op =
            match op with
            | Log record ->
                Wal.append wal record;
                Wal_ref.append r record
            | Force ->
                Wal.force wal;
                Wal_ref.force r
            | Crash torn ->
                Wal.on_crash ~torn wal;
                Wal_ref.on_crash ~torn r
            | Install (tid, attempt) ->
                Wal.mark_installed wal ~tid ~attempt;
                Wal_ref.mark_installed r (tid, attempt)
            | Checkpoint_force ->
                let record = Wal.Checkpoint { active = 0 } in
                Wal.append wal record;
                Wal_ref.append r record;
                Wal.force wal;
                Wal_ref.force r;
                Wal.repair_deps wal;
                Wal_ref.repair_deps r
          in
          List.iteri
            (fun i op ->
              if Option.is_none !mismatch then begin
                step op;
                let a = observe_real wal and b = observe_ref r in
                if a <> b then mismatch := Some (i, a, b)
              end)
            ops);
      match !mismatch with
      | None -> true
      | Some (i, a, b) ->
          QCheck.Test.fail_reportf "after step %d (%s):\nwal:\n  %s\nreference:\n  %s"
            (i + 1)
            (pp_wal_op (List.nth ops i))
            (String.concat "\n  " a) (String.concat "\n  " b))

(* --- jittered backoff ---------------------------------------------- *)

let test_jitter_zero_is_bit_identical () =
  let rng1 = Desim.Rng.create 7 and rng2 = Desim.Rng.create 7 in
  for round = 1 to 8 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "round %d equals plain delay" round)
      (Backoff.delay ~base:0.5 ~cap:4. ~round)
      (Backoff.delay_jittered ~jitter:0. ~rng:rng1 ~base:0.5 ~cap:4. ~round)
  done;
  (* jitter 0 must not consume randomness: the stream is untouched *)
  Alcotest.(check (float 0.)) "no draws consumed" (Desim.Rng.float rng2)
    (Desim.Rng.float rng1)

let test_jitter_bounded_and_deterministic () =
  let deltas seed =
    let rng = Desim.Rng.create seed in
    List.init 100 (fun i ->
        Backoff.delay_jittered ~jitter:0.5 ~rng ~base:0.5 ~cap:4.
          ~round:((i mod 4) + 1))
  in
  let a = deltas 42 and b = deltas 42 in
  Alcotest.(check bool) "same seed, same jitter" true (a = b);
  List.iteri
    (fun i d ->
      let base = Backoff.delay ~base:0.5 ~cap:4. ~round:((i mod 4) + 1) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d within base*[0.75, 1.25]" i)
        true
        (d >= (base *. 0.75) -. 1e-12 && d <= (base *. 1.25) +. 1e-12))
    a;
  Alcotest.(check bool) "jitter actually varies" true
    (List.exists2 (fun d d' -> not (Float.equal d d')) a (List.tl a @ [ List.hd a ]))

(* --- end-to-end recovery runs -------------------------------------- *)

let durability ?(replicas = 0) ?(log_force = Params.At_prepare)
    ?(recovery_jobs = 1) () =
  {
    Params.log_disk = true;
    log_min_time = 0.002;
    log_max_time = 0.006;
    log_force;
    replicas;
    recovery_jobs;
  }

let recovery_params ?(algorithm = Params.Twopl) ?(seed = 42)
    ?(faults = Fault_plan.zero) ?(durability = durability ()) () =
  let d = Params.default in
  {
    d with
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 4;
        partitioning_degree = 4;
      };
    workload =
      { d.Params.workload with Params.num_terminals = 16; think_time = 1.0 };
    cc = { d.Params.cc with Params.algorithm };
    run = { d.Params.run with Params.seed; warmup = 2.0; measure = 20.0 };
    faults;
    durability;
  }

let check_conforming name (r : Ddbm.Sim_result.t) =
  match Ddbm_check.Invariants.check r with
  | [] -> ()
  | errs -> Alcotest.fail (name ^ ": " ^ String.concat "; " errs)

let audited_run params =
  let m = Ddbm.Machine.create params in
  let audit = Ddbm.Machine.enable_audit m in
  let events = ref [] in
  let tracer = Ddbm.Machine.enable_events m in
  Tracer.attach tracer (fun ~time:_ ev -> events := ev :: !events);
  let r = Ddbm.Machine.execute m in
  (match Ddbm.Audit.check audit with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("audit: " ^ msg));
  (r, List.rev !events)

(* Repeated single-node crashes against a lossy network: crashes land in
   every protocol phase, including mid prepare-force. Recovery must
   redo, the termination protocol must finish, and no commit may be
   lost. *)
let crashy_plan =
  {
    Fault_plan.zero with
    Fault_plan.crashes =
      [
        { Fault_plan.target = Ids.Proc 1; at = 5.; duration = 1.5 };
        { Fault_plan.target = Ids.Proc 2; at = 9.; duration = 1. };
        { Fault_plan.target = Ids.Proc 0; at = 14.; duration = 2. };
      ];
    msg_loss = 0.05;
    timeout = 0.5;
    timeout_cap = 2.;
    max_retries = 4;
    fault_seed = 23;
  }

let test_crash_with_wal_recovers () =
  List.iter
    (fun log_force ->
      let r, events =
        audited_run
          (recovery_params ~faults:crashy_plan
             ~durability:(durability ~log_force ()) ())
      in
      let name = Params.log_force_name log_force in
      check_conforming name r;
      Alcotest.(check bool) (name ^ " commits happened") true
        (r.Ddbm.Sim_result.commits > 0);
      Alcotest.(check bool) (name ^ " log forces happened") true
        (r.Ddbm.Sim_result.log_forces > 0);
      Alcotest.(check bool) (name ^ " recoveries ran") true
        (r.Ddbm.Sim_result.recoveries >= 3);
      Alcotest.(check bool) (name ^ " mttr positive") true
        (r.Ddbm.Sim_result.mean_recovery_time > 0.);
      Alcotest.(check int) (name ^ " no commit lost") 0
        r.Ddbm.Sim_result.lost_commits;
      Alcotest.(check int) (name ^ " nothing overdue in doubt") 0
        r.Ddbm.Sim_result.indoubt_overdue_at_end;
      Alcotest.(check bool) (name ^ " recovery events emitted") true
        (List.exists
           (function Event.Recovery_completed _ -> true | _ -> false)
           events))
    [ Params.At_prepare; Params.At_commit ]

(* The same node crashes again while (or shortly after) recovering: the
   abandoned pass must not wedge the machine or double-count installs. *)
let test_double_crash_same_node () =
  let faults =
    {
      Fault_plan.zero with
      Fault_plan.crashes =
        [
          { Fault_plan.target = Ids.Proc 1; at = 5.; duration = 1. };
          { Fault_plan.target = Ids.Proc 1; at = 6.05; duration = 1. };
          { Fault_plan.target = Ids.Proc 1; at = 8.; duration = 1.5 };
        ];
      timeout = 0.5;
      timeout_cap = 2.;
      max_retries = 4;
      fault_seed = 11;
    }
  in
  let r, _ = audited_run (recovery_params ~faults ()) in
  check_conforming "double crash" r;
  Alcotest.(check bool) "commits happened" true (r.Ddbm.Sim_result.commits > 0);
  Alcotest.(check bool) "crashes recorded" true
    (r.Ddbm.Sim_result.node_crashes >= 3);
  Alcotest.(check int) "no commit lost" 0 r.Ddbm.Sim_result.lost_commits;
  Alcotest.(check int) "nothing overdue in doubt" 0
    r.Ddbm.Sim_result.indoubt_overdue_at_end

(* Rate-driven crashes with replication: failovers happen (including
   racing the commit decision — the relocated proxy receives the
   Do_commit meant for its dead primary) and strictly improve on the
   doom-everything baseline. *)
let failover_plan =
  {
    Fault_plan.zero with
    Fault_plan.crash_rate = 0.02;
    mean_repair = 1.5;
    msg_loss = 0.02;
    timeout = 0.5;
    timeout_cap = 2.;
    max_retries = 4;
    fault_seed = 31;
  }

let test_failover_beats_doom_baseline () =
  let run replicas =
    audited_run
      (recovery_params ~faults:failover_plan
         ~durability:(durability ~replicas ()) ())
  in
  let r0, _ = run 0 in
  let r1, events = run 1 in
  check_conforming "replicas=0" r0;
  check_conforming "replicas=1" r1;
  Alcotest.(check int) "no failovers without replicas" 0
    r0.Ddbm.Sim_result.failovers;
  Alcotest.(check bool) "failovers happened" true
    (r1.Ddbm.Sim_result.failovers > 0);
  Alcotest.(check bool) "resurrection events emitted" true
    (List.exists
       (function Event.Cohort_resurrected _ -> true | _ -> false)
       events);
  Alcotest.(check int) "no commit lost with failover" 0
    r1.Ddbm.Sim_result.lost_commits;
  (* the whole point: saved cohorts mean fewer crash-doomed attempts *)
  Alcotest.(check bool)
    (Printf.sprintf "goodput improves (%.2f -> %.2f)"
       r0.Ddbm.Sim_result.goodput r1.Ddbm.Sim_result.goodput)
    true
    (r1.Ddbm.Sim_result.goodput > r0.Ddbm.Sim_result.goodput)

(* Jittered timeouts de-synchronize retries; the run stays conforming
   and deterministic, and jitter 0 remains bit-identical to the
   pre-jitter machine (covered by the faults suite's pins). *)
let test_recovery_runs_replay_exactly () =
  List.iter
    (fun (faults, durability) ->
      let run () = Ddbm.Machine.run (recovery_params ~faults ~durability ()) in
      let a = run () and b = run () in
      match Ddbm.Sim_result.diff a b with
      | [] -> ()
      | diffs ->
          Alcotest.fail
            ("same plan, different runs: " ^ String.concat "; " diffs))
    [
      (crashy_plan, durability ());
      (failover_plan, durability ~replicas:1 ());
      ( { crashy_plan with Fault_plan.timeout_jitter = 0.25 },
        durability ~replicas:1 ~log_force:Params.At_commit () );
    ]

(* --- dependency-record codec ---------------------------------------- *)

let dep_record_equal (a : Wal.Codec.dep_record) (b : Wal.Codec.dep_record) =
  let pair_eq (x, y) (x', y') = Int.equal x x' && Int.equal y y' in
  Int.equal a.Wal.Codec.tid b.Wal.Codec.tid
  && Int.equal a.Wal.Codec.attempt b.Wal.Codec.attempt
  && Int.equal a.Wal.Codec.lsn b.Wal.Codec.lsn
  && List.equal pair_eq a.Wal.Codec.pages b.Wal.Codec.pages
  && List.equal pair_eq a.Wal.Codec.deps b.Wal.Codec.deps

let print_dep_record (r : Wal.Codec.dep_record) =
  Printf.sprintf "t%d.%d@%d(%dp,%dd)" r.Wal.Codec.tid r.Wal.Codec.attempt
    r.Wal.Codec.lsn
    (List.length r.Wal.Codec.pages)
    (List.length r.Wal.Codec.deps)

let print_dep_log rs = String.concat ";" (List.map print_dep_record rs)

(* Field values are u32 on the wire; keep generators inside that range. *)
let gen_dep_record =
  let open QCheck.Gen in
  let* tid = int_range 0 0xFFFF in
  let* attempt = int_range 1 64 in
  let* lsn = int_range 0 1_000_000 in
  let* pages =
    list_size (int_range 0 8) (pair (int_range 0 31) (int_range 0 4095))
  in
  let* deps =
    list_size (int_range 0 6) (pair (int_range 0 0xFFFF) (int_range 1 64))
  in
  return { Wal.Codec.tid; attempt; lsn; pages; deps }

let gen_dep_log = QCheck.Gen.(list_size (int_range 0 12) gen_dep_record)

let prop_codec_round_trip =
  QCheck.Test.make ~name:"dep-record codec round-trips" ~count:300
    (QCheck.make gen_dep_log ~print:print_dep_log)
    (fun rs ->
      let log = Wal.Codec.encode_log rs in
      let decoded, torn = Wal.Codec.scan_valid log in
      Int.equal torn 0 && List.equal dep_record_equal decoded rs)

(* Cutting the encoded log at any byte leaves exactly the whole frames
   before the cut: the valid prefix is a record prefix, and valid bytes
   plus torn bytes account for every byte kept. *)
let prop_codec_torn_tail =
  QCheck.Test.make ~name:"torn tail truncates to the last valid record"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_range 1 10) gen_dep_record) (float_bound_inclusive 1.))
       ~print:(fun (rs, frac) ->
         Printf.sprintf "%s cut@%.3f" (print_dep_log rs) frac))
    (fun (rs, frac) ->
      let log = Wal.Codec.encode_log rs in
      let len = String.length log in
      let cut = Stdlib.max 0 (Stdlib.min (len - 1) (int_of_float (frac *. float_of_int len))) in
      let decoded, torn = Wal.Codec.scan_valid (String.sub log 0 cut) in
      let k = List.length decoded in
      k <= List.length rs
      && List.equal dep_record_equal decoded (List.filteri (fun i _ -> i < k) rs)
      && Int.equal (String.length (Wal.Codec.encode_log decoded) + torn) cut)

(* A flipped payload byte fails the frame checksum: the scan keeps
   exactly the records before the corrupt frame and counts the rest as
   torn. *)
let prop_codec_detects_corruption =
  QCheck.Test.make ~name:"corrupt frame stops the scan at its predecessor"
    ~count:300
    (QCheck.make
       QCheck.Gen.(
         let* rs = list_size (int_range 1 8) gen_dep_record in
         let* victim = int_range 0 (List.length rs - 1) in
         return (rs, victim))
       ~print:(fun (rs, victim) ->
         Printf.sprintf "%s victim=%d" (print_dep_log rs) victim))
    (fun (rs, victim) ->
      let prefix = List.filteri (fun i _ -> i < victim) rs in
      let before = String.length (Wal.Codec.encode_log prefix) in
      let log = Bytes.of_string (Wal.Codec.encode_log rs) in
      (* first payload byte of the victim frame: magic + u32 length *)
      let p = before + 5 in
      Bytes.set log p (Char.chr (Char.code (Bytes.get log p) lxor 0x5A));
      let decoded, torn = Wal.Codec.scan_valid (Bytes.to_string log) in
      List.equal dep_record_equal decoded prefix
      && Int.equal (before + torn) (Bytes.length log))

(* --- chain partitioner ---------------------------------------------- *)

(* Random transaction sets: distinct keys, small page universe (to force
   sharing), dependency edges both inside and outside the input set. *)
let gen_chain_txns =
  let open QCheck.Gen in
  let* n = int_range 0 20 in
  let gen_txn idx =
    let* pages =
      list_size (int_range 0 4) (pair (int_range 0 15) (int_range 0 7))
    in
    let* deps = list_size (int_range 0 3) (int_range 0 (n + 2)) in
    let* lsn = int_range 0 1000 in
    return
      {
        Wal.Chains.key = (idx, 1);
        pages = List.map (fun (f, i) -> Ids.Page.make ~file:f ~index:i) pages;
        deps = List.map (fun d -> (d, 1)) deps;
        lsn;
      }
  in
  flatten_l (List.init n gen_txn)

let print_chain_txns txns =
  String.concat ";"
    (List.map
       (fun t ->
         let tid, _ = t.Wal.Chains.key in
         Printf.sprintf "t%d@%d(%dp,%dd)" tid t.Wal.Chains.lsn
           (List.length t.Wal.Chains.pages)
           (List.length t.Wal.Chains.deps))
       txns)

let key_compare (t, a) (t', a') =
  match Int.compare t t' with 0 -> Int.compare a a' | c -> c

let prop_chains_partition =
  QCheck.Test.make ~name:"chain partition covers exactly, no cross edges"
    ~count:300
    (QCheck.make gen_chain_txns ~print:print_chain_txns)
    (fun txns ->
      let chains = Wal.Chains.partition txns in
      let input_keys =
        List.sort key_compare (List.map (fun t -> t.Wal.Chains.key) txns)
      in
      let union = List.sort key_compare (List.concat chains) in
      (* union of chains = input key set, each key exactly once *)
      List.equal (fun a b -> Int.equal (key_compare a b) 0) union input_keys
      &&
      let by_key = Hashtbl.create 64 in
      List.iter (fun t -> Hashtbl.replace by_key t.Wal.Chains.key t) txns;
      let chain_of = Hashtbl.create 64 in
      List.iteri
        (fun c members ->
          List.iter (fun k -> Hashtbl.replace chain_of k c) members)
        chains;
      (* no page is written by members of two different chains, and no
         dependency edge inside the input set crosses chains *)
      List.for_all
        (fun t ->
          let c = Hashtbl.find chain_of t.Wal.Chains.key in
          List.for_all
            (fun d ->
              (not (Hashtbl.mem by_key d))
              || Int.equal (Hashtbl.find chain_of d) c)
            t.Wal.Chains.deps
          && List.for_all
               (fun page ->
                 List.for_all
                   (fun t' ->
                     Int.equal (Hashtbl.find chain_of t'.Wal.Chains.key) c
                     || not
                          (List.exists (Ids.Page.equal page)
                             t'.Wal.Chains.pages))
                   txns)
               t.Wal.Chains.pages)
        txns)

(* --- chain-parallel recovery ----------------------------------------- *)

(* Without a crash there is no recovery: the job count is inert and the
   results are bit-identical. *)
let test_recovery_jobs_noop_without_crashes () =
  let run recovery_jobs =
    Ddbm.Machine.run
      (recovery_params ~durability:(durability ~recovery_jobs ()) ())
  in
  let a = run 1 and b = run 4 in
  (* the job count itself lives in Params; neutralize it so the diff
     compares only what the runs measured *)
  let b = { b with Ddbm.Sim_result.params = a.Ddbm.Sim_result.params } in
  match Ddbm.Sim_result.diff a b with
  | [] -> ()
  | diffs ->
      Alcotest.fail ("jobs changed a crash-free run: " ^ String.concat "; " diffs)

(* Chain-parallel recovery is still deterministic: same plan, same
   result, run after run. *)
let test_parallel_recovery_deterministic () =
  let params =
    recovery_params ~faults:crashy_plan
      ~durability:(durability ~recovery_jobs:4 ())
      ()
  in
  let a = Ddbm.Machine.run params and b = Ddbm.Machine.run params in
  match Ddbm.Sim_result.diff a b with
  | [] -> ()
  | diffs ->
      Alcotest.fail
        ("jobs=4 runs differ across replays: " ^ String.concat "; " diffs)

(* The crashy plan drives commit-decided in-doubt transactions through
   the chain path: chains replay, chain lifecycle events fire, and the
   correctness bar (no lost commit) holds exactly as it does serially. *)
let test_parallel_recovery_replays_chains () =
  let run recovery_jobs =
    audited_run
      (recovery_params ~faults:crashy_plan
         ~durability:(durability ~recovery_jobs ())
         ())
  in
  let serial, _ = run 1 in
  let parallel, events = run 4 in
  check_conforming "serial" serial;
  check_conforming "jobs=4" parallel;
  Alcotest.(check int) "serial loses nothing" 0
    serial.Ddbm.Sim_result.lost_commits;
  Alcotest.(check int) "jobs=4 loses nothing" 0
    parallel.Ddbm.Sim_result.lost_commits;
  Alcotest.(check int) "serial never chains" 0
    serial.Ddbm.Sim_result.recovery_chains;
  Alcotest.(check bool) "chains replayed" true
    (parallel.Ddbm.Sim_result.recovery_chains > 0);
  Alcotest.(check int) "nothing degraded without torn tails" 0
    parallel.Ddbm.Sim_result.recovery_degraded;
  Alcotest.(check bool) "chain start events emitted" true
    (List.exists
       (function Event.Recovery_chain_started _ -> true | _ -> false)
       events);
  Alcotest.(check bool) "chain completion events emitted" true
    (List.exists
       (function Event.Recovery_chain_completed _ -> true | _ -> false)
       events)

(* Every crash tears the dropped tail: the dependency DAG is corrupt at
   each recovery, so chain-parallel passes degrade to serial physical
   redo — and still lose nothing. *)
let test_torn_tail_degrades_to_serial () =
  let faults = { crashy_plan with Fault_plan.torn_tail = 1. } in
  let r, _ =
    audited_run
      (recovery_params ~faults ~durability:(durability ~recovery_jobs:4 ()) ())
  in
  check_conforming "torn tail" r;
  Alcotest.(check bool) "tails tore" true (r.Ddbm.Sim_result.wal_torn_tails > 0);
  Alcotest.(check bool) "passes degraded" true
    (r.Ddbm.Sim_result.recovery_degraded > 0);
  (* a crash with an empty volatile tail tears nothing, so a later pass
     may still chain — degradation and chaining are per-pass, not global *)
  Alcotest.(check int) "no commit lost" 0 r.Ddbm.Sim_result.lost_commits;
  Alcotest.(check int) "nothing overdue in doubt" 0
    r.Ddbm.Sim_result.indoubt_overdue_at_end

(* Every recovery pass is interrupted by a second crash: recovery is
   re-entrant and idempotent, so the machine converges and the capstone
   bar still holds. *)
let test_recrash_survives_double_crash () =
  let faults =
    { crashy_plan with Fault_plan.recrash = 1.; mean_repair = 1. }
  in
  let r, _ =
    audited_run
      (recovery_params ~faults ~durability:(durability ~recovery_jobs:4 ()) ())
  in
  check_conforming "recrash" r;
  Alcotest.(check bool) "re-crashes happened beyond the plan" true
    (r.Ddbm.Sim_result.node_crashes > 3);
  Alcotest.(check bool) "some recovery still completed" true
    (r.Ddbm.Sim_result.recoveries > 0);
  Alcotest.(check int) "no commit lost" 0 r.Ddbm.Sim_result.lost_commits;
  Alcotest.(check int) "nothing overdue in doubt" 0
    r.Ddbm.Sim_result.indoubt_overdue_at_end

(* Satellite fix: the recovery checkpoint force joins the same log-force
   latency histogram as the forward path, so with no warmup reset the
   histogram count conserves exactly against Wal.forces. *)
let test_log_force_histogram_conserves () =
  let params = recovery_params ~faults:crashy_plan () in
  let params =
    { params with Params.run = { params.Params.run with Params.warmup = 0. } }
  in
  let m = Ddbm.Machine.create params in
  let r = Ddbm.Machine.execute m in
  Alcotest.(check bool) "recoveries happened" true
    (r.Ddbm.Sim_result.recoveries > 0);
  Alcotest.(check bool) "forces happened" true
    (r.Ddbm.Sim_result.log_forces > 0);
  let count =
    List.find_map
      (fun (fam : Metric.family) ->
        if String.equal fam.Metric.name "ddbm_log_force_seconds" then
          match fam.Metric.samples with
          | { Metric.value = Metric.H h; _ } :: _ ->
              Some (Desim.Stats.Hdr.count h)
          | _ -> None
        else None)
      (Ddbm.Machine.registry m)
  in
  match count with
  | None -> Alcotest.fail "ddbm_log_force_seconds histogram missing"
  | Some n ->
      Alcotest.(check int) "histogram count = completed forces"
        r.Ddbm.Sim_result.log_forces n

(* --- the capstone sweep -------------------------------------------- *)

(* Random fault plans (crashes, loss, duplication, jitter, torn tails,
   crash-during-recovery, replication and chain-parallel recovery on or
   off): no committed transaction is ever lost. The count is env-capped
   so CI can dial it down; the default meets the >= 100 bar. *)
let sweep_count () =
  match Sys.getenv_opt "DDBM_RECOVERY_SWEEP" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 100)
  | None -> 100

let random_plan rng =
  let f lo hi = lo +. (Desim.Rng.float rng *. (hi -. lo)) in
  let crashes =
    List.init
      (Desim.Rng.int rng 3)
      (fun _ ->
        {
          Fault_plan.target = Ids.Proc (Desim.Rng.int rng 4);
          at = f 3. 15.;
          duration = f 0.5 2.5;
        })
  in
  {
    Fault_plan.zero with
    Fault_plan.crashes;
    crash_rate = (if Desim.Rng.bool rng ~p:0.5 then f 0.005 0.04 else 0.);
    mean_repair = f 0.5 2.;
    recrash = (if Desim.Rng.bool rng ~p:0.3 then f 0.1 0.6 else 0.);
    torn_tail = (if Desim.Rng.bool rng ~p:0.3 then f 0.3 1. else 0.);
    msg_loss = (if Desim.Rng.bool rng ~p:0.5 then f 0.01 0.1 else 0.);
    msg_dup = (if Desim.Rng.bool rng ~p:0.5 then f 0.01 0.05 else 0.);
    msg_delay = f 0. 0.005;
    timeout = 0.5;
    timeout_cap = 2.;
    timeout_jitter = (if Desim.Rng.bool rng ~p:0.5 then f 0.1 0.5 else 0.);
    max_retries = 4;
    fault_seed = Desim.Rng.int rng 1_000_000;
  }

(* Plan generation stays serial (the RNG draws must happen in a fixed
   order regardless of job count); only the independent (seed, params)
   runs fan out over the pool. DDBM_TEST_JOBS sets the job count
   (default 1: plain serial execution in this process). *)
let test_jobs () =
  match Sys.getenv_opt "DDBM_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1)
  | None -> 1

let test_no_lost_commit_sweep () =
  let rng = Desim.Rng.create 2026 in
  let plans =
    List.init (sweep_count ()) (fun idx ->
        let i = idx + 1 in
        let faults = random_plan rng in
        let faults =
          if Fault_plan.active faults then faults
          else { faults with Fault_plan.msg_loss = 0.02 }
        in
        let replicas = if Desim.Rng.bool rng ~p:0.5 then 1 else 0 in
        let log_force =
          if Desim.Rng.bool rng ~p:0.5 then Params.At_prepare
          else Params.At_commit
        in
        let recovery_jobs = if Desim.Rng.bool rng ~p:0.5 then 4 else 1 in
        let params =
          recovery_params ~seed:(1000 + i) ~faults
            ~durability:(durability ~replicas ~log_force ~recovery_jobs ())
            ()
        in
        let params =
          {
            params with
            Params.run =
              { params.Params.run with Params.warmup = 1.; measure = 6. };
            workload =
              { params.Params.workload with Params.num_terminals = 8 };
          }
        in
        (i, params))
  in
  let pool = Par.Pool.create ~jobs:(test_jobs ()) () in
  let results =
    Par.Pool.map pool (fun (i, params) -> (i, Ddbm.Machine.run params)) plans
  in
  let lost = ref 0 and checked = ref 0 in
  List.iter
    (fun (i, r) ->
      incr checked;
      lost := !lost + r.Ddbm.Sim_result.lost_commits;
      check_conforming (Printf.sprintf "sweep %d" i) r)
    results;
  Alcotest.(check bool) "sweep ran" true (!checked >= 1);
  Alcotest.(check int)
    (Printf.sprintf "no commit lost across %d random fault plans" !checked)
    0 !lost

let suite =
  [
    Alcotest.test_case "WAL force makes the prefix durable" `Quick
      test_wal_force_makes_prefix_durable;
    Alcotest.test_case "WAL crash drops the volatile tail" `Quick
      test_wal_crash_drops_volatile_tail;
    Alcotest.test_case "WAL installs resolve doubt" `Quick
      test_wal_installed_resolves_doubt;
    Alcotest.test_case "WAL checkpoint prunes decided entries" `Quick
      test_wal_checkpoint_prunes_decided;
    Alcotest.test_case "WAL ignores read-only cohorts" `Quick
      test_wal_readonly_not_tracked;
    Alcotest.test_case "jitter 0 is bit-identical, draw-free" `Quick
      test_jitter_zero_is_bit_identical;
    Alcotest.test_case "jitter bounded and deterministic" `Quick
      test_jitter_bounded_and_deterministic;
    Alcotest.test_case "crashes with WAL recover and lose nothing" `Slow
      test_crash_with_wal_recovers;
    Alcotest.test_case "double crash of one node converges" `Slow
      test_double_crash_same_node;
    Alcotest.test_case "failover beats the doom baseline" `Slow
      test_failover_beats_doom_baseline;
    Alcotest.test_case "recovery-heavy plans replay exactly" `Slow
      test_recovery_runs_replay_exactly;
    QCheck_alcotest.to_alcotest prop_codec_round_trip;
    QCheck_alcotest.to_alcotest prop_codec_torn_tail;
    QCheck_alcotest.to_alcotest prop_codec_detects_corruption;
    QCheck_alcotest.to_alcotest prop_chains_partition;
    Alcotest.test_case "recovery jobs are inert without crashes" `Slow
      test_recovery_jobs_noop_without_crashes;
    Alcotest.test_case "chain-parallel recovery is deterministic" `Slow
      test_parallel_recovery_deterministic;
    Alcotest.test_case "chain-parallel recovery replays chains" `Slow
      test_parallel_recovery_replays_chains;
    Alcotest.test_case "torn tails degrade recovery to serial" `Slow
      test_torn_tail_degrades_to_serial;
    Alcotest.test_case "recrash double-crash still loses nothing" `Slow
      test_recrash_survives_double_crash;
    Alcotest.test_case "log-force histogram conserves" `Slow
      test_log_force_histogram_conserves;
    Alcotest.test_case "no-lost-commit sweep over random fault plans" `Slow
      test_no_lost_commit_sweep;
    Alcotest.test_case "attempt keys round-trip near their limits" `Quick
      test_key_round_trips;
    Alcotest.test_case "attempt keys reject out-of-range values" `Quick
      test_key_rejects_out_of_range;
    QCheck_alcotest.to_alcotest prop_key_order;
    Alcotest.test_case "WAL keeps attempts 1-3 of one tid apart" `Quick
      test_key_attempts_distinct;
    QCheck_alcotest.to_alcotest prop_wal_matches_reference;
  ]
