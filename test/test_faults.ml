(* Fault-injection subsystem: backoff arithmetic, fault-plan codec,
   message-variant coverage, chaos switches kept per machine, the faults-off
   bit-identity pin, and end-to-end crash / lossy-network runs that must
   stay serializable, conserving and deterministic. *)

open Ddbm_model

(* --- backoff arithmetic -------------------------------------------- *)

let test_backoff_delay () =
  let d round = Backoff.delay ~base:1. ~cap:8. ~round in
  Alcotest.(check (float 0.)) "round 1" 1. (d 1);
  Alcotest.(check (float 0.)) "round 2" 2. (d 2);
  Alcotest.(check (float 0.)) "round 3" 4. (d 3);
  Alcotest.(check (float 0.)) "round 4" 8. (d 4);
  Alcotest.(check (float 0.)) "round 5 capped" 8. (d 5);
  Alcotest.(check (float 0.)) "round 20 capped" 8. (d 20);
  Alcotest.(check (float 0.)) "fractional base" 0.5
    (Backoff.delay ~base:0.25 ~cap:8. ~round:2)

let test_backoff_deadline_total_exhausted () =
  Alcotest.(check (float 0.)) "deadline = now + delay" 12.
    (Backoff.deadline ~now:10. ~base:1. ~cap:8. ~round:2);
  (* the budget includes the final wait before giving up: rounds
     1..max_retries+1 *)
  Alcotest.(check (float 0.)) "total sums the whole budget" 23.
    (Backoff.total ~base:1. ~cap:8. ~max_retries:4);
  Alcotest.(check (float 0.)) "total respects the cap" 9.
    (Backoff.total ~base:1. ~cap:2. ~max_retries:4);
  Alcotest.(check bool) "round 4 of 4 not exhausted" false
    (Backoff.exhausted ~max_retries:4 ~round:4);
  Alcotest.(check bool) "round 5 of 4 exhausted" true
    (Backoff.exhausted ~max_retries:4 ~round:5)

(* --- desim primitives ---------------------------------------------- *)

let test_link_zero_consumes_no_randomness () =
  let rng1 = Desim.Rng.create 7 and rng2 = Desim.Rng.create 7 in
  let link = Desim.Faults.Link.create rng1 ~loss:0. ~dup:0. ~delay:0. in
  for _ = 1 to 100 do
    Alcotest.(check (list (float 0.)))
      "zero link delivers one immediate copy" [ 0. ]
      (Desim.Faults.Link.judge link)
  done;
  Alcotest.(check (float 0.)) "no draws were consumed"
    (Desim.Rng.float rng2) (Desim.Rng.float rng1)

let test_link_lossy_is_deterministic () =
  let judge_all seed =
    let rng = Desim.Rng.create seed in
    let link =
      Desim.Faults.Link.create rng ~loss:0.3 ~dup:0.2 ~delay:0.01
    in
    List.init 200 (fun _ -> Desim.Faults.Link.judge link)
  in
  let a = judge_all 42 and b = judge_all 42 in
  Alcotest.(check bool) "same seed, same verdicts" true (a = b);
  let dropped = List.length (List.filter (fun c -> c = []) a) in
  let dupped = List.length (List.filter (fun c -> List.length c > 1) a) in
  Alcotest.(check bool) "some messages dropped" true (dropped > 0);
  Alcotest.(check bool) "some messages duplicated" true (dupped > 0);
  Alcotest.(check bool) "most messages delivered" true (dropped < 150)

(* A judged copy with extra delay [d] reaches its destination exactly
   [d] after an unjudged send of the same message would. *)
let test_net_judged_delay () =
  let delivered_at judge =
    let eng = Desim.Engine.create () in
    let cpus = [| Desim.Cpu.create eng ~rate:1e6; Desim.Cpu.create eng ~rate:1e6 |] in
    let net =
      Net.create ~eng ~inst_per_msg:1000.
        ~cpu_of:(function Ids.Host -> cpus.(0) | Ids.Proc i -> cpus.(i))
    in
    Net.set_judge net judge;
    let at = ref Float.nan in
    Desim.Engine.spawn eng (fun () ->
        Net.send ~faulty:true net ~src:(Ids.Proc 0) ~dst:(Ids.Proc 1) (fun () ->
            at := Desim.Engine.now eng));
    Desim.Engine.run eng;
    !at
  in
  let plain = delivered_at None in
  Alcotest.(check (float 1e-12)) "judged copy arrives d later" (plain +. 0.25)
    (delivered_at (Some (fun ~src:_ ~dst:_ -> [ 0.25 ])))

(* --- fault-plan codec ---------------------------------------------- *)

let test_spec_zero_roundtrip () =
  Alcotest.(check string) "zero prints empty" "" (Fault_plan.to_spec Fault_plan.zero);
  match Fault_plan.of_spec "" with
  | Ok p -> Alcotest.(check bool) "empty parses to zero" true (p = Fault_plan.zero)
  | Error e -> Alcotest.fail e

let full_plan =
  {
    Fault_plan.crashes =
      [
        { Fault_plan.target = Ids.Proc 2; at = 10.; duration = 5. };
        { Fault_plan.target = Ids.Host; at = 30.; duration = 1.5 };
      ];
    crash_rate = 0.01;
    mean_repair = 2.;
    msg_loss = 0.05;
    msg_dup = 0.01;
    msg_delay = 0.002;
    recrash = 0.1;
    torn_tail = 0.25;
    timeout = 0.5;
    timeout_cap = 4.;
    timeout_jitter = 0.25;
    max_retries = 6;
    fault_seed = 99;
    chaos = [ "broken-lock-conversion" ];
  }

let test_spec_full_roundtrip () =
  let spec = Fault_plan.to_spec full_plan in
  match Fault_plan.of_spec spec with
  | Ok p ->
      Alcotest.(check bool)
        (Printf.sprintf "round-trips %S" spec)
        true (p = full_plan)
  | Error e -> Alcotest.fail e

(* The printed form is a file format (CLI flags, replay artifacts), so it
   is pinned byte for byte, not only round-tripped. *)
let test_spec_full_pinned () =
  Alcotest.(check string) "full plan prints"
    "loss=0.050000000000000003,dup=0.01,delay=0.002,crash=2@10+5,\
     crash=host@30+1.5,crash-rate=0.01,mttr=2,recrash=0.10000000000000001,\
     torn-tail=0.25,timeout=0.5,timeout-cap=4,jitter=0.25,retries=6,\
     fault-seed=99,chaos=broken-lock-conversion"
    (Fault_plan.to_spec full_plan)

let test_spec_rejects_garbage () =
  List.iter
    (fun spec ->
      match Fault_plan.of_spec spec with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" spec)
      | Error _ -> ())
    [
      "loss=2";
      "loss=x";
      "crash=bogus";
      "wibble=1";
      "retries=-3";
      "crash=proc1@x+1";
      "chaos=bogus";
    ]

(* A single-value key given twice is an error, as in a replay artifact,
   rather than the last value silently winning; a list key such as
   [crash] may repeat. *)
let test_spec_rejects_repeated_key () =
  Alcotest.(check (result reject string))
    "loss twice" (Error "faults: repeated key \"loss\"")
    (Result.map ignore (Fault_plan.of_spec "loss=0.1,loss=0.2"));
  match Fault_plan.of_spec "crash=1@1+1,crash=2@3+1" with
  | Ok p ->
      Alcotest.(check int) "both crashes" 2 (List.length p.Fault_plan.crashes)
  | Error e -> Alcotest.fail e

let test_validate_rejects_out_of_range_crash_target () =
  let plan =
    {
      Fault_plan.zero with
      Fault_plan.crashes =
        [ { Fault_plan.target = Ids.Proc 9; at = 1.; duration = 1. } ];
    }
  in
  match Fault_plan.validate ~num_proc_nodes:4 plan with
  | Ok () -> Alcotest.fail "accepted a crash target beyond the machine"
  | Error _ -> ()

(* --- configurations ------------------------------------------------ *)

let faulty_params ?(algorithm = Params.Twopl) ?(seed = 42)
    ?(faults = Fault_plan.zero) () =
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
  }

(* --- chaos switches ------------------------------------------------- *)

(* The switch is armed in the lock tables of the machine built from the
   plan, so creating another machine first or in between cannot arm or
   disarm it. The configuration is the conformance suite's hot one, whose
   armed run commits a lost update. *)
let test_chaos_stays_with_its_machine () =
  let clean = Test_conformance.hot_2pl_params in
  let armed =
    {
      clean with
      Params.faults =
        { Fault_plan.zero with Fault_plan.chaos = [ "broken-lock-conversion" ] };
    }
  in
  let audited m =
    let audit = Ddbm.Machine.enable_audit m in
    ignore (Ddbm.Machine.execute m : Ddbm.Sim_result.t);
    Ddbm.Audit.check audit
  in
  let expect order ~armed_m ~clean_m =
    (match audited armed_m with
    | Ok n ->
        Alcotest.fail
          (Printf.sprintf "%s: the armed run is serializable (%d commits)" order n)
    | Error _ -> ());
    match audited clean_m with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail (order ^ ": the clean run: " ^ msg)
  in
  let armed_m = Ddbm.Machine.create armed in
  let clean_m = Ddbm.Machine.create clean in
  expect "armed, then clean" ~armed_m ~clean_m;
  let clean_m = Ddbm.Machine.create clean in
  let armed_m = Ddbm.Machine.create armed in
  expect "clean, then armed" ~armed_m ~clean_m

let test_unknown_chaos_rejected () =
  let bogus = { Fault_plan.zero with Fault_plan.chaos = [ "no-such-fault" ] } in
  Alcotest.(check (result reject string))
    "the plan rejects the name"
    (Error
       "faults: unknown chaos fault \"no-such-fault\" (known: \
        broken-lock-conversion)")
    (Fault_plan.validate ~num_proc_nodes:4 bogus);
  match Ddbm.Machine.create (faulty_params ~faults:bogus ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "machine accepted an unknown chaos fault"

(* --- faults-off bit-identity pin ----------------------------------- *)

(* Pinned with the zero fault plan (same configuration, same seed): the
   zero plan must leave every algorithm's run bit-for-bit unchanged — no
   extra RNG draws, no timers, no stray events. Regenerate with
   `dune exec test/gen_pins.exe` after any intentional numerics change
   (last regenerated for the virtual-time CPU kernel). *)
let faults_off_expected =
  [
    (Params.No_dc, 93, 0, 93, 2295, 39678, "4.6500000000000004", "2.4671111279030993");
    (Params.Twopl, 91, 1, 92, 2401, 39507, "4.5499999999999998", "2.5360236178835005");
    (Params.Wound_wait, 91, 1, 92, 2268, 39273, "4.5499999999999998", "2.5203000168872371");
    (Params.Bto, 92, 1, 93, 2286, 39534, "4.5999999999999996", "2.508082750311043");
    (Params.Opt, 84, 10, 94, 2303, 39343, "4.2000000000000002", "2.8516994390672812");
    (Params.Wait_die, 86, 17, 103, 2337, 38848, "4.2999999999999998", "2.6563220374780863");
    (Params.Twopl_defer, 87, 5, 92, 2425, 39562, "4.3499999999999996", "2.6383243413325839");
    (Params.O2pl, 91, 1, 92, 2401, 39507, "4.5499999999999998", "2.5360236178835005");
  ]

let test_faults_off_bit_identity () =
  List.iter
    (fun (algorithm, commits, aborts, completions, messages, sim_events, tput,
          resp) ->
      let name = Params.cc_algorithm_name algorithm in
      let r = Ddbm.Machine.run (faulty_params ~algorithm ()) in
      Alcotest.(check int) (name ^ " commits") commits r.Ddbm.Sim_result.commits;
      Alcotest.(check int) (name ^ " aborts") aborts r.Ddbm.Sim_result.aborts;
      Alcotest.(check int) (name ^ " completions") completions
        r.Ddbm.Sim_result.completions;
      Alcotest.(check int) (name ^ " messages") messages
        r.Ddbm.Sim_result.messages;
      Alcotest.(check int) (name ^ " sim events") sim_events
        r.Ddbm.Sim_result.sim_events;
      Alcotest.(check string) (name ^ " throughput") tput
        (Printf.sprintf "%.17g" r.Ddbm.Sim_result.throughput);
      Alcotest.(check string) (name ^ " mean response") resp
        (Printf.sprintf "%.17g" r.Ddbm.Sim_result.mean_response);
      (* and the fault metrics read as a fault-free machine *)
      Alcotest.(check (float 0.)) (name ^ " availability") 1.
        r.Ddbm.Sim_result.availability;
      Alcotest.(check int) (name ^ " timeouts") 0 r.Ddbm.Sim_result.timeouts;
      Alcotest.(check int) (name ^ " retries") 0 r.Ddbm.Sim_result.retries;
      Alcotest.(check int) (name ^ " orphaned") 0 r.Ddbm.Sim_result.orphaned)
    faults_off_expected

(* --- end-to-end fault runs ----------------------------------------- *)

let check_conforming name (r : Ddbm.Sim_result.t) =
  match Ddbm_check.Invariants.check r with
  | [] -> ()
  | errs -> Alcotest.fail (name ^ ": " ^ String.concat "; " errs)

let audited_faulty_run ?algorithm ?seed faults =
  let params = faulty_params ?algorithm ?seed ~faults () in
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

let lossy_plan =
  {
    Fault_plan.zero with
    Fault_plan.msg_loss = 0.15;
    msg_dup = 0.05;
    msg_delay = 0.002;
    timeout = 0.25;
    timeout_cap = 1.;
    max_retries = 6;
    fault_seed = 5;
  }

let test_lossy_network_still_serializable () =
  let r, _ = audited_faulty_run lossy_plan in
  check_conforming "lossy" r;
  Alcotest.(check bool) "commits happened" true (r.Ddbm.Sim_result.commits > 0);
  Alcotest.(check bool) "losses were observed" true
    (r.Ddbm.Sim_result.msgs_dropped > 0);
  Alcotest.(check bool) "timeouts fired" true (r.Ddbm.Sim_result.timeouts > 0);
  Alcotest.(check bool) "retries recovered the protocol" true
    (r.Ddbm.Sim_result.retries > 0);
  Alcotest.(check int) "no transaction left in doubt" 0
    r.Ddbm.Sim_result.indoubt_open_at_end

let host_crash_plan =
  {
    Fault_plan.zero with
    Fault_plan.crashes =
      [ { Fault_plan.target = Ids.Host; at = 8.; duration = 2. } ];
    timeout = 0.5;
    timeout_cap = 2.;
    max_retries = 4;
    fault_seed = 11;
  }

(* The tentpole termination property: a coordinator (host) crash in the
   middle of the run leaves no cohort permanently in doubt — the
   decision log plus the inquiry protocol resolves every prepared
   cohort once the host is back. *)
let test_host_crash_mid_run_terminates () =
  let r, events = audited_faulty_run host_crash_plan in
  check_conforming "host crash" r;
  Alcotest.(check bool) "commits happened" true (r.Ddbm.Sim_result.commits > 0);
  Alcotest.(check bool) "crash was recorded" true
    (r.Ddbm.Sim_result.node_crashes >= 1);
  Alcotest.(check bool) "availability dented" true
    (r.Ddbm.Sim_result.availability < 1.);
  Alcotest.(check int) "nothing overdue in doubt" 0
    r.Ddbm.Sim_result.indoubt_overdue_at_end;
  let crashed, recovered =
    List.fold_left
      (fun (c, rcv) ev ->
        match ev with
        | Event.Node_crashed { node = Ids.Host } -> (c + 1, rcv)
        | Event.Node_recovered { node = Ids.Host } -> (c, rcv + 1)
        | _ -> (c, rcv))
      (0, 0) events
  in
  Alcotest.(check int) "one host crash event" 1 crashed;
  Alcotest.(check int) "one host recovery event" 1 recovered

let proc_crash_plan =
  {
    Fault_plan.zero with
    Fault_plan.crashes =
      [ { Fault_plan.target = Ids.Proc 1; at = 6.; duration = 1.5 } ];
    msg_loss = 0.05;
    timeout = 0.5;
    timeout_cap = 2.;
    max_retries = 4;
    fault_seed = 23;
  }

let test_proc_crash_mid_run_terminates () =
  List.iter
    (fun algorithm ->
      let r, events = audited_faulty_run ~algorithm proc_crash_plan in
      let name = Params.cc_algorithm_name algorithm in
      check_conforming name r;
      Alcotest.(check bool) (name ^ " commits happened") true
        (r.Ddbm.Sim_result.commits > 0);
      Alcotest.(check bool) (name ^ " crash recorded") true
        (r.Ddbm.Sim_result.node_crashes >= 1);
      Alcotest.(check int) (name ^ " nothing overdue in doubt") 0
        r.Ddbm.Sim_result.indoubt_overdue_at_end;
      Alcotest.(check bool) (name ^ " crash event emitted") true
        (List.exists
           (function
             | Event.Node_crashed { node = Ids.Proc 1 } -> true
             | _ -> false)
           events))
    [ Params.Twopl; Params.Opt; Params.No_dc ]

(* Proc 1 is down over [1, 3) and the window opens at 2 (warm-up 2,
   measure 20). The node stays down through the window reset, recovers
   on schedule, and availability counts only the 1 s of downtime inside
   the window, over 5 nodes (the host and 4 processing nodes). *)
let warmup_spanning_crash_plan =
  {
    Fault_plan.zero with
    Fault_plan.crashes =
      [ { Fault_plan.target = Ids.Proc 1; at = 1.; duration = 2. } ];
    timeout = 0.5;
    timeout_cap = 2.;
    max_retries = 4;
    fault_seed = 31;
  }

let test_crash_spanning_warmup () =
  let m =
    Ddbm.Machine.create (faulty_params ~faults:warmup_spanning_crash_plan ())
  in
  let spells = ref [] in
  Tracer.attach (Ddbm.Machine.enable_events m) (fun ~time ev ->
      match ev with
      | Event.Node_crashed { node = Ids.Proc 1 } ->
          spells := ("down", time) :: !spells
      | Event.Node_recovered { node = Ids.Proc 1 } ->
          spells := ("up", time) :: !spells
      | Event.Node_crashed _ | Event.Node_recovered _ ->
          spells := ("other node", time) :: !spells
      | _ -> ());
  let r = Ddbm.Machine.execute m in
  check_conforming "warm-up-spanning crash" r;
  Alcotest.(check (list (pair string (float 0.))))
    "one spell of proc 1, down at 1 and up at 3"
    [ ("down", 1.); ("up", 3.) ]
    (List.rev !spells);
  Alcotest.(check int) "one crash" 1 r.Ddbm.Sim_result.node_crashes;
  Alcotest.(check (float 1e-12)) "availability counts the in-window second"
    (1. -. (1. /. (5. *. 20.)))
    r.Ddbm.Sim_result.availability

(* The same spell feeds the in-doubt grace with all of its 2 s, the
   warm-up second included: the grace is an unwindowed allowance. *)
let test_crash_spanning_warmup_grace () =
  let m =
    Ddbm.Machine.create (faulty_params ~faults:warmup_spanning_crash_plan ())
  in
  let _ : Ddbm.Sim_result.t = Ddbm.Machine.execute m in
  let p = warmup_spanning_crash_plan in
  Alcotest.(check (float 1e-9)) "the grace counts 2 s of downtime"
    (Backoff.total ~base:p.Fault_plan.timeout ~cap:p.Fault_plan.timeout_cap
       ~max_retries:p.Fault_plan.max_retries
    +. (20. *. p.Fault_plan.timeout_cap)
    +. 2.)
    (Ddbm.Machine.indoubt_grace m)

let test_fault_runs_are_deterministic () =
  List.iter
    (fun faults ->
      let run () = Ddbm.Machine.run (faulty_params ~faults ()) in
      let a = run () and b = run () in
      match Ddbm.Sim_result.diff a b with
      | [] -> ()
      | diffs ->
          Alcotest.fail
            ("same plan, different runs: " ^ String.concat "; " diffs))
    [ lossy_plan; host_crash_plan; proc_crash_plan ]

let test_crash_rate_runs_conform () =
  let plan =
    {
      Fault_plan.zero with
      Fault_plan.crash_rate = 0.02;
      mean_repair = 1.;
      timeout = 0.5;
      timeout_cap = 2.;
      max_retries = 4;
      fault_seed = 31;
    }
  in
  let r, _ = audited_faulty_run plan in
  check_conforming "crash-rate" r;
  Alcotest.(check bool) "commits happened" true (r.Ddbm.Sim_result.commits > 0)

let suite =
  [
    Alcotest.test_case "backoff delay doubles to the cap" `Quick
      test_backoff_delay;
    Alcotest.test_case "backoff deadline, total and budget" `Quick
      test_backoff_deadline_total_exhausted;
    Alcotest.test_case "zero link consumes no randomness" `Quick
      test_link_zero_consumes_no_randomness;
    Alcotest.test_case "lossy link deterministic per seed" `Quick
      test_link_lossy_is_deterministic;
    Alcotest.test_case "judged net delay postpones delivery" `Quick
      test_net_judged_delay;
    Alcotest.test_case "spec codec: zero" `Quick test_spec_zero_roundtrip;
    Alcotest.test_case "spec codec: full plan" `Quick test_spec_full_roundtrip;
    Alcotest.test_case "spec codec: full plan prints as pinned" `Quick
      test_spec_full_pinned;
    Alcotest.test_case "spec codec rejects garbage" `Quick
      test_spec_rejects_garbage;
    Alcotest.test_case "spec codec rejects a repeated key" `Quick
      test_spec_rejects_repeated_key;
    Alcotest.test_case "validate rejects bad crash target" `Quick
      test_validate_rejects_out_of_range_crash_target;
    Alcotest.test_case
      "a chaos-armed machine stays armed when another machine is created \
       before it runs"
      `Quick test_chaos_stays_with_its_machine;
    Alcotest.test_case "unknown chaos fault rejected" `Quick
      test_unknown_chaos_rejected;
    Alcotest.test_case "faults-off runs are bit-identical" `Slow
      test_faults_off_bit_identity;
    Alcotest.test_case "lossy network stays serializable" `Slow
      test_lossy_network_still_serializable;
    Alcotest.test_case "host crash mid-run terminates 2PC" `Slow
      test_host_crash_mid_run_terminates;
    Alcotest.test_case "proc crash mid-run terminates 2PC" `Slow
      test_proc_crash_mid_run_terminates;
    Alcotest.test_case "crash spanning warm-up counts in-window downtime" `Slow
      test_crash_spanning_warmup;
    Alcotest.test_case "crash spanning warm-up counts whole in the grace" `Slow
      test_crash_spanning_warmup_grace;
    Alcotest.test_case "seeded fault runs replay exactly" `Slow
      test_fault_runs_are_deterministic;
    Alcotest.test_case "rate-driven crashes conform" `Slow
      test_crash_rate_runs_conform;
  ]
