(** Cross-algorithm conformance engine.

    For one parameter record this module runs *every* registered
    concurrency control algorithm with the serializability auditor
    attached and asserts, per algorithm:

    - the committed history is (multiversion view-) serializable;
    - the metric conservation invariants of {!Invariants};
    - bit-for-bit determinism: the same (seed, params, algorithm) run
      twice yields identical {!Ddbm.Sim_result.t}s;

    and across algorithms:

    - workload agreement: the per-terminal plan streams — which
      concurrency control must not influence — are prefix-identical
      across all algorithms (common random numbers).

    Any failure shrinks (via {!Config_gen.shrink}, through the replay
    codec) at the QCheck layer and is written as a self-contained replay
    artifact that [ddbm_cli replay <file>] re-executes. *)

open Ddbm_model

type failure = {
  params : Params.t;  (** configuration, algorithm included *)
  kind : string;  (** audit | invariant | determinism | agreement *)
  detail : string;
}

let failure_to_string f =
  Printf.sprintf "[%s] %s under %s (seed %d):\n%s" f.kind
    (Params.cc_algorithm_name f.params.Params.cc.Params.algorithm)
    (match f.params.Params.workload.Params.exec_pattern with
    | Params.Parallel -> "parallel execution"
    | Params.Sequential -> "sequential execution")
    f.params.Params.run.Params.seed f.detail

let with_algorithm params algorithm =
  { params with Params.cc = { params.Params.cc with Params.algorithm } }

(* The last [capacity] lifecycle events of a machine's typed stream
   (messages and sampler rows skipped), kept in a bounded ring and
   formatted with {!Event.pp} only when the run is over. *)
let attach_tail m ~capacity =
  let ring = Queue.create () in
  Tracer.attach (Ddbm.Machine.enable_events m) (fun ~time ev ->
      match ev with
      | Event.Msg_send _ | Event.Msg_recv _ | Event.Sample _ -> ()
      (* The generic arm keeps every other event, new ones included. *)
      (* lint: allow catch-all-event *)
      | _ ->
          Queue.push (time, ev) ring;
          if Queue.length ring > capacity then ignore (Queue.pop ring));
  fun () ->
    List.of_seq
      (Seq.map
         (fun (time, ev) -> Format.asprintf "t=%.6f %a" time Event.pp ev)
         (Queue.to_seq ring))

(** One fully instrumented run: audit + plan fingerprints, optionally a
    tail of the typed event stream and caller instrumentation (e.g.
    typed-event sinks or the time-series sampler), applied between
    creation and execution. *)
let run_instrumented ?trace_capacity ?instrument params =
  let m = Ddbm.Machine.create params in
  let audit = Ddbm.Machine.enable_audit m in
  Ddbm.Machine.enable_fingerprints m;
  let tail =
    Option.map (fun capacity -> attach_tail m ~capacity) trace_capacity
  in
  Option.iter (fun f -> f m) instrument;
  let result = Ddbm.Machine.execute m in
  ( result,
    audit,
    Ddbm.Machine.workload_fingerprints m,
    match tail with Some lines -> lines () | None -> [] )

(* Prefix agreement of two per-terminal fingerprint streams: the shorter
   run must be a prefix of the longer (the algorithms completed different
   numbers of transactions, but the k-th plan of a terminal is fixed). *)
let rec prefix_mismatch pos a b =
  match (a, b) with
  | [], _ | _, [] -> None
  | x :: a', y :: b' ->
      if x <> y then Some pos else prefix_mismatch (pos + 1) a' b'

(** Audit + invariants + determinism for [params] as given (single
    algorithm). Returns the first run's result and fingerprints for the
    cross-algorithm checks, plus the event tail (when requested) for
    post-mortems either way. [instrument] is applied to *both* runs of
    the determinism check — asymmetric instrumentation (the sampler
    schedules engine events) would make the two runs legitimately
    diverge. *)
let check_algorithm_traced ?trace_capacity ?instrument params :
    (Ddbm.Sim_result.t * int list array, failure) result * string list =
  let r1, audit, prints, trace =
    run_instrumented ?trace_capacity ?instrument params
  in
  let fail kind detail = (Error { params; kind; detail }, trace) in
  match Ddbm.Audit.check audit with
  | Error msg -> fail "audit" msg
  | Ok audited_commits ->
      (* the audit sees every commit since time zero, the metrics window
         only those after warm-up *)
      if audited_commits < r1.Ddbm.Sim_result.commits then
        fail "audit"
          (Printf.sprintf
             "audit saw %d commits but the window recorded %d"
             audited_commits r1.Ddbm.Sim_result.commits)
      else begin
        match Invariants.check r1 with
        | _ :: _ as violations ->
            fail "invariant" (String.concat "\n" violations)
        | [] -> (
            let r2, _, _, _ = run_instrumented ?instrument params in
            match Ddbm.Sim_result.diff r1 r2 with
            | [] -> (Ok (r1, prints), trace)
            | diffs ->
                fail "determinism"
                  ("same seed, different results:\n" ^ String.concat "\n" diffs)
            )
      end

let check_algorithm params = fst (check_algorithm_traced params)

(** Run every algorithm in [algorithms] on [params] (the algorithm field
    of [params] is overridden), checking each in isolation and then the
    cross-algorithm workload agreement. On failure, writes a replay
    artifact into [artifact_dir] (when given) and returns the failure
    along with the artifact path. *)
let check ?(algorithms = Ddbm_cc.Registry.all) ?artifact_dir ?pool params :
    (unit, failure * string option) result =
  let record f =
    let artifact =
      Option.map
        (fun dir ->
          Replay.write ~dir
            { Replay.params = f.params; kind = f.kind; detail = f.detail })
        artifact_dir
    in
    Error (f, artifact)
  in
  (* Serially or over a pool, the per-algorithm outcomes are collected in
     algorithm-list order and the first failure (in that order) wins, so
     the reported failure is independent of job count. The serial path
     still short-circuits on the first failure. *)
  let per_algorithm () =
    match pool with
    | Some pool ->
        let outcomes =
          Par.Pool.map pool
            (fun algorithm ->
              (algorithm, check_algorithm (with_algorithm params algorithm)))
            algorithms
        in
        List.fold_right
          (fun (algorithm, outcome) acc ->
            match outcome with
            | Error f -> Error f
            | Ok (_, prints) ->
                Result.map (fun rest -> (algorithm, prints) :: rest) acc)
          outcomes (Ok [])
    | None ->
        let rec loop acc = function
          | [] -> Ok (List.rev acc)
          | algorithm :: rest -> (
              match check_algorithm (with_algorithm params algorithm) with
              | Error f -> Error f
              | Ok (_, prints) -> loop ((algorithm, prints) :: acc) rest)
        in
        loop [] algorithms
  in
  match per_algorithm () with
  | Error f -> record f
  | Ok [] -> Ok ()
  | Ok ((ref_algorithm, ref_prints) :: others) ->
      let agreement =
        List.find_map
          (fun (algorithm, prints) ->
            if Array.length prints <> Array.length ref_prints then
              Some
                ( algorithm,
                  Printf.sprintf "terminal count differs from %s"
                    (Params.cc_algorithm_name ref_algorithm) )
            else
              Array.to_seq
                (Array.mapi
                   (fun terminal stream ->
                     Option.map
                       (fun pos ->
                         ( algorithm,
                           Printf.sprintf
                             "terminal %d: plan %d differs from %s's (CC \
                              leaked into the workload stream)"
                             terminal pos
                             (Params.cc_algorithm_name ref_algorithm) ))
                       (prefix_mismatch 0 ref_prints.(terminal) stream))
                   prints)
              |> Seq.find_map Fun.id)
          others
      in
      (match agreement with
      | None -> Ok ()
      | Some (algorithm, detail) ->
          record { params = with_algorithm params algorithm; kind = "agreement"; detail })

(* --- sweep --------------------------------------------------------- *)

(* The sweep parallelizes across *configurations*, one whole [check] per
   pool task (each already runs every algorithm twice — plenty of work
   per task), so [check] below must not itself receive the pool: a
   nested parallel map would be rejected by [Par.Pool]. *)
let sweep ?(configs = 50) ?(gen_seed = 0xC0DE) ?artifact_dir pool :
    (int, failure * string option) result =
  (* Deterministic workload generation: the same (configs, gen_seed)
     always yields the same parameter points, independent of job count.
     The ambient-RNG lint rule targets simulation code; here the state
     is explicitly seeded and local. *)
  let rand = Random.State.make [| gen_seed |] (* lint: allow ambient *) in
  let points =
    List.init configs (fun _ -> QCheck.Gen.generate1 ~rand Config_gen.gen)
  in
  let outcomes =
    Par.Pool.map pool (fun params -> check ?artifact_dir params) points
  in
  (* first failure in generation order wins, independent of job count *)
  List.fold_right
    (fun outcome acc ->
      match outcome with
      | Error _ as e -> e
      | Ok () -> Result.map (fun n -> n + 1) acc)
    outcomes (Ok 0)

(* --- replay -------------------------------------------------------- *)

type replay_outcome = {
  artifact : Replay.artifact;
  reproduced : failure option;  (** [None]: the run is clean now *)
  result : Ddbm.Sim_result.t option;
      (** measured result of the (first) replayed run, when it completed *)
  trace_tail : string list;  (** last traced events of the failing run *)
}

(** Load an artifact and re-execute its (seed, params, algorithm) with
    audit, invariants, determinism check and an event tail attached.
    The fault plan — chaos switches included — rides in the artifact's
    parameters, so [Machine.create] re-applies it; nothing needs
    resetting afterwards. [instrument] is applied to every machine (see
    {!check_algorithm_traced}). *)
let replay_file ?(trace_capacity = 5_000) ?instrument path :
    (replay_outcome, string) result =
  match Replay.load path with
  | Error msg -> Error msg
  | Ok artifact -> (
      match
        check_algorithm_traced ~trace_capacity ?instrument
          artifact.Replay.params
      with
      | exception Invalid_argument msg -> Error msg
      | outcome, trace_tail ->
          Ok
            (match outcome with
            | Ok (result, _) ->
                {
                  artifact;
                  reproduced = None;
                  result = Some result;
                  trace_tail = [];
                }
            | Error f ->
                { artifact; reproduced = Some f; result = None; trace_tail }))
