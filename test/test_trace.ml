(* Lifecycle records on the typed event stream: a wound-wait run shows
   wounds, aborts and commits, and the conformance replay tail keeps the
   last lifecycle events in a bounded ring. *)

open Ddbm_model

let wound_wait_params =
  let d = Params.default in
  {
    Params.database =
      { d.Params.database with Params.num_proc_nodes = 4;
        partitioning_degree = 4; file_size = 60 };
    workload =
      { d.Params.workload with Params.think_time = 0.; num_terminals = 32 };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm = Params.Wound_wait };
    run =
      { Params.seed = 4; warmup = 0.; measure = 30.;
        restart_delay_floor = 0.5; fresh_restart_plan = false };
    durability = Params.default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

let test_machine_trace () =
  let m = Ddbm.Machine.create wound_wait_params in
  let wounds = ref 0 and aborted = ref 0 and committed = ref 0 in
  Tracer.attach (Ddbm.Machine.enable_events m) (fun ~time:_ ev ->
      match ev with
      | Event.Wound _ -> incr wounds
      | Event.Aborted _ -> incr aborted
      | Event.Committed _ -> incr committed
      | _ -> ());
  let r = Ddbm.Machine.execute m in
  Alcotest.(check bool) "wound events present" true (!wounds > 0);
  Alcotest.(check bool) "aborted events present" true (!aborted > 0);
  Alcotest.(check bool) "committed events cover the window's commits" true
    (!committed >= r.Ddbm.Sim_result.commits)

let tail_of params ~capacity =
  let _, _, _, tail =
    Ddbm_check.Conformance.run_instrumented ~trace_capacity:capacity params
  in
  tail

let test_ring_bounded () =
  let tail = tail_of wound_wait_params ~capacity:50 in
  Alcotest.(check int) "ring keeps the last 50 events" 50 (List.length tail);
  Alcotest.(check bool) "messages are skipped" false
    (List.exists (fun line -> Astring_contains.contains line " msg-") tail);
  let _, _, _, untraced =
    Ddbm_check.Conformance.run_instrumented wound_wait_params
  in
  Alcotest.(check (list string)) "no capacity, no tail" [] untraced

let test_format () =
  (* the tail is the last lifecycle events of the same run, each one
     rendered as "t=<time> " followed by Event.pp *)
  let m = Ddbm.Machine.create wound_wait_params in
  let seen = ref [] in
  Tracer.attach (Ddbm.Machine.enable_events m) (fun ~time ev ->
      match ev with
      | Event.Msg_send _ | Event.Msg_recv _ | Event.Sample _ -> ()
      | _ -> seen := Format.asprintf "t=%.6f %a" time Event.pp ev :: !seen);
  ignore (Ddbm.Machine.execute m : Ddbm.Sim_result.t);
  let expected = List.rev (List.filteri (fun i _ -> i < 20) !seen) in
  Alcotest.(check (list string)) "tail = last 20 formatted events" expected
    (tail_of wound_wait_params ~capacity:20)

let suite =
  [
    Alcotest.test_case "ring bounded" `Slow test_ring_bounded;
    Alcotest.test_case "format" `Slow test_format;
    Alcotest.test_case "machine trace" `Slow test_machine_trace;
  ]
