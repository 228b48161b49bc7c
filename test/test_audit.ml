(* Serializability auditor tests: unit tests of the multiversion
   serialization graph checker, then whole-machine audits proving that
   every concurrency control algorithm produces serializable histories
   under heavy contention. *)

open Ddbm_model

let page i = Ids.Page.make ~file:0 ~index:i

(* --- checker unit tests ------------------------------------------- *)

(* Hand-built histories fed to the sink as the machine's events: the
   attempt is always 1, and the sink ignores the time. *)
let feed a ev = Ddbm.Audit.sink a ~time:0. ev
let read a tid i = feed a (Event.Page_read { tid; attempt = 1; page = page i })

let install a tid i =
  feed a (Event.Page_installed { tid; attempt = 1; page = page i })

let commit a tid =
  feed a (Event.Committed { tid; attempt = 1; response = 0. })

let abort a tid =
  feed a (Event.Aborted { tid; attempt = 1; reason = Txn.Peer_abort })

let test_serial_history_ok () =
  let a = Ddbm.Audit.create () in
  (* T0: read p(v0), install p(v1); then T1: read p(v1), install p(v2) *)
  read a 0 0;
  install a 0 0;
  commit a 0;
  read a 1 0;
  install a 1 0;
  commit a 1;
  match Ddbm.Audit.check a with
  | Ok n -> Alcotest.(check int) "2 committed" 2 n
  | Error msg -> Alcotest.fail msg

let test_lost_update_detected () =
  let a = Ddbm.Audit.create () in
  (* classic lost update: both read version 0 of p, both install *)
  read a 0 0;
  read a 1 0;
  install a 0 0;
  commit a 0;
  install a 1 0;
  commit a 1;
  (* T0 -> T1 (ww, wr chain) and T1 -> T0 (rw: T1 read v0, T0 wrote v1) *)
  match Ddbm.Audit.check a with
  | Ok _ -> Alcotest.fail "lost update not detected"
  | Error _ -> ()

let test_write_skew_detected () =
  let a = Ddbm.Audit.create () in
  (* write skew: T0 reads q and writes p; T1 reads p and writes q,
     both reading version 0 *)
  read a 0 1;
  read a 1 0;
  install a 0 0;
  install a 1 1;
  commit a 0;
  commit a 1;
  match Ddbm.Audit.check a with
  | Ok _ -> Alcotest.fail "write skew not detected"
  | Error _ -> ()

let test_aborted_txn_ignored () =
  let a = Ddbm.Audit.create () in
  (* the conflicting reader aborts: history is serializable *)
  read a 0 0;
  read a 1 0;
  abort a 1;
  install a 0 0;
  commit a 0;
  match Ddbm.Audit.check a with
  | Ok n -> Alcotest.(check int) "1 committed" 1 n
  | Error msg -> Alcotest.fail msg

let test_disjoint_pages_ok () =
  let a = Ddbm.Audit.create () in
  for i = 0 to 2 do
    read a i i;
    install a i i;
    commit a i
  done;
  match Ddbm.Audit.check a with
  | Ok n -> Alcotest.(check int) "3 committed" 3 n
  | Error msg -> Alcotest.fail msg

(* --- whole-machine audits ------------------------------------------ *)

let audited_run algorithm =
  let d = Params.default in
  let params =
    {
      Params.database =
        { d.Params.database with Params.num_proc_nodes = 4;
          partitioning_degree = 4; file_size = 50 };
      workload =
        { d.Params.workload with Params.think_time = 0.; num_terminals = 48 };
      resources = d.Params.resources;
      cc = { d.Params.cc with Params.algorithm };
      run =
        { Params.seed = 21; warmup = 0.; measure = 60.;
          restart_delay_floor = 0.5; fresh_restart_plan = false };
      durability = Params.default_durability;
      faults = Fault_plan.zero;
      arrivals = Arrival.zero;
    }
  in
  let machine = Ddbm.Machine.create params in
  let audit = Ddbm.Machine.enable_audit machine in
  let result = Ddbm.Machine.execute machine in
  (audit, result)

let test_machine_serializable algorithm () =
  let audit, result = audited_run algorithm in
  Alcotest.(check bool) "contention exercised" true
    (result.Ddbm.Sim_result.commits > 50);
  (* the hot 50-page files guarantee real conflicts for the CC scheme *)
  (match algorithm with
  | Params.Twopl | Params.Wound_wait | Params.Bto | Params.Opt
  | Params.Wait_die | Params.Twopl_defer | Params.O2pl ->
      Alcotest.(check bool) "conflicts occurred" true
        (result.Ddbm.Sim_result.aborts > 0
        || result.Ddbm.Sim_result.blocked_requests > 0)
  | Params.No_dc -> ());
  match Ddbm.Audit.check audit with
  | Ok n ->
      Alcotest.(check bool) "audited all commits" true
        (n >= result.Ddbm.Sim_result.commits)
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "serial history ok" `Quick test_serial_history_ok;
    Alcotest.test_case "lost update detected" `Quick test_lost_update_detected;
    Alcotest.test_case "write skew detected" `Quick test_write_skew_detected;
    Alcotest.test_case "aborted txn ignored" `Quick test_aborted_txn_ignored;
    Alcotest.test_case "disjoint pages ok" `Quick test_disjoint_pages_ok;
    Alcotest.test_case "2PL history serializable" `Slow
      (test_machine_serializable Params.Twopl);
    Alcotest.test_case "WW history serializable" `Slow
      (test_machine_serializable Params.Wound_wait);
    Alcotest.test_case "BTO history serializable" `Slow
      (test_machine_serializable Params.Bto);
    Alcotest.test_case "OPT history serializable" `Slow
      (test_machine_serializable Params.Opt);
    Alcotest.test_case "WD history serializable" `Slow
      (test_machine_serializable Params.Wait_die);
    Alcotest.test_case "2PL-D history serializable" `Slow
      (test_machine_serializable Params.Twopl_defer);
  ]
