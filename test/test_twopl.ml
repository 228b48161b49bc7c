(* 2PL node-manager tests: blocking, release on commit/abort, block-time
   local deadlock detection with youngest-victim selection (for O2PL too,
   which shares the manager); and the registry table that routes the
   lock-based algorithms to {!Locking}. *)

open Desim
open Ddbm_cc
open Ddbm_model

let mk ?(algorithm = Params.Twopl) () =
  let h = Cc_harness.make () in
  (h, Locking.make algorithm h.Cc_harness.hooks)

let spawn_status h f =
  let state = ref `Waiting in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        f ();
        state := `Granted
      with Txn.Aborted _ -> state := `Rejected);
  state

let test_write_conflict_blocks_until_commit () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  let s0 = spawn_status h (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p)
  in
  Cc_harness.settle h;
  let s1 = spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "writer granted" true (!s0 = `Granted);
  Alcotest.(check bool) "reader blocked" true (!s1 = `Waiting);
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_commit t0);
  Cc_harness.settle h;
  Alcotest.(check bool) "reader granted after commit" true (!s1 = `Granted)

let test_readers_share () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  let s0 = spawn_status h (fun () -> cc.Cc_intf.cc_read t0 p) in
  let s1 = spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "both read" true (!s0 = `Granted && !s1 = `Granted);
  Alcotest.(check bool) "no aborts requested" true
    (Cc_harness.requested_aborts h = [])

let test_local_deadlock_detected algorithm () =
  let h, cc = mk ~algorithm () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 and q = Cc_harness.page 2 in
  (* t0 writes p, t1 writes q, then each requests the other's page *)
  let s0 = spawn_status h (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p;
      Engine.wait 1.;
      cc.Cc_intf.cc_read t0 q)
  in
  let s1 = spawn_status h (fun () ->
      cc.Cc_intf.cc_read t1 q;
      cc.Cc_intf.cc_write t1 q;
      Engine.wait 1.;
      cc.Cc_intf.cc_read t1 p)
  in
  Cc_harness.settle h;
  (* deadlock: the youngest (t1) must have been victimized *)
  Alcotest.(check bool) "victim requested" true
    (Cc_harness.abort_requested_for h t1);
  Alcotest.(check bool) "older not victimized" false
    (Cc_harness.abort_requested_for h t0);
  (* simulate the coordinator abort: t1's blocked request is rejected and
     t0 unblocks *)
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_abort t1);
  Cc_harness.settle h;
  Alcotest.(check bool) "t1 rejected" true (!s1 = `Rejected);
  Alcotest.(check bool) "t0 proceeds" true (!s0 = `Granted)

let test_no_false_deadlock () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p));
  Cc_harness.settle h;
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p));
  Cc_harness.settle h;
  (* a plain wait is not a deadlock *)
  Alcotest.(check bool) "no abort requested" true
    (Cc_harness.requested_aborts h = []);
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_commit t0);
  Cc_harness.settle h

let test_abort_is_idempotent () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t0 p));
  Cc_harness.settle h;
  Engine.spawn h.Cc_harness.eng (fun () ->
      cc.Cc_intf.cc_abort t0;
      cc.Cc_intf.cc_abort t0;
      (* and for a transaction with no footprint at all *)
      let t9 = Cc_harness.txn h ~tid:9 ~time:9. () in
      cc.Cc_intf.cc_abort t9);
  Cc_harness.settle h

let test_prepare_votes () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  Alcotest.(check bool) "healthy txn votes yes" true (cc.Cc_intf.cc_prepare t0);
  t0.Txn.doomed <- true;
  Alcotest.(check bool) "doomed txn votes no" false (cc.Cc_intf.cc_prepare t0)

let test_conversion_deadlock () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  (* both read p, then both try to convert: a classic upgrade deadlock *)
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t0 p));
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p));
  Cc_harness.settle h;
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_write t0 p));
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_write t1 p));
  Cc_harness.settle h;
  Alcotest.(check bool) "upgrade deadlock victimizes youngest" true
    (Cc_harness.abort_requested_for h t1)

(* Each registered algorithm: whether it is lock-based (built by
   [Locking.make]) and whether it needs Snoop. *)
let registry_table =
  Params.
    [
      (No_dc, false, false);
      (Twopl, true, true);
      (Wound_wait, true, false);
      (Bto, false, false);
      (Opt, false, false);
      (Wait_die, true, false);
      (Twopl_defer, true, true);
      (O2pl, true, true);
    ]

let test_registry_table () =
  Alcotest.(check (list string))
    "table covers Registry.all"
    (List.map Params.cc_algorithm_name Registry.all)
    (List.map (fun (a, _, _) -> Params.cc_algorithm_name a) registry_table);
  List.iter
    (fun (algorithm, lock_based, snoop) ->
      let name = Params.cc_algorithm_name algorithm in
      let h = Cc_harness.make () in
      let cc = Registry.make algorithm h.Cc_harness.hooks in
      Alcotest.(check string)
        (name ^ " manager algorithm")
        name
        (Params.cc_algorithm_name cc.Cc_intf.algorithm);
      let built =
        match Locking.make algorithm h.Cc_harness.hooks with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      Alcotest.(check bool) (name ^ " built by Locking") lock_based built;
      Alcotest.(check bool)
        (name ^ " needs Snoop")
        snoop
        (Locking.needs_snoop algorithm))
    registry_table

let suite =
  [
    Alcotest.test_case "write blocks reader until commit" `Quick
      test_write_conflict_blocks_until_commit;
    Alcotest.test_case "readers share" `Quick test_readers_share;
    Alcotest.test_case "local deadlock detected" `Quick
      (test_local_deadlock_detected Params.Twopl);
    Alcotest.test_case "local deadlock detected (O2PL)" `Quick
      (test_local_deadlock_detected Params.O2pl);
    Alcotest.test_case "no false deadlock" `Quick test_no_false_deadlock;
    Alcotest.test_case "abort idempotent" `Quick test_abort_is_idempotent;
    Alcotest.test_case "prepare votes" `Quick test_prepare_votes;
    Alcotest.test_case "conversion deadlock" `Quick test_conversion_deadlock;
    Alcotest.test_case "registry table" `Quick test_registry_table;
  ]
