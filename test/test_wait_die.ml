(* Wait-die tests: die decisions by seniority and the no-deadlock
   guarantee. *)

open Desim
open Ddbm_cc
open Ddbm_model

let mk () =
  let h = Cc_harness.make () in
  (h, Locking.make Params.Wait_die h.Cc_harness.hooks)

let spawn_status h f =
  let state = ref `Waiting in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        f ();
        state := `Granted
      with
      | Txn.Aborted Txn.Died -> state := `Died
      | Txn.Aborted _ -> state := `Rejected);
  state

let test_younger_requester_dies () =
  let h, cc = mk () in
  let old_txn = Cc_harness.txn h ~tid:0 ~time:0. () in
  let young_txn = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read old_txn p;
      cc.Cc_intf.cc_write old_txn p));
  Cc_harness.settle h;
  let s = spawn_status h (fun () -> cc.Cc_intf.cc_read young_txn p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "younger dies immediately" true (!s = `Died)

let test_older_requester_waits () =
  let h, cc = mk () in
  let old_txn = Cc_harness.txn h ~tid:0 ~time:0. () in
  let young_txn = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read young_txn p;
      cc.Cc_intf.cc_write young_txn p));
  Cc_harness.settle h;
  let s = spawn_status h (fun () -> cc.Cc_intf.cc_read old_txn p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "older waits" true (!s = `Waiting);
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_commit young_txn);
  Cc_harness.settle h;
  Alcotest.(check bool) "older granted after commit" true (!s = `Granted)

let test_no_abort_requests_issued () =
  (* wait-die aborts are always self-inflicted: request_abort is unused *)
  let h, cc = mk () in
  let old_txn = Cc_harness.txn h ~tid:0 ~time:0. () in
  let young_txn = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read old_txn p;
      cc.Cc_intf.cc_write old_txn p));
  Cc_harness.settle h;
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read young_txn p));
  Cc_harness.settle h;
  Alcotest.(check bool) "no remote aborts" true
    (Cc_harness.requested_aborts h = [])

let test_die_against_queued_older () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let p = Cc_harness.page 1 in
  (* t1 holds X; t0 (older) waits; t2 (youngest) must die because t0 and
     t1 are both older and in its way *)
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read t1 p;
      cc.Cc_intf.cc_write t1 p));
  Cc_harness.settle h;
  let s0 = spawn_status h (fun () -> cc.Cc_intf.cc_read t0 p) in
  Cc_harness.settle h;
  let s2 = spawn_status h (fun () -> cc.Cc_intf.cc_write t2 p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "older waits" true (!s0 = `Waiting);
  Alcotest.(check bool) "youngest dies" true (!s2 = `Died)

let suite =
  [
    Alcotest.test_case "younger requester dies" `Quick
      test_younger_requester_dies;
    Alcotest.test_case "older requester waits" `Quick test_older_requester_waits;
    Alcotest.test_case "no remote abort requests" `Quick
      test_no_abort_requests_issued;
    Alcotest.test_case "die against queued older" `Quick
      test_die_against_queued_older;
  ]
