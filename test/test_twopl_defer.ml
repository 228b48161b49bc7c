(* 2PL with deferred write locks: writes take no lock during execution,
   exclusive locks are acquired inside prepare, conversion deadlocks at
   prepare time victimize the youngest, and cc_installed reports exactly
   the pages locked exclusively. *)

open Desim
open Ddbm_cc
open Ddbm_model

let mk () =
  let h = Cc_harness.make () in
  (h, Locking.make Params.Twopl_defer h.Cc_harness.hooks)

let spawn_status h f =
  let state = ref `Waiting in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        f ();
        state := `Granted
      with Txn.Aborted _ -> state := `Rejected);
  state

let spawn_vote h cc txn =
  let vote = ref None in
  Engine.spawn h.Cc_harness.eng (fun () ->
      vote := Some (cc.Cc_intf.cc_prepare txn));
  vote

let test_write_defers_exclusive_lock () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  (* t0 "writes" p during execution; t1 must still be able to read it *)
  let s0 = spawn_status h (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p)
  in
  Cc_harness.settle h;
  let s1 = spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "writer not blocked" true (!s0 = `Granted);
  Alcotest.(check bool) "reader shares during execution" true (!s1 = `Granted);
  Alcotest.(check int) "no exclusive locks yet" 0
    (List.length (cc.Cc_intf.cc_installed t0))

let test_prepare_acquires_and_installs () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 and q = Cc_harness.page 2 in
  Engine.spawn h.Cc_harness.eng (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p;
      cc.Cc_intf.cc_read t0 q);
  Cc_harness.settle h;
  let vote = spawn_vote h cc t0 in
  Cc_harness.settle h;
  Alcotest.(check (option bool)) "votes yes" (Some true) !vote;
  Alcotest.(check (list (pair int int)))
    "only the written page is exclusive"
    [ (0, 1) ]
    (List.map
       (fun pg -> (Ids.Page.file pg, Ids.Page.index pg))
       (cc.Cc_intf.cc_installed t0))

let test_prepare_blocks_on_reader () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  Engine.spawn h.Cc_harness.eng (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p);
  let s1 = spawn_status h (fun () -> cc.Cc_intf.cc_read t1 p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "reader shares" true (!s1 = `Granted);
  (* now t0 prepares: its S->X conversion must wait for t1 *)
  let vote = spawn_vote h cc t0 in
  Cc_harness.settle h;
  Alcotest.(check (option bool)) "conversion waits" None !vote;
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_commit t1);
  Cc_harness.settle h;
  Alcotest.(check (option bool)) "granted after reader leaves" (Some true) !vote

let test_prepare_conversion_deadlock_victimizes_youngest () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  (* both read-and-write p during execution (no conflict yet), then both
     prepare: a symmetric upgrade deadlock at commit time *)
  Engine.spawn h.Cc_harness.eng (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p);
  Engine.spawn h.Cc_harness.eng (fun () ->
      cc.Cc_intf.cc_read t1 p;
      cc.Cc_intf.cc_write t1 p);
  Cc_harness.settle h;
  Alcotest.(check bool) "execution phase conflict-free" true
    (Cc_harness.requested_aborts h = []);
  let v0 = spawn_vote h cc t0 in
  let v1 = spawn_vote h cc t1 in
  Cc_harness.settle h;
  Alcotest.(check bool) "youngest victimized" true
    (Cc_harness.abort_requested_for h t1);
  Alcotest.(check bool) "oldest spared" false
    (Cc_harness.abort_requested_for h t0);
  (* coordinator aborts the victim; the survivor's prepare completes *)
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_abort t1);
  Cc_harness.settle h;
  Alcotest.(check (option bool)) "survivor votes yes" (Some true) !v0;
  Alcotest.(check (option bool)) "victim votes no" (Some false) !v1

let test_doomed_votes_no_without_locking () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 in
  Engine.spawn h.Cc_harness.eng (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p);
  Cc_harness.settle h;
  t0.Txn.doomed <- true;
  let vote = spawn_vote h cc t0 in
  Cc_harness.settle h;
  Alcotest.(check (option bool)) "doomed votes no" (Some false) !vote;
  Alcotest.(check (list (pair int int))) "nothing installed" []
    (List.map
       (fun pg -> (Ids.Page.file pg, Ids.Page.index pg))
       (cc.Cc_intf.cc_installed t0))

let test_abort_clears_write_set () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~attempt:1 ~time:0. () in
  let p = Cc_harness.page 1 in
  Engine.spawn h.Cc_harness.eng (fun () ->
      cc.Cc_intf.cc_read t0 p;
      cc.Cc_intf.cc_write t0 p;
      cc.Cc_intf.cc_abort t0);
  Cc_harness.settle h;
  (* after the abort a re-prepare must find an empty write set and thus
     take no exclusive locks, leaving the page free for others *)
  let t0' = Cc_harness.txn h ~tid:0 ~attempt:2 ~time:2. () in
  let vote = spawn_vote h cc t0' in
  let t1 = Cc_harness.txn h ~tid:1 ~time:3. () in
  let s1 = spawn_status h (fun () ->
      cc.Cc_intf.cc_read t1 p;
      cc.Cc_intf.cc_write t1 p)
  in
  Cc_harness.settle h;
  Alcotest.(check (option bool)) "fresh attempt votes yes" (Some true) !vote;
  Alcotest.(check bool) "page free for the next txn" true (!s1 = `Granted)

let suite =
  [
    Alcotest.test_case "write defers the exclusive lock" `Quick
      test_write_defers_exclusive_lock;
    Alcotest.test_case "prepare acquires and installs" `Quick
      test_prepare_acquires_and_installs;
    Alcotest.test_case "prepare blocks on a reader" `Quick
      test_prepare_blocks_on_reader;
    Alcotest.test_case "prepare conversion deadlock victimizes youngest"
      `Quick test_prepare_conversion_deadlock_victimizes_youngest;
    Alcotest.test_case "doomed txn votes no without locking" `Quick
      test_doomed_votes_no_without_locking;
    Alcotest.test_case "abort clears the write set" `Quick
      test_abort_clears_write_set;
  ]
