(* Wound-wait tests: wound decisions by seniority, second-phase immunity,
   and the no-deadlock guarantee on random conflict patterns. *)

open Desim
open Ddbm_cc
open Ddbm_model

let mk () =
  let h = Cc_harness.make () in
  (h, Locking.make Params.Wound_wait h.Cc_harness.hooks)

let spawn_status h f =
  let state = ref `Waiting in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        f ();
        state := `Granted
      with Txn.Aborted _ -> state := `Rejected);
  state

let test_older_wounds_younger () =
  let h, cc = mk () in
  let old_txn = Cc_harness.txn h ~tid:0 ~time:0. () in
  let young_txn = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read young_txn p;
      cc.Cc_intf.cc_write young_txn p));
  Cc_harness.settle h;
  let s_old = spawn_status h (fun () -> cc.Cc_intf.cc_read old_txn p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "young holder wounded" true
    (Cc_harness.abort_requested_for h young_txn);
  (match Cc_harness.requested_aborts h with
  | [ (_, reason) ] ->
      Alcotest.(check string) "reason" "wounded" (Txn.abort_reason_name reason)
  | _ -> Alcotest.fail "expected exactly one wound");
  (* the old transaction keeps waiting until the victim is gone *)
  Alcotest.(check bool) "old waits" true (!s_old = `Waiting);
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_abort young_txn);
  Cc_harness.settle h;
  Alcotest.(check bool) "old granted after wound completes" true
    (!s_old = `Granted)

let test_younger_waits_quietly () =
  let h, cc = mk () in
  let old_txn = Cc_harness.txn h ~tid:0 ~time:0. () in
  let young_txn = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read old_txn p;
      cc.Cc_intf.cc_write old_txn p));
  Cc_harness.settle h;
  let s_young = spawn_status h (fun () -> cc.Cc_intf.cc_read young_txn p) in
  Cc_harness.settle h;
  Alcotest.(check bool) "no wound issued" true
    (Cc_harness.requested_aborts h = []);
  Alcotest.(check bool) "young waits" true (!s_young = `Waiting);
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_commit old_txn);
  Cc_harness.settle h;
  Alcotest.(check bool) "young granted after commit" true (!s_young = `Granted)

let test_wound_ignored_in_second_phase () =
  let h, cc = mk () in
  let old_txn = Cc_harness.txn h ~tid:0 ~time:0. () in
  let young_txn = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read young_txn p;
      cc.Cc_intf.cc_write young_txn p));
  Cc_harness.settle h;
  (* the younger transaction enters phase two of commit *)
  young_txn.Txn.phase <- Txn.Decided_commit;
  let s_old = spawn_status h (fun () -> cc.Cc_intf.cc_read old_txn p) in
  Cc_harness.settle h;
  (* the harness request_abort honors the second-phase rule *)
  Alcotest.(check bool) "wound not fatal" false young_txn.Txn.doomed;
  Engine.spawn h.Cc_harness.eng (fun () -> cc.Cc_intf.cc_commit young_txn);
  Cc_harness.settle h;
  Alcotest.(check bool) "old granted after young commits" true
    (!s_old = `Granted)

let test_wound_through_waiters () =
  let h, cc = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let p = Cc_harness.page 1 in
  (* t1 holds X; t2 queues an X; then the oldest t0 arrives: both the
     holder t1 and the queued t2 are younger -> both wounded *)
  ignore (spawn_status h (fun () ->
      cc.Cc_intf.cc_read t1 p;
      cc.Cc_intf.cc_write t1 p));
  Cc_harness.settle h;
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_write t2 p));
  Cc_harness.settle h;
  ignore (spawn_status h (fun () -> cc.Cc_intf.cc_read t0 p));
  Cc_harness.settle h;
  Alcotest.(check bool) "holder wounded" true (Cc_harness.abort_requested_for h t1);
  Alcotest.(check bool) "queued younger wounded" true
    (Cc_harness.abort_requested_for h t2)

(* The no-deadlock guarantee: random conflicting workloads always drain
   once wounds are acted upon (here: wounded transactions abort after a
   short delay, mimicking the coordinator's abort protocol). *)
let prop_no_deadlock =
  QCheck.Test.make ~name:"wound-wait never deadlocks" ~count:40
    QCheck.(
      list_of_size
        Gen.(int_range 2 25)
        (triple (int_range 0 7) (int_range 0 4) bool))
    (fun ops ->
      let h, cc = mk () in
      let eng = h.Cc_harness.eng in
      let txns =
        Array.init 8 (fun i ->
            Cc_harness.txn h ~tid:i ~time:(float_of_int i) ())
      in
      let current = Array.copy txns in
      let outstanding = ref 0 in
      let finished = ref 0 in
      (* group ops per transaction to run them in one cohort process *)
      let per_txn = Array.make 8 [] in
      List.iter
        (fun (tid, page_idx, update) ->
          per_txn.(tid) <- (page_idx, update) :: per_txn.(tid))
        ops;
      Array.iteri
        (fun tid accesses ->
          if accesses <> [] then begin
            incr outstanding;
            Engine.spawn eng (fun () ->
                let rec attempt k =
                  if k > 2000 then failwith "livelock in wound-wait test";
                  let me =
                    if k = 1 then txns.(tid)
                    else
                      (* restarted attempt keeps the original startup ts *)
                      {
                        (txns.(tid)) with
                        Txn.attempt = k;
                        doomed = false;
                      }
                  in
                  current.(tid) <- me;
                  try
                    List.iter
                      (fun (page_idx, update) ->
                        if me.Txn.doomed then
                          raise (Txn.Aborted Txn.Peer_abort);
                        cc.Cc_intf.cc_read me (Cc_harness.page page_idx);
                        if update then
                          cc.Cc_intf.cc_write me (Cc_harness.page page_idx);
                        Engine.wait 0.01)
                      accesses;
                    cc.Cc_intf.cc_commit me;
                    incr finished
                  with Txn.Aborted _ ->
                    cc.Cc_intf.cc_abort me;
                    Engine.wait 0.1;
                    attempt (k + 1)
                in
                attempt 1)
          end)
        per_txn;
      (* doom-propagation daemon: abort wounded victims that are blocked *)
      Engine.spawn eng (fun () ->
          for _ = 1 to 100_000 do
            Engine.wait 0.05;
            Array.iter
              (fun (t : Txn.t) -> if t.Txn.doomed then cc.Cc_intf.cc_abort t)
              current
          done);
      Engine.run ~until:3000. eng;
      !finished = !outstanding)

let suite =
  [
    Alcotest.test_case "older wounds younger" `Quick test_older_wounds_younger;
    Alcotest.test_case "younger waits quietly" `Quick test_younger_waits_quietly;
    Alcotest.test_case "wound ignored in 2nd phase" `Quick
      test_wound_ignored_in_second_phase;
    Alcotest.test_case "wound through waiters" `Quick test_wound_through_waiters;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7341 |]) prop_no_deadlock;
  ]
