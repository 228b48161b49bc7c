(* Dedicated mailbox suite: FIFO discipline under interleaving, waiter
   queueing order, try_recv/length bookkeeping, and send-before-spawn
   buffering. Complements the smoke tests in test_sync.ml. *)

open Desim

let test_buffered_before_any_receiver () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  (* sends happen outside any process, before a receiver exists *)
  Mailbox.send mb 1;
  Mailbox.send mb 2;
  Alcotest.(check int) "buffered" 2 (Mailbox.length mb);
  let got = ref [] in
  Engine.spawn eng (fun () ->
      got := Mailbox.recv mb :: !got;
      got := Mailbox.recv mb :: !got);
  Engine.run eng;
  Alcotest.(check (list int)) "delivered in order" [ 1; 2 ] (List.rev !got);
  Alcotest.(check int) "drained" 0 (Mailbox.length mb)

let test_fifo_across_many_sends () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let n = 100 in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to n do
        got := Mailbox.recv mb :: !got
      done);
  Engine.spawn eng (fun () ->
      for i = 1 to n do
        if i mod 7 = 0 then Engine.wait 0.5;
        Mailbox.send mb i
      done);
  Engine.run eng;
  Alcotest.(check (list int))
    "all messages, in send order"
    (List.init n (fun i -> i + 1))
    (List.rev !got)

let test_waiters_served_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let served = ref [] in
  (* receivers 0..3 start waiting at times 0,1,2,3 *)
  for i = 0 to 3 do
    Engine.spawn eng (fun () ->
        Engine.wait (float_of_int i);
        let v = Mailbox.recv mb in
        served := (i, v) :: !served)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait 10.;
      for v = 0 to 3 do
        Mailbox.send mb v
      done);
  Engine.run eng;
  (* the longest-waiting receiver gets the first message *)
  Alcotest.(check (list (pair int int)))
    "longest waiter first"
    [ (0, 0); (1, 1); (2, 2); (3, 3) ]
    (List.sort
       (fun (a, b) (c, d) ->
         match Int.compare a c with 0 -> Int.compare b d | n -> n)
       !served)

let test_try_recv_does_not_steal_from_waiter () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref None in
  let seen = ref (-1, Some 0) in
  Engine.spawn eng (fun () -> got := Some (Mailbox.recv mb));
  Engine.spawn eng (fun () ->
      Engine.wait 1.;
      Mailbox.send mb 42;
      (* the woken receiver has not run yet, but the message is its *)
      seen := (Mailbox.length mb, Mailbox.try_recv mb));
  Engine.run eng;
  Alcotest.(check (pair int (option int)))
    "a handed message is not queued" (0, None) !seen;
  Alcotest.(check (option int)) "waiter was woken" (Some 42) !got;
  Alcotest.(check (option int)) "nothing left over" None (Mailbox.try_recv mb)

let test_length_counts_only_undelivered () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let lengths = ref [] in
  Engine.spawn eng (fun () ->
      Mailbox.send mb "a";
      lengths := Mailbox.length mb :: !lengths;
      Mailbox.send mb "b";
      lengths := Mailbox.length mb :: !lengths;
      ignore (Mailbox.recv mb);
      lengths := Mailbox.length mb :: !lengths);
  Engine.run eng;
  Alcotest.(check (list int)) "length after each op" [ 1; 2; 1 ]
    (List.rev !lengths)

let test_interleaved_send_recv_conserves_messages () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let sent = ref 0 and received = ref 0 in
  for sender = 0 to 2 do
    Engine.spawn eng (fun () ->
        for i = 0 to 9 do
          Engine.wait (0.1 +. (0.05 *. float_of_int sender));
          Mailbox.send mb ((sender * 10) + i);
          incr sent
        done)
  done;
  Engine.spawn eng (fun () ->
      for _ = 1 to 30 do
        ignore (Mailbox.recv mb);
        incr received
      done);
  Engine.run eng;
  Alcotest.(check int) "sent all" 30 !sent;
  Alcotest.(check int) "received all" 30 !received;
  Alcotest.(check int) "queue empty" 0 (Mailbox.length mb)

(* A message and a receive timeout due at the same instant: whichever was
   queued first fires first. A timeout first leaves the message queued
   for the next receiver; a message first is delivered and the timer
   finds the cell served. *)
let test_message_and_timeout_tie () =
  let run ~message_first =
    let eng = Engine.create () in
    let mb = Mailbox.create () in
    let got = ref (Some (-1)) in
    let send () = Mailbox.send mb 7 in
    if message_first then ignore (Engine.schedule eng ~at:1. send);
    Engine.spawn eng (fun () ->
        got := Mailbox.recv_timeout mb eng ~timeout:1.);
    Engine.run ~until:0.5 eng;
    if not message_first then ignore (Engine.schedule eng ~at:1. send);
    Engine.run eng;
    (!got, Mailbox.length mb, Engine.now eng)
  in
  let check name (got, len, time) (got', len') =
    Alcotest.(check (option int)) (name ^ ": received") got' got;
    Alcotest.(check int) (name ^ ": queued") len' len;
    Alcotest.(check (float 0.)) (name ^ ": at the tie") 1. time
  in
  check "message first" (run ~message_first:true) (Some 7, 0);
  check "timeout first" (run ~message_first:false) (None, 1)

(* A timed receive served before its deadline cancels its timer: the run
   ends at the message, and its events are the spawn, the send and the
   resumption, with no timer among them. *)
let test_served_receive_leaves_no_timer () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref None in
  Engine.spawn eng (fun () -> got := Mailbox.recv_timeout mb eng ~timeout:100.);
  ignore (Engine.schedule eng ~at:1. (fun () -> Mailbox.send mb 7));
  Engine.run eng;
  Alcotest.(check (option int)) "received" (Some 7) !got;
  Alcotest.(check (float 0.)) "the run ends at the message" 1. (Engine.now eng);
  Alcotest.(check int) "no timer fired" 3 (Engine.events_processed eng)

(* Plain and timed receivers queue in one FIFO; a timed one that has
   expired is skipped, and the next message goes to the receiver after
   it. *)
let test_mixed_receivers_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let served = ref [] in
  let note name v = served := (name, v) :: !served in
  let receiver name ~at recv =
    Engine.spawn eng (fun () ->
        Engine.wait at;
        note name (recv ()))
  in
  let plain () = Some (Mailbox.recv mb) in
  let timed timeout () = Mailbox.recv_timeout mb eng ~timeout in
  receiver "plain-a" ~at:0. plain;
  receiver "timed-b" ~at:1. (timed 100.);
  receiver "timed-c" ~at:2. (timed 0.5);
  receiver "plain-d" ~at:3. plain;
  receiver "timed-e" ~at:4. (timed 100.);
  Engine.spawn eng (fun () ->
      Engine.wait 10.;
      for v = 1 to 5 do
        Mailbox.send mb v
      done);
  Engine.run eng;
  Alcotest.(check (list (pair string (option int))))
    "served in arrival order, the expired one skipped"
    [
      ("timed-c", None);
      ("plain-a", Some 1);
      ("timed-b", Some 2);
      ("plain-d", Some 3);
      ("timed-e", Some 4);
    ]
    (List.rev !served);
  Alcotest.(check int) "the last message queued" 1 (Mailbox.length mb);
  Alcotest.(check (option int)) "and taken" (Some 5) (Mailbox.try_recv mb)

let suite =
  [
    Alcotest.test_case "buffered before any receiver" `Quick
      test_buffered_before_any_receiver;
    Alcotest.test_case "fifo across many sends" `Quick
      test_fifo_across_many_sends;
    Alcotest.test_case "waiters served fifo" `Quick test_waiters_served_fifo;
    Alcotest.test_case "try_recv does not steal from a waiter" `Quick
      test_try_recv_does_not_steal_from_waiter;
    Alcotest.test_case "length counts only undelivered" `Quick
      test_length_counts_only_undelivered;
    Alcotest.test_case "interleaved senders conserve messages" `Quick
      test_interleaved_send_recv_conserves_messages;
    Alcotest.test_case "message and timeout at the same instant" `Quick
      test_message_and_timeout_tie;
    Alcotest.test_case "a served timed receive leaves no timer queued" `Quick
      test_served_receive_leaves_no_timer;
    Alcotest.test_case "plain and timed receivers served fifo" `Quick
      test_mixed_receivers_fifo;
  ]
