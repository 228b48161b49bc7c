(* Dedicated mailbox suite: FIFO discipline under interleaving, the
   single-reader contract, timed receives against messages due at the
   same instant, and send-before-spawn buffering. Complements the smoke
   tests in test_sync.ml. *)

open Desim

(* The messages still queued, in order: a process takes them with
   zero-time receives, each of which times out at once on an empty
   mailbox. Runs the engine to the end. *)
let queued eng mb =
  let left = ref [] in
  Engine.spawn eng (fun () ->
      let rec take () =
        match Mailbox.recv_timeout mb eng ~timeout:0. with
        | Some m ->
            left := m :: !left;
            take ()
        | None -> ()
      in
      take ());
  Engine.run eng;
  List.rev !left

let test_buffered_before_any_receiver () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  (* sends happen outside any process, before a receiver exists *)
  Mailbox.send mb 1;
  Mailbox.send mb 2;
  let got = ref [] in
  Engine.spawn eng (fun () ->
      got := Mailbox.recv mb :: !got;
      got := Mailbox.recv mb :: !got);
  Engine.run eng;
  Alcotest.(check (list int)) "delivered in order" [ 1; 2 ] (List.rev !got);
  Alcotest.(check (list int)) "drained" [] (queued eng mb)

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

(* A receive takes the oldest message and leaves the rest queued. *)
let test_length_counts_only_undelivered () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref "" in
  Engine.spawn eng (fun () ->
      Mailbox.send mb "a";
      Mailbox.send mb "b";
      got := Mailbox.recv mb;
      Mailbox.send mb "c");
  Engine.run eng;
  Alcotest.(check string) "the oldest taken" "a" !got;
  Alcotest.(check (list string)) "the rest queued" [ "b"; "c" ] (queued eng mb)

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
  Alcotest.(check (list int)) "queue empty" [] (queued eng mb)

(* A message and a receive timeout due at the same instant: whichever was
   queued first fires first. A timeout first leaves the message queued
   for the next receive; a message first is delivered and the timer
   finds the reader already woken. *)
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
    let time = Engine.now eng in
    (!got, List.length (queued eng mb), time)
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

(* One reader at a time: a second receive, plain or timed, while the
   first is blocked, or woken and not yet resumed, raises. *)
let test_second_receiver_raises () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref None in
  let raised = ref [] in
  let second name recv =
    Engine.spawn eng (fun () ->
        match recv () with
        | (_ : int option) -> ()
        | exception Invalid_argument _ -> raised := name :: !raised)
  in
  Engine.spawn eng (fun () -> got := Some (Mailbox.recv mb));
  second "recv, blocked" (fun () -> Some (Mailbox.recv mb));
  second "recv_timeout, blocked" (fun () ->
      Mailbox.recv_timeout mb eng ~timeout:1.);
  ignore (Engine.schedule eng ~at:2. (fun () -> Mailbox.send mb 5));
  (* resumed at the send's instant after it and before the woken reader,
     which joins the back of the same-time lane *)
  second "recv, woken" (fun () ->
      Engine.wait 2.;
      Some (Mailbox.recv mb));
  Engine.run eng;
  Alcotest.(check (list string))
    "every second receive raised"
    [ "recv, blocked"; "recv_timeout, blocked"; "recv, woken" ]
    (List.rev !raised);
  Alcotest.(check (option int)) "the reader got the message" (Some 5) !got

(* Three timed receives in a row, each due at the instant of a message
   queued before its timer: each send wakes the reader, the re-armed
   timer fires before the reader resumes and does nothing, and every
   receive gets its message. The events are the spawn and, per receive,
   the send, the timer and the resumption. *)
let test_tie_still_gives_message () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.schedule eng ~at:(float_of_int i) (fun () -> Mailbox.send mb i)
        : Engine.handle)
  done;
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv_timeout mb eng ~timeout:1. :: !got
      done);
  Engine.run eng;
  Alcotest.(check (list (option int)))
    "every message" [ Some 1; Some 2; Some 3 ] (List.rev !got);
  Alcotest.(check int) "each timer fired in between" 10
    (Engine.events_processed eng);
  Alcotest.(check (list int)) "nothing left" [] (queued eng mb)

(* A timed-out receive consumes nothing: the next receive, plain or
   timed, gets the next message. *)
let test_receive_after_timeout () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  let note at v = got := (at, v) :: !got in
  Engine.spawn eng (fun () ->
      note (Engine.now eng) (Mailbox.recv_timeout mb eng ~timeout:1.);
      note (Engine.now eng) (Some (Mailbox.recv mb));
      note (Engine.now eng) (Mailbox.recv_timeout mb eng ~timeout:1.);
      note (Engine.now eng) (Mailbox.recv_timeout mb eng ~timeout:5.));
  ignore (Engine.schedule eng ~at:2. (fun () -> Mailbox.send mb 1));
  ignore (Engine.schedule eng ~at:5. (fun () -> Mailbox.send mb 2));
  Engine.run eng;
  Alcotest.(check (list (pair (float 0.) (option int))))
    "timed out, then each message in turn"
    [ (1., None); (2., Some 1); (3., None); (5., Some 2) ]
    (List.rev !got)

(* 1,000 timed receives, each served before its deadline: the run ends
   at the last message, so no timer is left queued, no timer fires, and
   the receives allocate no more than as many plain ones do but for the
   option of each result, so the one timer is re-armed rather than built
   again. *)
let test_timed_receives_reuse_one_timer () =
  let n = 1_000 in
  let run recv =
    let eng = Engine.create () in
    let mb = Mailbox.create () in
    for i = 1 to n do
      ignore
        (Engine.schedule eng ~at:(float_of_int i) (fun () -> Mailbox.send mb i)
          : Engine.handle)
    done;
    let sum = ref 0 in
    Engine.spawn eng (fun () ->
        for _ = 1 to n do
          sum := !sum + recv eng mb
        done);
    let w0 = Gc.minor_words () in
    Engine.run eng;
    let words = Gc.minor_words () -. w0 in
    Alcotest.(check int) "every message received" (n * (n + 1) / 2) !sum;
    Alcotest.(check (float 0.))
      "the run ends at the last message" (float_of_int n) (Engine.now eng);
    Alcotest.(check int) "no timer fired" ((2 * n) + 1)
      (Engine.events_processed eng);
    words
  in
  let timed =
    run (fun eng mb ->
        match Mailbox.recv_timeout mb eng ~timeout:10. with
        | Some v -> v
        | None -> Alcotest.fail "a served receive timed out")
  in
  let plain = run (fun _ mb -> Mailbox.recv mb) in
  (* a timed receive returns its message in a [Some], 2 words *)
  if timed > plain +. (2.5 *. float_of_int n) then
    Alcotest.failf "timed receives allocate %.0f words, plain ones %.0f" timed
      plain

let suite =
  [
    Alcotest.test_case "buffered before any receiver" `Quick
      test_buffered_before_any_receiver;
    Alcotest.test_case "fifo across many sends" `Quick
      test_fifo_across_many_sends;
    Alcotest.test_case "length counts only undelivered" `Quick
      test_length_counts_only_undelivered;
    Alcotest.test_case "interleaved senders conserve messages" `Quick
      test_interleaved_send_recv_conserves_messages;
    Alcotest.test_case "message and timeout at the same instant" `Quick
      test_message_and_timeout_tie;
    Alcotest.test_case "a served timed receive leaves no timer queued" `Quick
      test_served_receive_leaves_no_timer;
    Alcotest.test_case "a second concurrent receive raises" `Quick
      test_second_receiver_raises;
    Alcotest.test_case "a message due with the timeout is still received"
      `Quick test_tie_still_gives_message;
    Alcotest.test_case "a receive after a timed-out receive gets the next"
      `Quick test_receive_after_timeout;
    Alcotest.test_case "1,000 served timed receives re-arm one timer" `Quick
      test_timed_receives_reuse_one_timer;
  ]
