open Desim

let test_schedule_order () =
  let eng = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule eng ~at:2. (fun () -> log := 2 :: !log));
  ignore (Engine.schedule eng ~at:1. (fun () -> log := 1 :: !log));
  ignore (Engine.schedule eng ~at:3. (fun () -> log := 3 :: !log));
  Engine.run eng;
  Alcotest.(check (list int)) "in time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.)) "final time" 3. (Engine.now eng)

let test_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~at:1. (fun () -> log := i :: !log))
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo at equal times" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_cancel () =
  let eng = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule eng ~at:1. (fun () -> fired := true) in
  Engine.cancel eng h;
  Engine.run eng;
  Alcotest.(check bool) "cancelled event does not fire" false !fired

let test_until () =
  let eng = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule eng ~at:10. (fun () -> fired := true));
  Engine.run ~until:5. eng;
  Alcotest.(check bool) "later event pending" false !fired;
  Alcotest.(check (float 0.)) "clock at until" 5. (Engine.now eng);
  Engine.run eng;
  Alcotest.(check bool) "fires on resume" true !fired

(* [until] never moves the clock back, and a NaN [until] runs nothing. *)
let test_until_in_past_rejected () =
  let eng = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule eng ~at:10. (fun () -> fired := true));
  Engine.run ~until:5. eng;
  Alcotest.check_raises "until before now"
    (Invalid_argument "Engine.run: until 3 is in the past (now 5)") (fun () ->
      Engine.run ~until:3. eng);
  Alcotest.check_raises "until NaN" (Invalid_argument "Engine.run: until is NaN")
    (fun () -> Engine.run ~until:nan eng);
  Alcotest.(check (float 0.)) "clock kept" 5. (Engine.now eng);
  Alcotest.check_raises "the past stays past"
    (Invalid_argument "Engine.schedule: at 4 is in the past (now 5)")
    (fun () -> ignore (Engine.schedule eng ~at:4. ignore));
  Engine.run ~until:5. eng;
  Alcotest.(check bool) "nothing fired" false !fired;
  Engine.run eng;
  Alcotest.(check bool) "fires on resume" true !fired

let test_process_wait () =
  let eng = Engine.create () in
  let times = ref [] in
  Engine.spawn eng (fun () ->
      times := Engine.now eng :: !times;
      Engine.wait 1.5;
      times := Engine.now eng :: !times;
      Engine.wait 2.5;
      times := Engine.now eng :: !times);
  Engine.run eng;
  Alcotest.(check (list (float 1e-9))) "wait advances time" [ 0.; 1.5; 4. ]
    (List.rev !times)

(* A resolver carries no value: the value travels beside it, here through
   a ref written before the resolve. *)
let test_suspend_resolve () =
  let eng = Engine.create () in
  let slot = ref None in
  let value = ref 0 in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun r -> slot := Some r);
      got := !value);
  ignore
    (Engine.schedule eng ~at:7. (fun () ->
         match !slot with
         | Some r ->
             value := 42;
             Engine.resolve r
         | None -> Alcotest.fail "resolver not registered"));
  Engine.run eng;
  Alcotest.(check int) "resolved value" 42 !got;
  Alcotest.(check (float 0.)) "resumed at resolver time" 7. (Engine.now eng)

exception Test_abort

let test_suspend_reject () =
  let eng = Engine.create () in
  let slot = ref None in
  let caught = ref false in
  Engine.spawn eng (fun () ->
      try Engine.suspend (fun r -> slot := Some r)
      with Test_abort -> caught := true);
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         match !slot with
         | Some r -> Engine.reject r Test_abort
         | None -> ()));
  Engine.run eng;
  Alcotest.(check bool) "rejection raised in process" true !caught

let test_resolver_single_use () =
  let eng = Engine.create () in
  let slot = ref None in
  Engine.spawn eng (fun () -> Engine.suspend (fun r -> slot := Some r));
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         match !slot with
         | Some r ->
             Engine.resolve r;
             Alcotest.check_raises "second use rejected"
               (Invalid_argument "Engine: resolver used twice") (fun () ->
                 Engine.resolve r)
         | None -> ()));
  Engine.run eng

(* A resolver of a block the process has left stays used: resolving it
   again raises and does not wake the process's current block. *)
let test_stale_resolver () =
  let eng = Engine.create () in
  let first = ref None and second = ref None in
  let stage = ref 0 in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun r -> first := Some r);
      stage := 1;
      Engine.suspend (fun r -> second := Some r);
      stage := 2);
  Engine.run eng;
  let get slot = match !slot with Some r -> r | None -> Alcotest.fail "none" in
  Engine.resolve (get first);
  Engine.run eng;
  Alcotest.(check int) "in its second block" 1 !stage;
  Alcotest.check_raises "stale resolver rejected"
    (Invalid_argument "Engine: resolver used twice") (fun () ->
      Engine.resolve (get first));
  Alcotest.check_raises "stale resolver rejected by reject too"
    (Invalid_argument "Engine: resolver used twice") (fun () ->
      Engine.reject (get first) Test_abort);
  Engine.run eng;
  Alcotest.(check int) "second block still parked" 1 !stage;
  Engine.resolve (get second);
  Engine.run eng;
  Alcotest.(check int) "woken by its own resolver" 2 !stage

let test_reject_then_resolve () =
  let eng = Engine.create () in
  let slot = ref None in
  let caught = ref 0 in
  Engine.spawn eng (fun () ->
      try Engine.suspend (fun r -> slot := Some r)
      with Test_abort -> incr caught);
  Engine.run eng;
  (match !slot with
  | Some r ->
      Engine.reject r Test_abort;
      Alcotest.check_raises "resolve after reject"
        (Invalid_argument "Engine: resolver used twice") (fun () ->
          Engine.resolve r)
  | None -> Alcotest.fail "resolver not registered");
  Engine.run eng;
  Alcotest.(check int) "rejected once" 1 !caught

(* [wake] runs a timer's function at once, and queues a resolver at the
   back of the same-time lane, behind the events already due now. *)
let test_wake () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  let slot = ref None in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun r -> slot := Some r);
      note "resumed");
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         ignore (Engine.schedule eng ~at:1. (fun () -> note "queued"));
         (match !slot with
         | Some r -> Engine.wake (r :> Engine.handle)
         | None -> Alcotest.fail "resolver not registered");
         Engine.wake (Engine.timer (fun () -> note "called"));
         Engine.wake Engine.idle;
         note "woke"));
  Engine.run eng;
  Alcotest.(check (list string)) "call at once, resolver at the back"
    [ "called"; "woke"; "queued"; "resumed" ]
    (List.rev !log);
  Alcotest.(check int) "a call is no event" 4 (Engine.events_processed eng);
  Alcotest.check_raises "only timers are armed"
    (Invalid_argument "Engine.arm: not a timer") (fun () ->
      Engine.arm eng Engine.idle { Engine.at = 2. })

let test_nested_spawn () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      log := "parent" :: !log;
      Engine.spawn eng (fun () ->
          Engine.wait 1.;
          log := "child" :: !log);
      Engine.wait 2.;
      log := "parent-done" :: !log);
  Engine.run eng;
  Alcotest.(check (list string))
    "interleaving" [ "parent"; "child"; "parent-done" ]
    (List.rev !log)

let test_wait_outside_process () =
  Alcotest.check_raises "not in process" Engine.Not_in_process (fun () ->
      Engine.wait 1.)

let test_ivar_between_processes () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let sum = ref 0 in
  for _ = 1 to 3 do
    Engine.spawn eng (fun () -> sum := !sum + Ivar.read iv)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait 5.;
      Ivar.fill iv 7);
  Engine.run eng;
  Alcotest.(check int) "all readers woke" 21 !sum

let test_events_processed () =
  let eng = Engine.create () in
  for i = 1 to 5 do
    ignore (Engine.schedule eng ~at:(float_of_int i) ignore)
  done;
  Engine.run eng;
  Alcotest.(check int) "counted" 5 (Engine.events_processed eng)

let test_schedule_in_past_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~at:5. ignore);
  Engine.run eng;
  Alcotest.(check bool) "past schedule raises" true
    (try
       ignore (Engine.schedule eng ~at:1. ignore);
       false
     with Invalid_argument _ -> true)

let test_cancel_after_fire_harmless () =
  let eng = Engine.create () in
  let h = Engine.schedule eng ~at:1. ignore in
  Engine.run eng;
  Engine.cancel eng h;
  Alcotest.(check pass) "no effect" () ()

(* Events queued for the current time fire after those already queued for
   it, whichever way they were queued: X and Y are due at 1, and X queues Z
   for now and resumes a suspended process. *)
let test_now_after_queued_ties () =
  let eng = Engine.create () in
  let log = ref [] in
  let note s = log := s :: !log in
  let slot = ref None in
  Engine.spawn eng (fun () ->
      Engine.suspend (fun r -> slot := Some r);
      note "resumed");
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         note "X";
         ignore (Engine.schedule eng ~at:(Engine.now eng) (fun () -> note "Z"));
         Option.iter Engine.resolve !slot));
  ignore (Engine.schedule eng ~at:1. (fun () -> note "Y"));
  Engine.run eng;
  Alcotest.(check (list string)) "scheduling order at t = 1"
    [ "X"; "Y"; "Z"; "resumed" ] (List.rev !log)

(* Once [run] returns, the queue keeps nothing of the events it fired. *)
let test_fired_events_released () =
  let eng = Engine.create () in
  let payloads = Weak.create 100 in
  let schedule_all () =
    for i = 0 to 99 do
      let payload = Bytes.make 1024 'x' in
      Weak.set payloads i (Some payload);
      ignore
        (Engine.schedule eng ~at:(float_of_int (i mod 10)) (fun () ->
             ignore (Sys.opaque_identity payload)))
    done
  in
  schedule_all ();
  Engine.run eng;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 99 do
    if Weak.check payloads i then incr live
  done;
  Alcotest.(check int) "fired payloads reachable" 0 !live;
  Alcotest.(check (float 0.)) "engine still live" 9. (Engine.now eng)

(* A cancelled event leaves the queue at once: its closure is garbage
   long before [run] reaches its time. The handles are dropped before the
   collection; they are cancelled in a scattered order, so most leave
   from the middle of the heap. *)
let test_cancelled_events_released () =
  let eng = Engine.create () in
  let payloads = Weak.create 100 in
  let schedule_and_cancel () =
    let handles =
      Array.init 100 (fun i ->
          let payload = Bytes.make 1024 'x' in
          Weak.set payloads i (Some payload);
          Engine.schedule eng
            ~at:(float_of_int (10 + (i * 7 mod 10)))
            (fun () -> ignore (Sys.opaque_identity payload)))
    in
    for i = 0 to 99 do
      Engine.cancel eng handles.(i * 37 mod 100)
    done
  in
  schedule_and_cancel ();
  let fired = ref false in
  ignore (Engine.schedule eng ~at:30. (fun () -> fired := true));
  Engine.run ~until:5. eng;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to 99 do
    if Weak.check payloads i then incr live
  done;
  Alcotest.(check int) "cancelled payloads reachable" 0 !live;
  Engine.run eng;
  Alcotest.(check bool) "the event left queued fires" true !fired;
  Alcotest.(check int) "only it fired" 1 (Engine.events_processed eng)

(* The handle of a fired event names no slot any more: cancelling it
   after its slot went to another event leaves that event queued. *)
let test_stale_handle_after_slot_reuse () =
  let eng = Engine.create () in
  let log = ref [] in
  let first = Engine.schedule eng ~at:1. (fun () -> log := "first" :: !log) in
  Engine.run eng;
  ignore (Engine.schedule eng ~at:2. (fun () -> log := "second" :: !log));
  Engine.cancel eng first;
  Engine.run eng;
  Alcotest.(check (list string)) "the new occupant fires" [ "first"; "second" ]
    (List.rev !log)

let test_zero_delay_wait_keeps_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng (fun () ->
      log := "a1" :: !log;
      Engine.wait 0.;
      log := "a2" :: !log);
  Engine.spawn eng (fun () -> log := "b" :: !log);
  Engine.run eng;
  (* the zero-delay wait yields to the already-scheduled process *)
  Alcotest.(check (list string)) "yield order" [ "a1"; "b"; "a2" ]
    (List.rev !log)

let test_many_processes () =
  let eng = Engine.create () in
  let done_ = ref 0 in
  for i = 1 to 1000 do
    Engine.spawn eng (fun () ->
        Engine.wait (float_of_int (i mod 7));
        incr done_)
  done;
  Engine.run eng;
  Alcotest.(check int) "all processes ran" 1000 !done_

let test_nan_rejected () =
  let eng = Engine.create () in
  ignore (Engine.schedule eng ~at:5. ignore);
  Alcotest.check_raises "schedule at NaN"
    (Invalid_argument "Engine.schedule: time is NaN") (fun () ->
      ignore (Engine.schedule eng ~at:nan ignore));
  Alcotest.check_raises "schedule after NaN"
    (Invalid_argument "Engine.schedule: time is NaN") (fun () ->
      ignore (Engine.schedule_after eng ~delay:nan ignore));
  let caught = ref false in
  Engine.spawn eng (fun () ->
      try Engine.wait nan
      with Invalid_argument msg ->
        caught := String.equal msg "Engine.wait: delay is NaN");
  Engine.run eng;
  Alcotest.(check bool) "wait NaN raises in the process" true !caught;
  Alcotest.(check (float 0.)) "clock never NaN" 5. (Engine.now eng);
  Alcotest.(check int) "only real events fired" 2 (Engine.events_processed eng)

let test_blocking_in_callback () =
  let eng = Engine.create () in
  let raised = ref [] in
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         (try Engine.wait 1.
          with Engine.Not_in_process -> raised := "wait" :: !raised);
         try Engine.suspend (fun _ -> ())
         with Engine.Not_in_process -> raised := "suspend" :: !raised));
  Engine.run eng;
  Alcotest.(check (list string)) "both raise" [ "wait"; "suspend" ]
    (List.rev !raised);
  Alcotest.(check (float 0.)) "clock at the callback" 1. (Engine.now eng)

let test_suspend_outside_process () =
  Alcotest.check_raises "not in process" Engine.Not_in_process (fun () ->
      Engine.suspend (fun _ -> ()))

(* A process of engine [a] runs engine [b] to completion: every wait and
   every suspension lands on the engine whose process performed it. *)
let test_nested_engines () =
  let a = Engine.create () and b = Engine.create () in
  let log = ref [] in
  let note what = log := (what, Engine.now a, Engine.now b) :: !log in
  Engine.spawn a (fun () ->
      Engine.wait 1.;
      let iv = Ivar.create () in
      Engine.spawn b (fun () ->
          Engine.wait 10.;
          note "b-waited";
          Ivar.fill iv 3);
      Engine.spawn b (fun () ->
          let v = Ivar.read iv in
          Engine.wait (float_of_int v);
          note "b-read");
      Engine.run b;
      note "b-done";
      Engine.wait 2.;
      note "a-waited");
  Engine.run a;
  Alcotest.(check (list (triple string (float 0.) (float 0.))))
    "each wait on its own engine"
    [
      ("b-waited", 1., 10.);
      ("b-read", 1., 13.);
      ("b-done", 1., 13.);
      ("a-waited", 3., 13.);
    ]
    (List.rev !log)

(* One parker shared by processes of two engines: each park records the
   engine whose process performed it, so each resolution resumes that
   process on its own engine. Each process reads its value from its own
   ref once woken. *)
let test_parker_shared () =
  let parked = Queue.create () in
  let p = Engine.parker (fun r -> Queue.push r parked) in
  let a = Engine.create () and b = Engine.create () in
  let got = ref [] in
  let va = ref 0 and vb = ref 0 in
  let proc name value () =
    for _ = 1 to 2 do
      Engine.park p;
      got := (name, !value) :: !got
    done
  in
  Engine.spawn a (proc "a" va);
  Engine.spawn b (proc "b" vb);
  for round = 1 to 2 do
    Engine.run a;
    Engine.run b;
    let ra = Queue.pop parked in
    let rb = Queue.pop parked in
    vb := 20 * round;
    Engine.resolve rb;
    va := 10 * round;
    Engine.resolve ra;
    Engine.run a;
    Engine.run b
  done;
  Alcotest.(check (list (pair string int)))
    "each process resumed by its own engine"
    [ ("a", 10); ("b", 20); ("a", 20); ("b", 40) ]
    (List.rev !got);
  Alcotest.check_raises "not in process" Engine.Not_in_process (fun () ->
      Engine.park p)

let test_fill_wakes_readers () =
  let eng = Engine.create () in
  let iv : int Ivar.t = Ivar.create () in
  let woke = ref [] in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        let v = Ivar.read iv in
        woke := (i, v, Engine.now eng) :: !woke)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait 2.;
      Ivar.fill iv 7);
  Engine.run eng;
  Alcotest.(check (list (triple int int (float 0.))))
    "every reader resumed, in arrival order, at the fill time"
    [ (0, 7, 2.); (1, 7, 2.); (2, 7, 2.) ]
    (List.rev !woke)

(* Differential check of the event queue against a reference engine built
   on [Heap]: random schedules, cancellations, re-arms, processes that
   wait or block until resolved or rejected, and bounded runs must fire
   the same events at the same times. The reference re-arms an event as a
   cancellation plus a fresh schedule. *)
module Reference = struct
  type ev = {
    time : float;
    seq : int;
    f : unit -> unit;
    mutable cancelled : bool;
  }

  type t = {
    mutable now : float;
    q : ev Heap.t;
    mutable seq : int;
    mutable processed : int;
  }

  let create () =
    let cmp a b =
      let c = Float.compare a.time b.time in
      if c <> 0 then c else Int.compare a.seq b.seq
    in
    { now = 0.; q = Heap.create ~cmp; seq = 0; processed = 0 }

  let schedule t ~at f =
    t.seq <- t.seq + 1;
    let ev = { time = Float.max at t.now; seq = t.seq; f; cancelled = false } in
    Heap.push t.q ev;
    ev

  let rearm t ev ~at =
    ev.cancelled <- true;
    schedule t ~at ev.f

  let run ?until t =
    let rec loop () =
      match (Heap.peek t.q, until) with
      | None, Some u -> if t.now < u then t.now <- u
      | None, None -> ()
      | Some ev, Some u when ev.time > u -> t.now <- u
      | Some ev, _ ->
          Heap.drop t.q;
          if not ev.cancelled then begin
            t.now <- ev.time;
            t.processed <- t.processed + 1;
            ev.f ()
          end;
          loop ()
    in
    loop ()
end

type op =
  | Sched of int  (** schedule a callback this many half-seconds ahead *)
  | Cancel of int  (** cancel the n-th handle handed out so far *)
  | Cancel_recent of int
      (** cancel the n-th most recent handle of the last eight, most
          likely still queued and below the heap's root *)
  | Rearm of int * int
      (** re-arm the n-th handle handed out so far this many half-seconds
          ahead *)
  | Spawn_wait of int  (** spawn a process that waits, then logs *)
  | Run_until of int  (** run at most this many half-seconds ahead *)
  | Spawn_park  (** spawn a process that blocks, then logs *)
  | Wake of bool  (** resolve (true) or reject the oldest blocked process *)

let show_op = function
  | Sched d -> Printf.sprintf "sched %d" d
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Cancel_recent i -> Printf.sprintf "cancel-recent %d" i
  | Rearm (i, d) -> Printf.sprintf "rearm %d %d" i d
  | Spawn_wait d -> Printf.sprintf "spawn-wait %d" d
  | Run_until d -> Printf.sprintf "until +%d" d
  | Spawn_park -> "spawn-park"
  | Wake ok -> if ok then "resolve" else "reject"

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Sched d) (int_range 0 4));
        (2, map (fun i -> Cancel i) (int_range 0 50));
        (2, map (fun i -> Cancel_recent i) (int_range 0 7));
        (2, map (fun d -> Sched d) (int_range 5 40));
        (3, map2 (fun i d -> Rearm (i, d)) (int_range 0 50) (int_range 0 6));
        (2, map (fun d -> Spawn_wait d) (int_range 0 4));
        (1, map (fun d -> Run_until d) (int_range 0 6));
        (2, return Spawn_park);
        (2, map (fun ok -> Wake ok) bool);
      ])

(* The operations of one side of the comparison. [spawn_park register k]
   blocks a new process, hands its waker to [register], and calls [k]
   with whether it was resolved. *)
type ('h, 'w) side = {
  schedule : float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  rearm : 'h -> float -> 'h;
  spawn_wait : float -> (unit -> unit) -> unit;
  spawn_park : ('w -> unit) -> (bool -> unit) -> unit;
  wake : 'w -> bool -> unit;
  run : float option -> unit;
  clock : unit -> float;
  processed : unit -> int;
}

(* Replay [ops] on one side; fired events log their id, whether they were
   resolved, and their time. Every third one schedules a follow-up, of
   the others every second one wakes the oldest blocked process, so
   resumptions tie with events already due at the same time, and of the
   rest every fifth re-arms a handle, up to 30 times in all, so re-arms
   also meet a non-empty same-time lane. *)
let replay side ops =
  let log = ref [] and next_id = ref 0 and handles = ref [||] in
  let blocked = Queue.create () in
  let rearms_left = ref 30 in
  let wake ok =
    if not (Queue.is_empty blocked) then side.wake (Queue.pop blocked) ok
  in
  let rearm i delay =
    let n = Array.length !handles in
    if n > 0 then begin
      let i = i mod n in
      !handles.(i) <- side.rearm !handles.(i) (side.clock () +. delay)
    end
  in
  let rec fire id () = fired id true
  and fired id ok =
    log := (id, ok, side.clock ()) :: !log;
    if id mod 3 = 0 then sched (float_of_int (id mod 4) *. 0.5)
    else if id mod 2 = 0 then wake (id mod 4 = 0)
    else if id mod 5 = 1 && !rearms_left > 0 then begin
      decr rearms_left;
      rearm (id / 5) (float_of_int (id mod 3) *. 0.5)
    end
  and sched delay =
    let id = !next_id in
    incr next_id;
    let h = side.schedule (side.clock () +. delay) (fire id) in
    handles := Array.append !handles [| h |]
  in
  List.iter
    (function
      | Sched d -> sched (float_of_int d *. 0.5)
      | Cancel i ->
          let n = Array.length !handles in
          if n > 0 then side.cancel !handles.(i mod n)
      | Cancel_recent i ->
          let n = Array.length !handles in
          if n > 0 then side.cancel !handles.(n - 1 - (i mod min n 8))
      | Rearm (i, d) -> rearm i (float_of_int d *. 0.5)
      | Spawn_wait d ->
          let id = !next_id in
          incr next_id;
          side.spawn_wait (float_of_int d *. 0.5) (fire id)
      | Spawn_park ->
          let id = !next_id in
          incr next_id;
          side.spawn_park (fun w -> Queue.push w blocked) (fired id)
      | Wake ok -> wake ok
      | Run_until d ->
          side.run (Some (side.clock () +. (float_of_int d *. 0.5)));
          log := (-1, true, side.clock ()) :: !log)
    ops;
  side.run None;
  (List.rev !log, side.clock (), side.processed ())

let prop_queue_matches_reference =
  QCheck.Test.make ~name:"event queue fires like the Heap reference" ~count:300
    QCheck.(
      make ~print:(Print.list show_op)
        Gen.(list_size (int_range 0 60) gen_op))
    (fun ops ->
      let eng = Engine.create () in
      let exception Rejected in
      let engine_side =
        {
          schedule = (fun at f -> Engine.schedule eng ~at f);
          cancel = Engine.cancel eng;
          rearm =
            (fun h at ->
              Engine.arm eng h { Engine.at };
              h);
          spawn_wait =
            (fun d k ->
              Engine.spawn eng (fun () ->
                  Engine.wait d;
                  k ()));
          spawn_park =
            (fun register k ->
              Engine.spawn eng (fun () ->
                  match Engine.suspend register with
                  | () -> k true
                  | exception Rejected -> k false));
          wake =
            (fun w ok ->
              if ok then Engine.resolve w else Engine.reject w Rejected);
          run = (fun until -> Engine.run ?until eng);
          clock = (fun () -> Engine.now eng);
          processed = (fun () -> Engine.events_processed eng);
        }
      in
      let r = Reference.create () in
      let reference_side =
        {
          schedule = (fun at f -> Reference.schedule r ~at f);
          cancel = (fun ev -> ev.Reference.cancelled <- true);
          rearm = (fun ev at -> Reference.rearm r ev ~at);
          spawn_wait =
            (fun d k ->
              ignore
                (Reference.schedule r ~at:r.now (fun () ->
                     ignore (Reference.schedule r ~at:(r.now +. d) k))));
          spawn_park =
            (fun register k ->
              let at_now f = ignore (Reference.schedule r ~at:r.now f) in
              at_now (fun () -> register (fun ok -> at_now (fun () -> k ok))));
          wake = (fun w ok -> w ok);
          run = (fun until -> Reference.run ?until r);
          clock = (fun () -> r.now);
          processed = (fun () -> r.processed);
        }
      in
      replay engine_side ops = replay reference_side ops)

let suite =
  [
    Alcotest.test_case "schedule order" `Quick test_schedule_order;
    Alcotest.test_case "past schedule rejected" `Quick
      test_schedule_in_past_rejected;
    Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire_harmless;
    Alcotest.test_case "zero-delay wait yields" `Quick
      test_zero_delay_wait_keeps_order;
    Alcotest.test_case "many processes" `Quick test_many_processes;
    Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
    Alcotest.test_case "cancel" `Quick test_cancel;
    Alcotest.test_case "run until" `Quick test_until;
    Alcotest.test_case "run until in the past rejected" `Quick
      test_until_in_past_rejected;
    Alcotest.test_case "now after queued ties" `Quick test_now_after_queued_ties;
    Alcotest.test_case "fired events released" `Quick
      test_fired_events_released;
    Alcotest.test_case "cancelled events released" `Quick
      test_cancelled_events_released;
    Alcotest.test_case "stale handle after slot reuse" `Quick
      test_stale_handle_after_slot_reuse;
    Alcotest.test_case "process wait" `Quick test_process_wait;
    Alcotest.test_case "suspend/resolve" `Quick test_suspend_resolve;
    Alcotest.test_case "suspend/reject" `Quick test_suspend_reject;
    Alcotest.test_case "resolver single-use" `Quick test_resolver_single_use;
    Alcotest.test_case "stale resolver" `Quick test_stale_resolver;
    Alcotest.test_case "reject then resolve" `Quick test_reject_then_resolve;
    Alcotest.test_case "wake" `Quick test_wake;
    Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
    Alcotest.test_case "wait outside process" `Quick test_wait_outside_process;
    Alcotest.test_case "ivar between processes" `Quick
      test_ivar_between_processes;
    Alcotest.test_case "events processed" `Quick test_events_processed;
    Alcotest.test_case "NaN times rejected" `Quick test_nan_rejected;
    Alcotest.test_case "wait/suspend in a callback" `Quick
      test_blocking_in_callback;
    Alcotest.test_case "suspend outside process" `Quick
      test_suspend_outside_process;
    Alcotest.test_case "nested engines" `Quick test_nested_engines;
    Alcotest.test_case "parker shared by two engines" `Quick
      test_parker_shared;
    Alcotest.test_case "fill wakes every reader in order" `Quick
      test_fill_wakes_readers;
    QCheck_alcotest.to_alcotest prop_queue_matches_reference;
  ]
