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
  Engine.cancel h;
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

let test_suspend_resolve () =
  let eng = Engine.create () in
  let slot = ref None in
  let got = ref 0 in
  Engine.spawn eng (fun () ->
      let v = Engine.suspend (fun r -> slot := Some r) in
      got := v);
  ignore
    (Engine.schedule eng ~at:7. (fun () ->
         match !slot with
         | Some r -> Engine.resolve r 42
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
      try
        let (_ : int) = Engine.suspend (fun r -> slot := Some r) in
        ()
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
  Engine.spawn eng (fun () ->
      let (_ : int) = Engine.suspend (fun r -> slot := Some r) in
      ());
  ignore
    (Engine.schedule eng ~at:1. (fun () ->
         match !slot with
         | Some r ->
             Engine.resolve r 1;
             Alcotest.check_raises "second use rejected"
               (Invalid_argument "Engine: resolver used twice") (fun () ->
                 Engine.resolve r 2)
         | None -> ()));
  Engine.run eng

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

let test_stop () =
  let eng = Engine.create () in
  let count = ref 0 in
  Engine.spawn eng (fun () ->
      for _ = 1 to 100 do
        incr count;
        if !count = 10 then Engine.stop eng;
        Engine.wait 1.
      done);
  Engine.run eng;
  Alcotest.(check int) "stopped early" 10 !count

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
  Engine.cancel h;
  Alcotest.(check pass) "no effect" () ()

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
         try
           let (_ : int) = Engine.suspend (fun _ -> ()) in
           ()
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
   process on its own engine. *)
let test_parker_shared () =
  let parked = Queue.create () in
  let p = Engine.parker (fun r -> Queue.push r parked) in
  let a = Engine.create () and b = Engine.create () in
  let got = ref [] in
  let proc name () =
    for _ = 1 to 2 do
      let v : int = Engine.park p in
      got := (name, v) :: !got
    done
  in
  Engine.spawn a (proc "a");
  Engine.spawn b (proc "b");
  for round = 1 to 2 do
    Engine.run a;
    Engine.run b;
    let ra = Queue.pop parked in
    let rb = Queue.pop parked in
    Engine.resolve rb (20 * round);
    Engine.resolve ra (10 * round);
    Engine.run a;
    Engine.run b
  done;
  Alcotest.(check (list (pair string int)))
    "each process resumed by its own engine"
    [ ("a", 10); ("b", 20); ("a", 20); ("b", 40) ]
    (List.rev !got);
  Alcotest.check_raises "not in process" Engine.Not_in_process (fun () ->
      ignore (Engine.park p : int))

exception Poisoned

let test_poison_wakes_readers () =
  let eng = Engine.create () in
  let iv : int Ivar.t = Ivar.create () in
  let woke = ref [] in
  for i = 0 to 2 do
    Engine.spawn eng (fun () ->
        match Ivar.read iv with
        | _ -> woke := (i, "value", Engine.now eng) :: !woke
        | exception Poisoned ->
            woke := (i, "poisoned", Engine.now eng) :: !woke)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait 2.;
      Ivar.poison iv Poisoned);
  Engine.run eng;
  Alcotest.(check (list (triple int string (float 0.))))
    "every reader rejected, in arrival order, at the poison time"
    [ (0, "poisoned", 2.); (1, "poisoned", 2.); (2, "poisoned", 2.) ]
    (List.rev !woke)

(* Differential check of the event queue against a reference engine built
   on [Heap]: random schedules, cancellations, processes that wait, and
   bounded runs must fire the same events at the same times. *)
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
  | Spawn_wait of int  (** spawn a process that waits, then logs *)
  | Run_until of int  (** run at most this many half-seconds ahead *)

let show_op = function
  | Sched d -> Printf.sprintf "sched %d" d
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Spawn_wait d -> Printf.sprintf "spawn-wait %d" d
  | Run_until d -> Printf.sprintf "until +%d" d

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Sched d) (int_range 0 4));
        (2, map (fun i -> Cancel i) (int_range 0 50));
        (2, map (fun d -> Spawn_wait d) (int_range 0 4));
        (1, map (fun d -> Run_until d) (int_range 0 6));
      ])

(* The operations of one side of the comparison. *)
type 'h side = {
  schedule : float -> (unit -> unit) -> 'h;
  cancel : 'h -> unit;
  spawn_wait : float -> (unit -> unit) -> unit;
  run : float option -> unit;
  clock : unit -> float;
  processed : unit -> int;
}

(* Replay [ops] on one side; fired events log their id and time, and every
   third one schedules a follow-up. *)
let replay side ops =
  let log = ref [] and next_id = ref 0 and handles = ref [||] in
  let rec fire id () =
    log := (id, side.clock ()) :: !log;
    if id mod 3 = 0 then sched (float_of_int (id mod 4) *. 0.5)
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
      | Spawn_wait d ->
          let id = !next_id in
          incr next_id;
          side.spawn_wait (float_of_int d *. 0.5) (fire id)
      | Run_until d ->
          side.run (Some (side.clock () +. (float_of_int d *. 0.5)));
          log := (-1, side.clock ()) :: !log)
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
      let engine_side =
        {
          schedule = (fun at f -> Engine.schedule eng ~at f);
          cancel = Engine.cancel;
          spawn_wait =
            (fun d k ->
              Engine.spawn eng (fun () ->
                  Engine.wait d;
                  k ()));
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
          spawn_wait =
            (fun d k ->
              ignore
                (Reference.schedule r ~at:r.now (fun () ->
                     ignore (Reference.schedule r ~at:(r.now +. d) k))));
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
    Alcotest.test_case "process wait" `Quick test_process_wait;
    Alcotest.test_case "suspend/resolve" `Quick test_suspend_resolve;
    Alcotest.test_case "suspend/reject" `Quick test_suspend_reject;
    Alcotest.test_case "resolver single-use" `Quick test_resolver_single_use;
    Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
    Alcotest.test_case "wait outside process" `Quick test_wait_outside_process;
    Alcotest.test_case "stop" `Quick test_stop;
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
    Alcotest.test_case "poison wakes every reader" `Quick
      test_poison_wakes_readers;
    QCheck_alcotest.to_alcotest prop_queue_matches_reference;
  ]
