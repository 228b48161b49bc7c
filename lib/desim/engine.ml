open Effect
open Effect.Deep

exception Not_in_process

(* What an event does when it fires. A process blocked in [wait] or
   [suspend] is resumed straight from its continuation, so a resumption
   allocates this one small block and nothing else. Only [Call] events are
   handed out as handles, so only they carry a cancellation flag. *)
type action =
  | Call of { f : unit -> unit; mutable cancelled : bool }
  | Resume : ('a, unit) continuation * 'a -> action
  | Reject : (_, unit) continuation * exn -> action

type handle = action

(* An all-float record is stored flat, so advancing the clock once per
   event does not box the new time. *)
type clock = { mutable now : float }

(* The event queue is a binary min-heap on (time, seq), kept in three
   parallel arrays: times are stored unboxed, and keys are compared inline
   without following a pointer. [seq] grows with every scheduled event, so
   (time, seq) is a strict total order and events at equal times fire in
   scheduling order. The arrays are allocated on the first push. *)
type t = {
  clock : clock;
  mutable times : float array;
  mutable seqs : int array;
  mutable acts : action array;
  mutable len : int;
  mutable seq : int;
  mutable stop_requested : bool;
  mutable processed : int;
}

type 'a resolver = { eng : t; k : ('a, unit) continuation; mutable used : bool }

(* The effects carry no engine: the innermost handler, the one [spawn]
   installed around the performing process, belongs to its engine. *)
type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ('a resolver -> unit) -> 'a Effect.t

let create () =
  {
    clock = { now = 0. };
    times = [||];
    seqs = [||];
    acts = [||];
    len = 0;
    seq = 0;
    stop_requested = false;
    processed = 0;
  }

let now t = t.clock.now

let grow t =
  let cap = Array.length t.acts in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make ncap 0. in
  let seqs = Array.make ncap 0 in
  let acts = Array.make ncap (Call { f = ignore; cancelled = true }) in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.acts 0 acts 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.acts <- acts

(* Sift a hole up from the end. The new event's seq exceeds every queued
   one, so it passes a parent only when its time is strictly earlier. *)
let push t at act =
  if t.len = Array.length t.acts then grow t;
  t.seq <- t.seq + 1;
  let times = t.times and seqs = t.seqs and acts = t.acts in
  let i = ref t.len in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = times.(p) in
    if at < pt then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      acts.(!i) <- acts.(p);
      i := p
    end
    else moving := false
  done;
  times.(!i) <- at;
  seqs.(!i) <- t.seq;
  acts.(!i) <- act;
  t.len <- t.len + 1

(* Remove the head: sift a hole down from the root and drop the last
   event into it. *)
let drop_head t =
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    let times = t.times and seqs = t.seqs and acts = t.acts in
    let lt = times.(n) and ls = seqs.(n) and la = acts.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l)
               || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ct = times.(c) in
        if ct < lt || (ct = lt && seqs.(c) < ls) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          acts.(!i) <- acts.(c);
          i := c
        end
        else moving := false
      end
    done;
    times.(!i) <- lt;
    seqs.(!i) <- ls;
    acts.(!i) <- la
  end

(* Queue [act] at [at], which may lie at most 1e-12 in the past (float
   rounding of [now +. delay]) and is then clamped to [now]. *)
let enqueue t ~at act =
  let now = t.clock.now in
  if not (at >= now -. 1e-12) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: time is NaN"
       else
         Printf.sprintf "Engine.schedule: at %g is in the past (now %g)" at now);
  push t (if at < now then now else at) act

let schedule t ~at f =
  let ev = Call { f; cancelled = false } in
  enqueue t ~at ev;
  ev

let schedule_after t ~delay f = schedule t ~at:(t.clock.now +. delay) f

let cancel = function Call c -> c.cancelled <- true | Resume _ | Reject _ -> ()

let wait delay =
  if Float.is_nan delay then invalid_arg "Engine.wait: delay is NaN";
  try perform (Wait delay) with Effect.Unhandled _ -> raise Not_in_process

let suspend register =
  try perform (Suspend register) with Effect.Unhandled _ -> raise Not_in_process

let settle r =
  if r.used then invalid_arg "Engine: resolver used twice";
  r.used <- true

let resolve r v =
  settle r;
  push r.eng r.eng.clock.now (Resume (r.k, v))

let reject r e =
  settle r;
  push r.eng r.eng.clock.now (Reject (r.k, e))

let run_fiber t f =
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Wait delay ->
              Some
                (fun (k : (a, unit) continuation) ->
                  enqueue t ~at:(t.clock.now +. delay) (Resume (k, ())))
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  register { eng = t; k; used = false })
          | _ -> None);
    }

let spawn t f =
  push t t.clock.now (Call { f = (fun () -> run_fiber t f); cancelled = false })

let stop t = t.stop_requested <- true

let events_processed t = t.processed

let run ?until t =
  t.stop_requested <- false;
  let horizon = match until with Some u -> u | None -> infinity in
  while (not t.stop_requested) && t.len > 0 && not (t.times.(0) > horizon) do
    let time = t.times.(0) and act = t.acts.(0) in
    drop_head t;
    match act with
    | Call c ->
        if not c.cancelled then begin
          t.clock.now <- time;
          t.processed <- t.processed + 1;
          c.f ()
        end
    | Resume (k, v) ->
        t.clock.now <- time;
        t.processed <- t.processed + 1;
        continue k v
    | Reject (k, e) ->
        t.clock.now <- time;
        t.processed <- t.processed + 1;
        discontinue k e
  done;
  (* Stopped at [until]: later events stay queued and the clock moves to
     [until] (also when the queue ran dry before it). *)
  match until with
  | Some u when (not t.stop_requested) && (t.len > 0 || t.clock.now < u) ->
      t.clock.now <- u
  | _ -> ()
