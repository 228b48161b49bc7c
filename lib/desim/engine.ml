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
   event does not box the new time, and a model that keeps the record
   reads the time without boxing it either. *)
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
  wake : clock;
      (* when the [Wait] being handled ends, read by [on_wait]; a flat
         record, so storing it boxes nothing *)
  mutable on_wait : ((unit, unit) continuation -> unit) option;
  mutable self : t option;  (* what a caught parker records *)
}

type 'a resolver = { eng : t; k : ('a, unit) continuation; mutable used : bool }

(* A parker is the effect value itself, built once together with its
   answer to the handler, so performing it allocates no effect, option or
   closure. The handler that catches it records its engine in [on] just
   before the answer runs. *)
type parked = { mutable on : t option }

type 'a parker = 'a Effect.t

(* The effects carry no engine: the innermost handler, the one [spawn]
   installed around the performing process, belongs to its engine. *)
type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Park : parked * (('a, unit) continuation -> unit) option -> 'a Effect.t

let clock t = t.clock
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
   one, so it passes a parent only when its time is strictly earlier.
   Inlined, so a time computed by the caller is never boxed. *)
let[@inline] push t at act =
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
let[@inline] enqueue t ~at act =
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

let schedule_after t ~delay f =
  let ev = Call { f; cancelled = false } in
  enqueue t ~at:(t.clock.now +. delay) ev;
  ev

let cancelled_handle () = Call { f = ignore; cancelled = true }

let cancel = function Call c -> c.cancelled <- true | Resume _ | Reject _ -> ()

let wait delay =
  if Float.is_nan delay then invalid_arg "Engine.wait: delay is NaN";
  try perform (Wait delay) with Effect.Unhandled _ -> raise Not_in_process

let parker register =
  let p = { on = None } in
  Park
    ( p,
      Some
        (fun k ->
          match p.on with
          | Some eng -> register { eng; k; used = false }
          | None -> assert false (* set by the handler *)) )

let park p = try perform p with Effect.Unhandled _ -> raise Not_in_process

(* A one-off parker: a process that blocks in the same place again and
   again builds its parker once instead. *)
let suspend register = park (parker register)

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
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Wait delay ->
              t.wake.now <- t.clock.now +. delay;
              t.on_wait
          | Park (p, on_k) ->
              p.on <- t.self;
              on_k
          | _ -> None);
    }

let spawn t f =
  push t t.clock.now (Call { f = (fun () -> run_fiber t f); cancelled = false })

let create () =
  let t =
    {
      clock = { now = 0. };
      times = [||];
      seqs = [||];
      acts = [||];
      len = 0;
      seq = 0;
      stop_requested = false;
      processed = 0;
      wake = { now = 0. };
      on_wait = None;
      self = None;
    }
  in
  t.on_wait <- Some (fun k -> enqueue t ~at:t.wake.now (Resume (k, ())));
  t.self <- Some t;
  t

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
