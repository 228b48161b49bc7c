open Effect
open Effect.Deep

exception Not_in_process

(* What an event does when it fires.

   - [Call]: a scheduled event or timer. [state] says where it is queued:
     [s >= 0] on the heap, in slot [s]; [-1] nowhere (never armed, fired
     or cancelled); [-2 - i] on the same-time lane, as its [i]-th entry
     ever pushed. A lane entry fires only while its handle still names
     it. Cancelling or re-arming a handle queued on the lane leaves its
     old entry there, dead; that is rare, as only events due now take
     the lane.
   - [Resolver]: a process blocked in [suspend] or [park], built by the
     handler once per block. [resolve] queues this very record, so the
     wake-up allocates nothing more; [used] makes it single-use.
   - [Waited]: a process whose [wait] ends.
   - [Reject]: a rejected resolver's process, resumed by raising.
   - [Idle]: a placeholder; it is never queued.

   A blocked process is resumed straight from its continuation, and only
   [Call], [Resolver] and [Idle] are handed out as handles. *)
type action =
  | Call of { f : unit -> unit; mutable state : int }
  | Resolver of { eng : t; k : (unit, unit) continuation; mutable used : bool }
  | Waited of (unit, unit) continuation
  | Reject of (unit, unit) continuation * exn
  | Idle

(* The event queue has two lanes.

   - The same-time lane is a FIFO ring buffer of the events due at [now]:
     resumptions from [resolve] and [reject], spawns, zero delays and times
     clamped to [now]. About two events in five take it, each for one
     array write in and one out. [lane_head] counts every entry ever
     taken, so entry [i] sits in cell [i land (capacity - 1)].
   - Later events wait in a binary min-heap on (time, seq). [seq] grows
     with every heap push or re-key, so (time, seq) is a strict total
     order and events at equal times fire in scheduling order. A heap
     node is (time, seq, slot) in three parallel arrays, the time
     unboxed, so a sift compares keys inline and moves no pointer through
     the write barrier. The node's action sits in [acts.(slot)], written
     once at push and cleared at pop or cancel; [pos.(slot)] is the
     node's index, kept by every sift, so a cancelled event leaves the
     heap at once and a re-armed one is re-keyed where it stands. [free]
     stacks the unused slots.

   A lane entry was queued after the clock reached [now] and a heap entry
   due at [now] before it did. So firing the heap's head while it is due
   at [now], then the lane, and moving the clock only once the lane is
   empty, fires every event in exactly (time, scheduling order). The
   arrays are allocated on the first push. *)
and t = {
  clock : clock;
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable len : int;
  mutable acts : action array;
  mutable pos : int array;
  mutable free : int array;
      (* free slots in [free.(0)] .. [free.(cap - len - 1)], the top last:
         the heap and the free slots together fill the capacity *)
  mutable seq : int;
  mutable lane : action array;  (* capacity 0 or a power of two *)
  mutable lane_head : int;
  mutable lane_len : int;
  mutable processed : int;
  wake : clock;
      (* when the [Wait] being handled ends, read by [on_wait]; a flat
         record, so storing it boxes nothing *)
  mutable on_wait : ((unit, unit) continuation -> unit) option;
  mutable self : t option;  (* what a caught parker records *)
}

(* An all-float record is stored flat, so advancing the clock once per
   event does not box the new time, and a model that keeps the record
   reads the time without boxing it either. *)
and clock = { mutable now : float }

type due = { mutable at : float }

type handle = action
type resolver = action

let idle = Idle

(* A parker is the effect value itself, built once together with its
   answer to the handler, so performing it allocates no effect, option or
   closure. The handler that catches it records its engine in [on] just
   before the answer runs. *)
type parked = { mutable on : t option }

type parker = unit Effect.t

(* The effects carry no engine: the innermost handler, the one [spawn]
   installed around the performing process, belongs to its engine. *)
type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Park : parked * ((unit, unit) continuation -> unit) option -> unit Effect.t

let clock t = t.clock
let now t = t.clock.now

(* Called only when the heap fills every slot, so no slot is free. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let times = Array.make ncap 0. in
  let seqs = Array.make ncap 0 in
  let slots = Array.make ncap 0 in
  let acts = Array.make ncap Idle in
  let pos = Array.make ncap 0 in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.slots 0 slots 0 cap;
  Array.blit t.acts 0 acts 0 cap;
  Array.blit t.pos 0 pos 0 cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.acts <- acts;
  t.pos <- pos;
  t.free <- Array.init ncap (fun i -> ncap - 1 - i)

(* The sifts move a hole: [sift_up] and [sift_down] carry the node
   (time [at], seq [sq], slot [s]) from the hole at [i] to its place and
   write it there. Inlined, so [at] is never boxed. *)
let[@inline] place t i at sq s =
  t.times.(i) <- at;
  t.seqs.(i) <- sq;
  t.slots.(i) <- s;
  t.pos.(s) <- i

let[@inline] sift_up t i at sq s =
  let times = t.times and seqs = t.seqs and slots = t.slots and pos = t.pos in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = times.(p) in
    if at < pt || (at = pt && sq < seqs.(p)) then begin
      let ps = slots.(p) in
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- ps;
      pos.(ps) <- !i;
      i := p
    end
    else moving := false
  done;
  place t !i at sq s

let[@inline] sift_down t i at sq s =
  let times = t.times and seqs = t.seqs and slots = t.slots and pos = t.pos in
  let n = t.len in
  let i = ref i in
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
      if ct < at || (ct = at && seqs.(c) < sq) then begin
        let cs = slots.(c) in
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- cs;
        pos.(cs) <- !i;
        i := c
      end
      else moving := false
    end
  done;
  place t !i at sq s

(* Queue [act] at [at] on the heap and return its slot. Inlined, so a time
   computed by the caller is never boxed. *)
let[@inline] push t at act =
  if t.len = Array.length t.times then grow t;
  let s = t.free.(Array.length t.free - t.len - 1) in
  t.acts.(s) <- act;
  t.seq <- t.seq + 1;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i at t.seq s;
  s

(* Take the node in slot [s] out of the heap and free the slot: the last
   node fills the hole it leaves. *)
let release t s =
  let i = t.pos.(s) in
  t.acts.(s) <- Idle;
  let n = t.len - 1 in
  t.len <- n;
  t.free.(Array.length t.free - n - 1) <- s;
  if i < n then begin
    let lt = t.times.(n) and ls = t.seqs.(n) and lslot = t.slots.(n) in
    let p = (i - 1) / 2 in
    if i > 0 && (lt < t.times.(p) || (lt = t.times.(p) && ls < t.seqs.(p)))
    then sift_up t i lt ls lslot
    else sift_down t i lt ls lslot
  end

(* Remove the heap's head and return its action. *)
let take_head t =
  let s = t.slots.(0) in
  let act = t.acts.(s) in
  release t s;
  act

(* Give the node in slot [s] the key (at, a fresh seq), as a new push
   would get, and move it to its place. *)
let[@inline] rekey t s at =
  t.seq <- t.seq + 1;
  let i = t.pos.(s) in
  let p = (i - 1) / 2 in
  if i > 0 && at < t.times.(p) then sift_up t i at t.seq s
  else sift_down t i at t.seq s

(* The lane is not a {!Ring}: a call into another module is never inlined
   in dune's default profile, and a lane on [Ring] measured 3.5 ns more
   per lane event (EXPERIMENTS.md, "Kernel queues without cells"). *)
let grow_lane t =
  let cap = Array.length t.lane in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let lane = Array.make ncap Idle in
  for i = t.lane_head to t.lane_head + t.lane_len - 1 do
    lane.(i land (ncap - 1)) <- t.lane.(i land (cap - 1))
  done;
  t.lane <- lane

(* Queue [act] on the lane and return its number. *)
let[@inline] push_lane t act =
  if t.lane_len = Array.length t.lane then grow_lane t;
  let lane = t.lane in
  let i = t.lane_head + t.lane_len in
  lane.(i land (Array.length lane - 1)) <- act;
  t.lane_len <- t.lane_len + 1;
  i

let[@inline] take_lane t =
  let lane = t.lane and i = t.lane_head land (Array.length t.lane - 1) in
  let act = lane.(i) in
  lane.(i) <- Idle;
  t.lane_head <- t.lane_head + 1;
  t.lane_len <- t.lane_len - 1;
  act

(* Check a time to queue at: it may lie at most 1e-12 in the past (float
   rounding of [now +. delay]) and is then clamped to [now]. *)
let[@inline] check_time t at =
  let now = t.clock.now in
  if not (at >= now -. 1e-12) then
    invalid_arg
      (if Float.is_nan at then "Engine.schedule: time is NaN"
       else
         Printf.sprintf "Engine.schedule: at %g is in the past (now %g)" at now)

(* Queue an event at [at]: on the lane when it is due now, else on the
   heap. *)
let[@inline] enqueue t ~at act =
  check_time t at;
  if at <= t.clock.now then ignore (push_lane t act : int)
  else ignore (push t at act : int)

(* Queue the event of handle [h] at [at], wherever it is queued now: a
   queued heap node is re-keyed in place. An event due now goes to the
   back of the lane like any other, so its heap node, if any, leaves. *)
let[@inline] arm_at t h at =
  check_time t at;
  match h with
  | Call c ->
      if at <= t.clock.now then begin
        if c.state >= 0 then release t c.state;
        c.state <- -2 - push_lane t h
      end
      else if c.state >= 0 then rekey t c.state at
      else c.state <- push t at h
  | Resolver _ | Idle -> invalid_arg "Engine.arm: not a timer"
  | Waited _ | Reject _ -> assert false (* never handed out *)

let arm t h due = arm_at t h due.at

let timer f = Call { f; state = -1 }

let schedule t ~at f =
  let h = timer f in
  arm_at t h at;
  h

let schedule_after t ~delay f =
  let h = timer f in
  arm_at t h (t.clock.now +. delay);
  h

let cancel t = function
  | Call c ->
      if c.state >= 0 then release t c.state;
      c.state <- -1
  | Resolver _ | Waited _ | Reject _ | Idle -> ()

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
          | Some eng -> register (Resolver { eng; k; used = false })
          | None -> assert false (* set by the handler *)) )

let park p = try perform p with Effect.Unhandled _ -> raise Not_in_process

(* A one-off parker: a process that blocks in the same place again and
   again builds its parker once instead. *)
let suspend register = park (parker register)

let used_twice () = invalid_arg "Engine: resolver used twice"

(* The resolver joins the back of the lane as it is. *)
let resolve = function
  | Resolver r as act ->
      if r.used then used_twice ();
      r.used <- true;
      ignore (push_lane r.eng act : int)
  | Call _ | Waited _ | Reject _ | Idle -> assert false (* not a resolver *)

let reject act e =
  match act with
  | Resolver r ->
      if r.used then used_twice ();
      r.used <- true;
      ignore (push_lane r.eng (Reject (r.k, e)) : int)
  | Call _ | Waited _ | Reject _ | Idle -> assert false (* not a resolver *)

let wake = function
  | Call c -> c.f ()
  | Resolver _ as r -> resolve r
  | Idle -> ()
  | Waited _ | Reject _ -> assert false (* never handed out *)

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

let spawn t f = arm_at t (timer (fun () -> run_fiber t f)) t.clock.now

let create () =
  let t =
    {
      clock = { now = 0. };
      times = [||];
      seqs = [||];
      slots = [||];
      len = 0;
      acts = [||];
      pos = [||];
      free = [||];
      seq = 0;
      lane = [||];
      lane_head = 0;
      lane_len = 0;
      processed = 0;
      wake = { now = 0. };
      on_wait = None;
      self = None;
    }
  in
  t.on_wait <- Some (fun k -> enqueue t ~at:t.wake.now (Waited k));
  t.self <- Some t;
  t

let events_processed t = t.processed

(* Fire one event taken from a queue; [time] is its time. Inlined into
   [run], so [time] is never boxed. *)
let[@inline] fire t act time =
  t.clock.now <- time;
  t.processed <- t.processed + 1;
  match act with
  | Call c ->
      c.state <- -1;
      c.f ()
  | Resolver r -> continue r.k ()
  | Waited k -> continue k ()
  | Reject (k, e) -> discontinue k e
  | Idle -> assert false (* never queued *)

let run ?until t =
  let horizon =
    match until with
    | None -> infinity
    | Some u ->
        if not (u >= t.clock.now) then
          invalid_arg
            (if Float.is_nan u then "Engine.run: until is NaN"
             else
               Printf.sprintf "Engine.run: until %g is in the past (now %g)" u
                 t.clock.now);
        u
  in
  (* Lane entries are due now, which is never past [horizon]. *)
  while t.lane_len > 0 || (t.len > 0 && not (t.times.(0) > horizon)) do
    if t.len > 0 && (t.lane_len = 0 || t.times.(0) <= t.clock.now) then begin
      let time = t.times.(0) in
      fire t (take_head t) time
    end
    else begin
      let i = t.lane_head in
      match take_lane t with
      | Call c when c.state <> -2 - i -> () (* cancelled or re-armed *)
      | act -> fire t act t.clock.now
    end
  done;
  (* Every event due by [until] has fired, so the clock moves to [until]
     and later events stay queued. *)
  match until with Some u -> t.clock.now <- u | None -> ()
