(* An idle disk serves a request at once, so the queues fill only behind
   an access in service. The access in service and its kind live in
   mutable fields, one completion timer is built on the first access and
   re-armed for every later one, and the blocking wrappers park the
   process with a prebuilt {!Engine.parker}. A queued access is an
   {!Engine.handle}, fired by {!Engine.wake}: a callback's timer, or the
   blocked process's resolver, which is its wake-up too. It waits in a
   {!Ring}, which allocates nothing once it has grown to the longest
   queue. So a steady-state blocking access, queued or not, allocates
   only the resolver and its draw of the service time. *)

type t = {
  eng : Engine.t;
  clock : Engine.clock;
  rng : Rng.t;
  min_time : float;
  max_time : float;
  reads : Engine.handle Ring.t;
  writes : Engine.handle Ring.t;
  mutable busy : bool;
  mutable writing : bool;  (** kind of the access in service *)
  mutable serving : Engine.handle;
  mutable timer : Engine.handle option;
      (** the completion timer, built on its first arm and re-armed *)
  due : Engine.due;
  mutable park_read : Engine.parker option;
  mutable park_write : Engine.parker option;
  util : Stats.Utilization.t;
  mutable n_reads : int;
  mutable n_writes : int;
}

let record_util t = Stats.Utilization.set_busy t.util ~busy:t.busy

let rec start t ~write w =
  t.busy <- true;
  t.writing <- write;
  t.serving <- w;
  record_util t;
  let service = Rng.uniform t.rng ~lo:t.min_time ~hi:t.max_time in
  t.due.at <- t.clock.now +. service;
  let h =
    match t.timer with
    | Some h -> h
    | None ->
        let h = Engine.timer (fun () -> served t) in
        t.timer <- Some h;
        h
  in
  Engine.arm t.eng h t.due

(* Writes are served before reads. *)
and served t =
  let w = t.serving in
  t.serving <- Engine.idle;
  t.busy <- false;
  if t.writing then t.n_writes <- t.n_writes + 1
  else t.n_reads <- t.n_reads + 1;
  record_util t;
  if not (Ring.is_empty t.writes) then start t ~write:true (Ring.pop t.writes)
  else if not (Ring.is_empty t.reads) then
    start t ~write:false (Ring.pop t.reads);
  Engine.wake w

let create eng rng ~min_time ~max_time =
  assert (0. <= min_time && min_time <= max_time);
  let clock = Engine.clock eng in
  {
    eng;
    clock;
    rng;
    min_time;
    max_time;
    reads = Ring.create Engine.idle;
    writes = Ring.create Engine.idle;
    busy = false;
    writing = false;
    serving = Engine.idle;
    timer = None;
    due = { at = 0. };
    park_read = None;
    park_write = None;
    util = Stats.Utilization.create clock;
    n_reads = 0;
    n_writes = 0;
  }

let submit t ~write w =
  if t.busy then Ring.push (if write then t.writes else t.reads) w
  else start t ~write w

let submit_read t k = submit t ~write:false (Engine.timer k)
let submit_write t k = submit t ~write:true (Engine.timer k)

(* Built on the first block, not in [create], for the reason the CPU's
   parkers are. *)
let park t ~write =
  match if write then t.park_write else t.park_read with
  | Some p -> p
  | None ->
      let p = Engine.parker (fun r -> submit t ~write (r :> Engine.handle)) in
      if write then t.park_write <- Some p else t.park_read <- Some p;
      p

let read t = Engine.park (park t ~write:false)
let write t = Engine.park (park t ~write:true)

let queue_length t =
  Ring.length t.reads + Ring.length t.writes + if t.busy then 1 else 0

let utilization t = Stats.Utilization.value t.util
let busy_time t = Stats.Utilization.busy_time t.util
let reset_window t = Stats.Utilization.set_window t.util
let op_counts t = (t.n_reads, t.n_writes)
