(* An idle disk serves a request at once, so the queues fill only behind
   an access in service. The access in service and its kind live in
   mutable fields, its completion callback is built once in [create],
   and the blocking wrappers park the process with a prebuilt
   {!Engine.parker}: a steady-state access allocates only the engine's
   resolver and event entries and its [Waiter.t]. *)

type t = {
  eng : Engine.t;
  clock : Engine.clock;
  rng : Rng.t;
  min_time : float;
  max_time : float;
  reads : Waiter.t Queue.t;
  writes : Waiter.t Queue.t;
  mutable busy : bool;
  mutable writing : bool;  (** kind of the access in service *)
  mutable serving : Waiter.t;
  mutable on_done : unit -> unit;
  mutable park_read : unit Engine.parker option;
  mutable park_write : unit Engine.parker option;
  util : Stats.Utilization.t;
  mutable n_reads : int;
  mutable n_writes : int;
}

let idle = Waiter.Call ignore

let record_util t = Stats.Utilization.set_busy t.util ~busy:t.busy

let start t ~write w =
  t.busy <- true;
  t.writing <- write;
  t.serving <- w;
  record_util t;
  let service = Rng.uniform t.rng ~lo:t.min_time ~hi:t.max_time in
  ignore (Engine.schedule_after t.eng ~delay:service t.on_done : Engine.handle)

(* Writes are served before reads. *)
let served t =
  let w = t.serving in
  t.serving <- idle;
  t.busy <- false;
  if t.writing then t.n_writes <- t.n_writes + 1
  else t.n_reads <- t.n_reads + 1;
  record_util t;
  if not (Queue.is_empty t.writes) then start t ~write:true (Queue.pop t.writes)
  else if not (Queue.is_empty t.reads) then
    start t ~write:false (Queue.pop t.reads);
  Waiter.wake w

let create eng rng ~min_time ~max_time =
  assert (0. <= min_time && min_time <= max_time);
  let clock = Engine.clock eng in
  let t =
    {
      eng;
      clock;
      rng;
      min_time;
      max_time;
      reads = Queue.create ();
      writes = Queue.create ();
      busy = false;
      writing = false;
      serving = idle;
      on_done = ignore;
      park_read = None;
      park_write = None;
      util = Stats.Utilization.create clock;
      n_reads = 0;
      n_writes = 0;
    }
  in
  t.on_done <- (fun () -> served t);
  t

let submit t ~write w =
  if t.busy then Queue.push w (if write then t.writes else t.reads)
  else start t ~write w

let submit_read t k = submit t ~write:false (Waiter.Call k)
let submit_write t k = submit t ~write:true (Waiter.Call k)

(* Built on the first block, not in [create], for the reason the CPU's
   parkers are. *)
let park t ~write =
  match if write then t.park_write else t.park_read with
  | Some p -> p
  | None ->
      let p = Engine.parker (fun r -> submit t ~write (Waiter.Resume r)) in
      if write then t.park_write <- Some p else t.park_read <- Some p;
      p

let read t = Engine.park (park t ~write:false)
let write t = Engine.park (park t ~write:true)

let queue_length t =
  Queue.length t.reads + Queue.length t.writes + if t.busy then 1 else 0

let utilization t = Stats.Utilization.value t.util
let busy_time t = Stats.Utilization.busy_time t.util
let reset_window t = Stats.Utilization.set_window t.util
let op_counts t = (t.n_reads, t.n_writes)
