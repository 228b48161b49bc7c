type t = {
  eng : Engine.t;
  rng : Rng.t;
  min_time : float;
  max_time : float;
  reads : (unit -> unit) Queue.t;
  writes : (unit -> unit) Queue.t;
  mutable busy : bool;
  util : Stats.Utilization.t;
  mutable n_reads : int;
  mutable n_writes : int;
}

let create eng rng ~min_time ~max_time =
  assert (0. <= min_time && min_time <= max_time);
  {
    eng;
    rng;
    min_time;
    max_time;
    reads = Queue.create ();
    writes = Queue.create ();
    busy = false;
    util = Stats.Utilization.create ~now:(Engine.now eng);
    n_reads = 0;
    n_writes = 0;
  }

let record_util t =
  Stats.Utilization.set_busy_level t.util ~now:(Engine.now t.eng)
    ~level:(if t.busy then 1.0 else 0.0)

let rec pump t =
  if not t.busy then begin
    let next =
      if not (Queue.is_empty t.writes) then Some (`Write, Queue.pop t.writes)
      else if not (Queue.is_empty t.reads) then Some (`Read, Queue.pop t.reads)
      else None
    in
    match next with
    | None -> ()
    | Some (kind, k) ->
        t.busy <- true;
        record_util t;
        let service = Rng.uniform t.rng ~lo:t.min_time ~hi:t.max_time in
        ignore
          (Engine.schedule_after t.eng ~delay:service (fun () ->
               t.busy <- false;
               (match kind with
               | `Read -> t.n_reads <- t.n_reads + 1
               | `Write -> t.n_writes <- t.n_writes + 1);
               record_util t;
               pump t;
               k ())
            : Engine.handle)
  end

let submit_read t k =
  Queue.push k t.reads;
  pump t

let submit_write t k =
  Queue.push k t.writes;
  pump t

let read t =
  Engine.suspend (fun r -> submit_read t (fun () -> Engine.resolve r ()))

let write t =
  Engine.suspend (fun r -> submit_write t (fun () -> Engine.resolve r ()))

let queue_length t =
  Queue.length t.reads + Queue.length t.writes + if t.busy then 1 else 0

let utilization t = Stats.Utilization.value t.util ~now:(Engine.now t.eng)
let busy_time t = Stats.Utilization.busy_time t.util ~now:(Engine.now t.eng)
let reset_window t = Stats.Utilization.set_window t.util ~now:(Engine.now t.eng)
let op_counts t = (t.n_reads, t.n_writes)
