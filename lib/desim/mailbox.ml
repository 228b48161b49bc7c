(* A plain receiver parks its resolver as is and is handed the message
   itself. A timed receiver parks as a cancellable cell: a timed-out cell
   is marked dead and skipped by senders, so an expired [recv_timeout]
   can never steal a message from a later receiver. *)
type 'a cell = { mutable live : bool; resolver : 'a option Engine.resolver }

type 'a waiter = Plain of 'a Engine.resolver | Timed of 'a cell

type 'a t = {
  msgs : 'a Queue.t;
  waiters : 'a waiter Queue.t;
  mutable park : 'a Engine.parker option;
      (** a plain receive's parker, built on the first one that blocks *)
}

let create () = { msgs = Queue.create (); waiters = Queue.create (); park = None }

let rec send t m =
  if Queue.is_empty t.waiters then Queue.push m t.msgs
  else
    match Queue.pop t.waiters with
    | Plain r -> Engine.resolve r m
    | Timed c when not c.live -> send t m
    | Timed c ->
        c.live <- false;
        Engine.resolve c.resolver (Some m)

let recv t =
  if not (Queue.is_empty t.msgs) then Queue.pop t.msgs
  else
    let p =
      match t.park with
      | Some p -> p
      | None ->
          let p = Engine.parker (fun r -> Queue.push (Plain r) t.waiters) in
          t.park <- Some p;
          p
    in
    Engine.park p

let recv_timeout t eng ~timeout =
  if not (Queue.is_empty t.msgs) then Some (Queue.pop t.msgs)
  else
    Engine.suspend (fun resolver ->
        let c = { live = true; resolver } in
        Queue.push (Timed c) t.waiters;
        ignore
          (Engine.schedule_after eng ~delay:timeout (fun () ->
               if c.live then begin
                 c.live <- false;
                 Engine.resolve resolver None
               end)
            : Engine.handle))

let try_recv t = if Queue.is_empty t.msgs then None else Some (Queue.pop t.msgs)

let length t = Queue.length t.msgs
