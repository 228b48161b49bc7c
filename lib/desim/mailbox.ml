(* Receivers park as cancellable cells: a timed-out cell is marked dead
   and skipped by senders, so an expired [recv_timeout] can never steal a
   message from a later receiver. *)
type 'a waiter = {
  mutable live : bool;
  resolver : 'a option Engine.resolver;
}

type 'a t = {
  msgs : 'a Queue.t;
  waiters : 'a waiter Queue.t;
}

let create () = { msgs = Queue.create (); waiters = Queue.create () }

let send t m =
  let rec wake () =
    match Queue.take_opt t.waiters with
    | None -> Queue.push m t.msgs
    | Some w when not w.live -> wake ()
    | Some w ->
        w.live <- false;
        Engine.resolve w.resolver (Some m)
  in
  wake ()

let recv t =
  if not (Queue.is_empty t.msgs) then Queue.pop t.msgs
  else
    match
      Engine.suspend (fun r -> Queue.push { live = true; resolver = r } t.waiters)
    with
    | Some m -> m
    | None -> assert false (* plain recv arms no timer *)

let recv_timeout t eng ~timeout =
  if not (Queue.is_empty t.msgs) then Some (Queue.pop t.msgs)
  else
    Engine.suspend (fun r ->
        let w = { live = true; resolver = r } in
        Queue.push w t.waiters;
        ignore
          (Engine.schedule_after eng ~delay:timeout (fun () ->
               if w.live then begin
                 w.live <- false;
                 Engine.resolve w.resolver None
               end)
            : Engine.handle))

let try_recv t = if Queue.is_empty t.msgs then None else Some (Queue.pop t.msgs)

let length t = Queue.length t.msgs
