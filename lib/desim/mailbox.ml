(* A receive that blocks parks a cell in [waiters]. A sender hands the
   message to the oldest waiting cell and then wakes its receiver, so a
   handed message never shows in [msgs]. A timed receive's cell that times
   out is marked dead and skipped by senders, so an expired [recv_timeout]
   can never steal a message from a later receiver; one that is served
   cancels its timer. *)
type 'a slot = Waiting | Got of 'a | Dead

type 'a cell = { mutable slot : 'a slot; mutable wake : Engine.handle }

type 'a t = {
  msgs : 'a Queue.t;
  waiters : 'a cell Queue.t;
  mutable parking : 'a cell;  (** the cell of the receive now blocking *)
  mutable park : Engine.parker option;
      (** the receives' parker, built on the first one that blocks *)
}

let create () =
  {
    msgs = Queue.create ();
    waiters = Queue.create ();
    parking = { slot = Dead; wake = Engine.idle };
    park = None;
  }

let rec send t m =
  if Queue.is_empty t.waiters then Queue.push m t.msgs
  else
    let c = Queue.pop t.waiters in
    match c.slot with
    | Waiting ->
        c.slot <- Got m;
        Engine.wake c.wake
    | Got _ | Dead -> send t m

(* Block until [c] is handed a message or times out. The registration
   runs inside [Engine.park] and finds [c] in [t.parking]. *)
let block t c =
  t.parking <- c;
  let p =
    match t.park with
    | Some p -> p
    | None ->
        let p =
          Engine.parker (fun r ->
              let c = t.parking in
              c.wake <- (r :> Engine.handle);
              Queue.push c t.waiters)
        in
        t.park <- Some p;
        p
  in
  Engine.park p

let recv t =
  if not (Queue.is_empty t.msgs) then Queue.pop t.msgs
  else
    let c = { slot = Waiting; wake = Engine.idle } in
    block t c;
    match c.slot with Got m -> m | Waiting | Dead -> assert false

let recv_timeout t eng ~timeout =
  if not (Queue.is_empty t.msgs) then Some (Queue.pop t.msgs)
  else begin
    let c = { slot = Waiting; wake = Engine.idle } in
    let timer =
      Engine.schedule_after eng ~delay:timeout (fun () ->
          match c.slot with
          | Waiting ->
              c.slot <- Dead;
              Engine.wake c.wake
          (* handed a message due at the same instant, and not resumed
             yet to cancel this timer *)
          | Got _ | Dead -> ())
    in
    block t c;
    match c.slot with
    | Got m ->
        Engine.cancel eng timer;
        Some m
    | Dead -> None
    | Waiting -> assert false
  end

let try_recv t = if Queue.is_empty t.msgs then None else Some (Queue.pop t.msgs)

let length t = Queue.length t.msgs
