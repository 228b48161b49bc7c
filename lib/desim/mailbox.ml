(* One process reads a mailbox at a time, so a blocked reader is one
   resolver in [reader] and a state says where its receive stands:

   - [Idle]: no receive is blocked;
   - [Waiting]: the reader is blocked, its resolver in [reader];
   - [Woken]: a sender has queued a message and woken the reader, which
     has not run yet;
   - [Timed_out]: the reader's timer fired first.

   Every message goes through the ring, so the woken reader takes it
   from there. A timed receive arms the mailbox's one timer, built on the
   first timed receive; a served receive cancels it. A timer that fires
   after a sender has woken the reader (a message and the deadline due at
   the same instant) finds the reader [Woken] and does nothing, so the
   message is not lost. *)
type state = Idle | Waiting | Woken | Timed_out

type 'a t = {
  mutable msgs : 'a Ring.t option;
      (** built on the first send: a ring needs a message as the blank
          it writes into emptied cells, and that one is the first, which
          therefore stays reachable for as long as the mailbox *)
  mutable state : state;
  mutable reader : Engine.handle;
  mutable park : Engine.parker option;
      (** the receives' parker, built on the first one that blocks *)
  mutable timer : Engine.handle option;
  due : Engine.due;
}

let create () =
  {
    msgs = None;
    state = Idle;
    reader = Engine.idle;
    park = None;
    timer = None;
    due = { at = 0. };
  }

let wake t state =
  t.state <- state;
  let r = t.reader in
  t.reader <- Engine.idle;
  Engine.wake r

let send t m =
  let r =
    match t.msgs with
    | Some r -> r
    | None ->
        let r = Ring.create m in
        t.msgs <- Some r;
        r
  in
  Ring.push r m;
  match t.state with Waiting -> wake t Woken | Idle | Woken | Timed_out -> ()

let is_empty t = match t.msgs with Some r -> Ring.is_empty r | None -> true

let pop t =
  match t.msgs with Some r -> Ring.pop r | None -> assert false (* empty *)

let enter t =
  match t.state with
  | Idle -> ()
  | Waiting | Woken | Timed_out ->
      invalid_arg "Mailbox: another process is receiving"

(* Block until a sender or the timer wakes the reader, and return the
   state it was woken in; the mailbox is idle again. *)
let block t =
  let p =
    match t.park with
    | Some p -> p
    | None ->
        let p =
          Engine.parker (fun r ->
              t.reader <- (r :> Engine.handle);
              t.state <- Waiting)
        in
        t.park <- Some p;
        p
  in
  Engine.park p;
  let woken = t.state in
  t.state <- Idle;
  woken

let recv t =
  enter t;
  if is_empty t then ignore (block t : state);
  pop t

let recv_timeout t eng ~timeout =
  enter t;
  if not (is_empty t) then Some (pop t)
  else begin
    let h =
      match t.timer with
      | Some h -> h
      | None ->
          let h =
            Engine.timer (fun () ->
                match t.state with
                | Waiting -> wake t Timed_out
                | Idle | Woken | Timed_out -> ())
          in
          t.timer <- Some h;
          h
    in
    t.due.at <- (Engine.clock eng).now +. timeout;
    Engine.arm eng h t.due;
    match block t with
    | Woken ->
        Engine.cancel eng h;
        Some (pop t)
    | Timed_out -> None
    | Idle | Waiting -> assert false
  end
