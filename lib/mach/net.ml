(** The network manager (Section 3.5).

    A switch with negligible wire time: a message costs [inst_per_msg] CPU
    instructions at the sending node and again at the receiving node, both
    served in the CPU's high-priority FCFS message class. Local deliveries
    (src = dst) are free procedure calls.

    A fault plan can install a {e judge}: per protocol message it returns
    the extra delay of each copy to deliver ([[]] = dropped). Only sends
    explicitly marked [~faulty:true] are judged — control-plane traffic
    (replica-write RPCs, abort requests, Snoop rounds) is modeled as a
    reliable channel. With no judge installed, a marked send costs exactly
    the same as an unmarked one. *)

open Desim

type t = {
  inst_per_msg : float;
  cpu_of : Ids.node_ref -> Cpu.t;
  eng : Engine.t;  (** schedules judged, delayed deliveries *)
  mutable messages_sent : int;
  mutable on_msg :
    (sent:bool -> src:Ids.node_ref -> dst:Ids.node_ref -> unit) option;
      (** observer of message traffic: called with [~sent:true] when a
          message is handed to the sender's CPU and [~sent:false] when it
          is delivered at the destination. [None] (the default) costs
          nothing. *)
  mutable judge : (src:Ids.node_ref -> dst:Ids.node_ref -> float list) option;
}

let create ~eng ~inst_per_msg ~cpu_of =
  { inst_per_msg; cpu_of; eng; messages_sent = 0; on_msg = None; judge = None }

(** Attach (or detach) the message observer. *)
let set_on_msg t on_msg = t.on_msg <- on_msg

(** Attach (or detach) the fault judge. *)
let set_judge t judge = t.judge <- judge

(* Wrap [deliver] so the observer sees the delivery; identity when no
   observer is attached. *)
let observed t ~src ~dst deliver =
  match t.on_msg with
  | None -> deliver
  | Some f ->
      fun () ->
        f ~sent:false ~src ~dst;
        deliver ()

let note_send t ~src ~dst =
  match t.on_msg with Some f -> f ~sent:true ~src ~dst | None -> ()

let deliver_at t ~src ~dst deliver =
  Cpu.submit_priority (t.cpu_of dst) ~instructions:t.inst_per_msg
    (observed t ~src ~dst deliver)

(* One delivered copy per verdict entry, each after its extra delay. *)
let rec deliver_copies t ~src ~dst deliver = function
  | [] -> ()
  | d :: rest ->
      (if d > 0. then
         ignore
           (Engine.schedule_after t.eng ~delay:d (fun () ->
                deliver_at t ~src ~dst deliver)
             : Engine.handle)
       else deliver_at t ~src ~dst deliver);
      deliver_copies t ~src ~dst deliver rest

(* Receiver-side routing: without a judge (or for reliable sends) exactly
   one immediate delivery; judged sends deliver one copy per verdict
   entry. *)
let route t ~faulty ~src ~dst deliver =
  match (if faulty then t.judge else None) with
  | None -> deliver_at t ~src ~dst deliver
  | Some judge -> deliver_copies t ~src ~dst deliver (judge ~src ~dst)

(** [send t ~src ~dst deliver]: blocks the calling process for the sender-
    side CPU cost, then (asynchronously) charges the receiver-side cost and
    invokes [deliver] at the destination. *)
let send ?(faulty = false) t ~src ~dst deliver =
  if Ids.node_ref_equal src dst then deliver ()
  else begin
    t.messages_sent <- t.messages_sent + 1;
    note_send t ~src ~dst;
    Cpu.consume_priority (t.cpu_of src) ~instructions:t.inst_per_msg;
    route t ~faulty ~src ~dst deliver
  end

(** Like {!send} but fully asynchronous: usable outside process context
    (e.g. from an event callback); the sender-side cost is still charged
    to the sender's CPU. *)
let send_async ?(faulty = false) t ~src ~dst deliver =
  if Ids.node_ref_equal src dst then deliver ()
  else begin
    t.messages_sent <- t.messages_sent + 1;
    note_send t ~src ~dst;
    Cpu.submit_priority (t.cpu_of src) ~instructions:t.inst_per_msg (fun () ->
        route t ~faulty ~src ~dst deliver)
  end

let messages_sent t = t.messages_sent
