(** The network manager (Section 3.5): a switch with negligible wire time.
    A message costs [inst_per_msg] CPU instructions at the sending node
    and again at the receiving node, both served in the CPU's
    high-priority FCFS message class. Local deliveries (src = dst) are
    free procedure calls.

    A fault plan can install a per-message {e judge} (see {!set_judge});
    only sends marked [~faulty:true] are judged — everything else is
    modeled as a reliable control-plane channel. *)

type t

(** [eng] schedules the judged copies that arrive with extra delay. *)
val create :
  eng:Desim.Engine.t ->
  inst_per_msg:float ->
  cpu_of:(Ids.node_ref -> Desim.Cpu.t) ->
  t

(** [send t ~src ~dst deliver] blocks the calling process for the
    sender-side CPU cost, then asynchronously charges the receiver-side
    cost and runs [deliver] at the destination. [~faulty:true] subjects
    the message to the installed judge, if any. *)
val send :
  ?faulty:bool ->
  t ->
  src:Ids.node_ref ->
  dst:Ids.node_ref ->
  (unit -> unit) ->
  unit

(** Fully asynchronous variant, usable outside process context; the
    sender-side cost is still charged to the sender's CPU. With a zero
    per-message cost, delivery happens synchronously inside the call. *)
val send_async :
  ?faulty:bool ->
  t ->
  src:Ids.node_ref ->
  dst:Ids.node_ref ->
  (unit -> unit) ->
  unit

(** Total messages sent (excluding free local deliveries). Judged
    messages count once regardless of the verdict. *)
val messages_sent : t -> int

(** Attach (or detach, with [None]) a message-traffic observer: called
    with [~sent:true] when a message is handed to the sender's CPU and
    [~sent:false] when it is delivered at the destination. Local
    deliveries are never observed; every delivered copy of a duplicated
    message is. No cost when unset. *)
val set_on_msg :
  t -> (sent:bool -> src:Ids.node_ref -> dst:Ids.node_ref -> unit) option -> unit

(** Attach (or detach) the fault judge. Per judged message it returns the
    extra delay of each copy to deliver: [[]] = drop, [[0.]] = one
    immediate copy, [[0.; d]] = a duplicate arriving [d] later. The judge
    is consulted once per {e marked} send; the sender-side cost is
    already paid by then (a dropped message still cost CPU to send). *)
val set_judge :
  t -> (src:Ids.node_ref -> dst:Ids.node_ref -> float list) option -> unit
