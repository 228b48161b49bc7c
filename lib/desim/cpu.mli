(** CPU model per the paper's resource manager (Section 3.4):

    - one CPU per node executing [rate] instructions per second;
    - message processing is served FCFS at high priority (it preempts all
      other work);
    - everything else is served processor-sharing.

    The core interface is callback-based so it can be driven both from
    simulation processes (via the blocking wrappers) and from event code
    such as message delivery. *)

type t

(** [create eng ~rate] with [rate] in instructions per second. *)
val create : Engine.t -> rate:float -> t

(** Submit [instructions] of processor-sharing work; [k] runs on
    completion. Zero or negative work completes immediately. *)
val submit : t -> instructions:float -> (unit -> unit) -> unit

(** Submit high-priority FCFS (message-class) work. *)
val submit_priority : t -> instructions:float -> (unit -> unit) -> unit

(** Blocking wrappers (valid only inside a process). *)
val consume : t -> instructions:float -> unit

val consume_priority : t -> instructions:float -> unit

(** Number of jobs currently in the processor-sharing class. *)
val ps_load : t -> int

(** Mean utilization (busy fraction) since the start of the observation
    window. *)
val utilization : t -> float

(** Cumulative busy time since creation; never reset, so samplers can
    difference successive readings for interval utilizations. *)
val busy_time : t -> float

(** Reset the utilization observation window to the current time. *)
val reset_window : t -> unit
