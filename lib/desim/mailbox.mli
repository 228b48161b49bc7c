(** Unbounded FIFO message queue with blocking receive.

    Multiple senders, multiple (queued) receivers. Used for node message
    dispatch loops and coordinator/cohort communication. *)

type 'a t

val create : unit -> 'a t

(** Enqueue a message; wakes the longest-waiting live receiver, if any. *)
val send : 'a t -> 'a -> unit

(** Dequeue a message, blocking the calling process while empty. *)
val recv : 'a t -> 'a

(** [recv_timeout t eng ~timeout] is [Some m] like {!recv}, or [None] if
    no message arrives within [timeout] simulated seconds. A timed-out
    receive consumes nothing: the next message goes to the next receiver
    (or the queue). The timer is armed only when the call actually
    blocks, so a non-empty mailbox costs no engine event, and a receive
    served before its deadline cancels the timer, leaving no event
    behind. *)
val recv_timeout : 'a t -> Engine.t -> timeout:float -> 'a option

(** [try_recv t] is [Some m] without blocking, or [None] when empty. *)
val try_recv : 'a t -> 'a option

(** Number of queued (undelivered) messages. *)
val length : 'a t -> int
