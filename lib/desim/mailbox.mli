(** Unbounded FIFO message queue with a blocking receive.

    Any number of senders, and one reader at a time: each mailbox of the
    machine belongs to one process (a cohort, its failover proxy, or a
    coordinator). A receive while another process's receive on the same
    mailbox is blocked, or woken and not yet resumed, raises
    [Invalid_argument]. The messages sit in a {!Ring}, and a blocked
    reader is one resolver held by the mailbox, so a send or a receive
    allocates nothing beyond the reader's resolver once the ring has
    grown to the longest queue. The ring's blank is the first message
    ever sent, so a mailbox keeps that one message reachable for as long
    as it lives; no other received message stays reachable from it. *)

type 'a t

val create : unit -> 'a t

(** Enqueue a message; wakes the reader, if it is blocked. *)
val send : 'a t -> 'a -> unit

(** Dequeue a message, blocking the calling process while empty. *)
val recv : 'a t -> 'a

(** [recv_timeout t eng ~timeout] is [Some m] like {!recv}, or [None] if
    no message arrives within [timeout] simulated seconds. A timed-out
    receive consumes nothing: a message arriving after it is kept for the
    next receive. A message sent at the deadline but before the timer
    fires is received. The timer is armed only when the call actually
    blocks, so a non-empty mailbox costs no engine event; it is one timer
    per mailbox, built on its first timed receive and re-armed from then
    on; and a receive served before its deadline cancels it, leaving no
    event behind. *)
val recv_timeout : 'a t -> Engine.t -> timeout:float -> 'a option
