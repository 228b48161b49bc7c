(** A growable FIFO in a circular array: the queue of every kernel that
    serves first come, first served (a disk's reads and writes, the CPU's
    message class, a mailbox's messages).

    The cells are built on the first push and doubled when full, so a
    push or a pop allocates nothing once the ring has reached the
    longest queue it serves. A pop writes the ring's blank into the cell
    it empties, so a ring keeps nothing alive but its blank: an entry it
    has handed out stays reachable from it only if it is the blank.

    A ring may carry one float beside each entry, unboxed in a column of
    its own. The float goes in and out through a {!float_cell}: a float
    passed to or returned by a function of another module is boxed
    (each module is compiled [-opaque] in dune's default profile, so no
    call into this one is inlined), and one read or written through a
    float-only record is not. *)

type 'a t

(** [create blank] is an empty ring whose free cells hold [blank]. *)
val create : 'a -> 'a t

val is_empty : 'a t -> bool
val length : 'a t -> int

(** Queue an entry at the back. *)
val push : 'a t -> 'a -> unit

(** Take the oldest entry. Raises [Invalid_argument] when empty. *)
val pop : 'a t -> 'a

type float_cell = { mutable value : float }

(** [push_with r x c] queues [x] with the float [c.value]. *)
val push_with : 'a t -> 'a -> float_cell -> unit

(** [pop_with r c] takes the oldest entry, as {!pop}, and writes its
    float into [c.value]. The float is meaningful for an entry queued
    with {!push_with}. *)
val pop_with : 'a t -> float_cell -> 'a
