(** Array-based binary min-heap over a user-supplied total order. Ties
    must be broken by the caller so that the drain order is
    deterministic.

    The simulator's own queues are not built on this module: the engine's
    event queue and the CPU's processor-sharing class each keep a
    monomorphic heap on unboxed (time, seq) keys, which neither calls a
    comparator nor boxes a key per element. The engine's heap holds only
    later events (those due now wait in a FIFO ring) and keeps each
    action in a slot array, so its sifts move no pointer. *)

type 'a t

(** [create ~cmp] is an empty heap ordered by [cmp] (strictly less = negative). *)
val create : cmp:('a -> 'a -> int) -> 'a t

(** Number of elements currently stored. *)
val size : 'a t -> int

val is_empty : 'a t -> bool

(** Insert an element. Amortized O(log n). *)
val push : 'a t -> 'a -> unit

(** Smallest element, or [None] when empty. Does not remove. *)
val peek : 'a t -> 'a option

exception Empty

(** Smallest element without removing it. Unlike {!peek} this allocates
    nothing — the CPU kernel inspects the head on every completion check,
    and the [Some] wrappers were measurable churn. Raises {!Empty} when the
    heap is empty. *)
val top : 'a t -> 'a

(** Remove the smallest element (the one {!top} returns). O(log n).
    Raises {!Empty} when the heap is empty. *)
val drop : 'a t -> unit

(** Remove and return the smallest element, or [None] when empty. *)
val pop : 'a t -> 'a option

(** Remove all elements. *)
val clear : 'a t -> unit

(** Fold over elements in arbitrary (heap) order. *)
val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
