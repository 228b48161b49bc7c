(** Array-based binary min-heap over a user-supplied total order.

    The CPU's processor-sharing class keeps its jobs in one, ordered by
    finish tag. Ties must be broken by the caller (the CPU uses the arrival
    sequence number) so that the drain order is deterministic. The engine's
    event queue is not built on this module: it keeps its own monomorphic
    heap. *)

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
