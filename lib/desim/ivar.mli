(** Write-once synchronization variable.

    Processes block in {!read} until someone calls {!fill}; all waiters
    are then resumed with the value. *)

type 'a t

val create : unit -> 'a t

(** [fill t v] resolves all current and future readers with [v].
    Raises [Invalid_argument] if already filled. *)
val fill : 'a t -> 'a -> unit

(** Block until filled; returns the value. Only valid inside a simulation
    process. *)
val read : 'a t -> 'a
