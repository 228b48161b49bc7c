(** Globally unique, totally ordered timestamps.

    Built from a simulated time plus a tie-breaking sequence number drawn
    from a shared allocator, as a real system would combine a clock with a
    site/sequence suffix. *)

type t = { time : float; uniq : int }

val compare : t -> t -> int
val equal : t -> t -> bool
val max : t -> t -> t
val ( < ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Allocator of unique suffixes; one per simulation run. *)
module Clock : sig
  type ts = t
  type t

  val create : unit -> t
  val make : t -> time:float -> ts
end
