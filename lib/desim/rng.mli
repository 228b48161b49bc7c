(** Deterministic pseudo-random number streams for simulation.

    Based on splitmix64, which is fast and has well-understood statistical
    properties. Every model component owns its own stream (split from a root
    seed) so that changing one component's consumption pattern does not
    perturb the others — the standard common-random-numbers discipline for
    comparing concurrency control algorithms under identical workloads. *)

type t

(** [create seed] is a fresh stream. Equal seeds yield equal streams. *)
val create : int -> t

(** [split t] derives an independent child stream; deterministic in the
    parent's current state. *)
val split : t -> t

(** Raw next 64-bit output. *)
val next_int64 : t -> int64

(** Uniform float in [0, 1). *)
val float : t -> float

(** Uniform float in [lo, hi). Requires [lo <= hi]. *)
val uniform : t -> lo:float -> hi:float -> float

(** Exponentially distributed value with the given mean (>= 0).
    [exponential t ~mean:0.] is 0. *)
val exponential : t -> mean:float -> float

(** Uniform integer in [0, n). Requires [n > 0]. *)
val int : t -> int -> int

(** Uniform integer in [lo, hi] inclusive. Requires [lo <= hi]. *)
val int_range : t -> lo:int -> hi:int -> int

(** Bernoulli trial: true with probability [p]. *)
val bool : t -> p:float -> bool

(** [sample_into t ~n dst] fills [dst] with [Array.length dst] distinct
    integers drawn uniformly from [0, n), in draw order (a partial
    Fisher-Yates shuffle). Requires [Array.length dst <= n]. *)
val sample_into : t -> n:int -> int array -> unit

(** [sample_without_replacement t ~n ~k] is the [k] integers
    {!sample_into} draws, last drawn first. Requires [0 <= k <= n]. *)
val sample_without_replacement : t -> n:int -> k:int -> int list

