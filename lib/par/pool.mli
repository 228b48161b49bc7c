(** Hand-rolled work-stealing domain pool for embarrassingly parallel
    batches of simulation runs.

    A batch fixes its worker set ([min jobs n] domains) up front; tasks
    are dealt round-robin into per-worker deques (owners pop from the
    front, thieves steal from the back) and results are merged into an
    array slot per task index, so the output is independent of execution
    order. Each task must be a pure function of its input — the
    simulator's per-(seed, params) determinism provides exactly that —
    which makes a parallel map value-identical to the serial one at any
    job count. *)

type t

(** Raised when a parallel map is attempted from inside a pool task.
    Fan-out sites in this codebase are all top-level; nesting would
    silently oversubscribe the machine. A [jobs = 1] pool never raises
    this: its serial path is safe anywhere. *)
exception Nested_parallelism

(** [Domain.recommended_domain_count ()]: the default for [create] and
    for every [--jobs] flag. *)
val default_jobs : unit -> int

(** [create ~jobs ()] with [jobs >= 1] worker domains per batch
    (default {!default_jobs}). [jobs = 1] short-circuits every map to
    the plain serial path on the calling domain — no domains are
    spawned at all. *)
val create : ?jobs:int -> unit -> t

val jobs : t -> int

(** [map_array t f inputs] applies [f] to every element, in parallel
    over the pool, and returns the results in input order. The calling
    domain participates as a worker. If any task raises, the batch is
    cancelled (no further task starts), all workers are joined, and the
    failure with the smallest task index is re-raised — the call never
    hangs and never returns partial results. *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

val map : t -> ('a -> 'b) -> 'a list -> 'b list
