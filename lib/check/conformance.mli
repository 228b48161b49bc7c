(** Cross-algorithm conformance engine.

    For one parameter record this module runs *every* registered
    concurrency control algorithm with the serializability auditor
    attached and asserts, per algorithm: the committed history is
    serializable, the {!Invariants} hold, and the run is bit-for-bit
    deterministic; and across algorithms, that the per-terminal plan
    streams agree (common random numbers). Failures shrink at the QCheck
    layer through {!Config_gen.shrink}, which moves one line of the
    replay codec at a time and never the seed. Every failing run, a
    shrunk one included, is written as a replay artifact ({!Replay})
    named by algorithm, seed and failure kind, so the minimum overwrites
    the first failure's artifact. *)

open Ddbm_model

type failure = {
  params : Params.t;  (** configuration, algorithm included *)
  kind : string;  (** audit | invariant | determinism | agreement *)
  detail : string;
}

val failure_to_string : failure -> string

(** One fully instrumented run: audit + plan fingerprints, optionally
    the formatted tail of the typed event stream (the last
    [trace_capacity] lifecycle events, messages and samples skipped;
    empty without it) and caller instrumentation (e.g. typed-event sinks
    or the time-series sampler), applied between creation and
    execution. *)
val run_instrumented :
  ?trace_capacity:int ->
  ?instrument:(Ddbm.Machine.t -> unit) ->
  Params.t ->
  Ddbm.Sim_result.t * Ddbm.Audit.t * int list array * string list

(** Run every algorithm in [algorithms] on [params] (the algorithm field
    of [params] is overridden), checking each in isolation and then the
    cross-algorithm workload agreement. On failure, writes a replay
    artifact into [artifact_dir] (when given) and returns the failure
    along with the artifact path. With [pool], the per-algorithm checks
    run in parallel; the reported failure (first in algorithm-list
    order) is independent of job count. *)
val check :
  ?algorithms:Params.cc_algorithm list ->
  ?artifact_dir:string ->
  ?pool:Par.Pool.t ->
  Params.t ->
  (unit, failure * string option) result

(** [sweep ~configs ~gen_seed pool] generates [configs] parameter points
    deterministically (default 50 points from seed [0xC0DE] — the same
    generator the qcheck conformance property uses) and runs the full
    {!check} on each, one configuration per pool task. Returns the
    number of clean configurations, or the first failure in generation
    order — both independent of job count. *)
val sweep :
  ?configs:int ->
  ?gen_seed:int ->
  ?artifact_dir:string ->
  Par.Pool.t ->
  (int, failure * string option) result

type replay_outcome = {
  artifact : Replay.artifact;
  reproduced : failure option;  (** [None]: the run is clean now *)
  result : Ddbm.Sim_result.t option;
      (** measured result of the (first) replayed run, when it completed *)
  trace_tail : string list;
      (** last lifecycle events of the failing run, formatted with
          {!Ddbm_model.Event.pp} *)
}

(** Load an artifact and re-execute its (seed, params, algorithm) with
    audit, invariants, determinism check and an event tail attached. *)
val replay_file :
  ?trace_capacity:int ->
  ?instrument:(Ddbm.Machine.t -> unit) ->
  string ->
  (replay_outcome, string) result
