(** Random-but-valid simulation configurations for property tests.

    Generates {!Ddbm_model.Params.t} values that always satisfy
    [Params.validate] — including fault plans and durability models —
    with runs sized to finish fast, plus a shrinker driven by the replay
    codec's key table that never leaves the valid region. *)

open Ddbm_model

(** Generator over valid configurations (fault plan and durability model
    included; roughly half the mass on the zero fault plan). *)
val gen : Params.t QCheck.Gen.t

(** Generator over valid arrival specs: mostly the closed loop, the rest
    open-loop rate processes (constant QPS and multi-segment profiles,
    flash crowds included) with admission queues sized to overload. The
    MPL limiter is always on for open-loop draws. *)
val gen_arrivals : Arrival.t QCheck.Gen.t

(** Shrinker over the replay codec's lines ({!Replay.params_to_string}).
    The simplest record has one node at partitioning degree 1, no
    replication, at most 2 terminals, 1 page per partition, no think
    time, parallel execution, no [model_logging], no fresh restart plan,
    a measure of at most 5 s, the durability model off, the zero fault
    plan and the closed loop; every other key, the seed included, keeps
    its value. Each line that differs from the simplest record's
    proposes, in order: the simplest value; for an integer, the midpoint
    and then points ever closer to the current value (halving the step);
    for an item-form spec ([faults], [arrivals]), the spec with one item
    dropped — one crash entry or one profile segment, say. A proposal is
    yielded only if {!Replay.params_of_string} reads it back, and that
    validates. Every proposal moves one line strictly closer to the
    simplest record, so shrinking terminates. *)
val shrink : Params.t -> Params.t QCheck.Iter.t

(** Round-trippable rendering, one [key = value] line per key
    ({!Replay.params_to_string}). *)
val print : Params.t -> string

(** QCheck arbitrary over valid configurations: {!gen}, printed by
    {!print} and shrunk by {!shrink}. *)
val arbitrary : Params.t QCheck.arbitrary
