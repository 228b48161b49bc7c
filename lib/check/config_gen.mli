(** Random-but-valid simulation configurations for property tests.

    Generates {!Ddbm_model.Params.t} values that always satisfy
    [Params.validate] — including fault plans and durability models —
    with runs sized to finish fast, plus a structure-aware shrinker that
    preserves validity while simplifying counterexamples. *)

open Ddbm_model

(** Generator over valid configurations (fault plan and durability model
    included; roughly half the mass on the zero fault plan). *)
val gen : Params.t QCheck.Gen.t

(** Generator over valid arrival specs: mostly the closed loop, the rest
    open-loop rate processes (constant QPS and multi-segment profiles,
    flash crowds included) with admission queues sized to overload. The
    MPL limiter is always on for open-loop draws. *)
val gen_arrivals : Arrival.t QCheck.Gen.t

(** Shrinker: simplifies toward fewer terminals/nodes/pages, the zero
    fault plan, and the durability model off, never leaving the valid
    region. *)
val shrink : Params.t -> Params.t QCheck.Iter.t

(** Round-trippable rendering, one [key = value] line per key
    ({!Replay.params_to_string}). *)
val print : Params.t -> string

(** QCheck arbitrary over valid configurations, with printing via the
    replay codec and structure-aware shrinking. *)
val arbitrary : Params.t QCheck.arbitrary
