(** Dispatch point for typed {!Event} streams.

    The machine builds an event only under an [if traced t] guard, so a
    run without a tracer attached allocates nothing for tracing: no event
    value and no closure to build one later. Multiple sinks — the timeline
    reconstructor, file exporters — can observe the same run. *)

type sink = time:float -> Event.t -> unit

type t

val create : unit -> t

(** Sinks observe events in attachment order. *)
val attach : t -> sink -> unit

val emit : t -> time:float -> Event.t -> unit
