(** Dispatch point for typed {!Event} streams.

    The machine builds an event only under an [if traced t] guard, so a
    run without a tracer attached allocates nothing for tracing: no event
    value and no closure to build one later. Multiple sinks — the timeline
    reconstructor, file exporters — can observe the same run. *)

type sink = time:float -> Event.t -> unit

type t = { mutable sinks : sink list }

let create () = { sinks = [] }

(** Sinks observe events in attachment order. *)
let attach t sink = t.sinks <- t.sinks @ [ sink ]

let active t = t.sinks <> []

let rec emit_to sinks ~time ev =
  match sinks with
  | [] -> ()
  | sink :: rest ->
      sink ~time ev;
      emit_to rest ~time ev

let emit t ~time ev = emit_to t.sinks ~time ev
