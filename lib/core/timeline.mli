(** Per-transaction timeline reconstruction from the typed event stream.

    A timeline is a {!Ddbm_model.Tracer} sink that folds lifecycle
    events ({!Ddbm_model.Event}) back into the response-time
    decomposition of every committed transaction, using only the
    information carried by the events. The machine computes the same
    decomposition directly while running ({!Sim_result.decomp}); because
    both paths fold the identical measured deltas through
    {!Ddbm_model.Decomp.assemble} in the same order, their results agree
    bit for bit — the conformance suite uses this as a cross-check that
    the event stream is complete and correctly timed. *)

open Ddbm_model

(** One committed transaction, reconstructed. *)
type committed = {
  tid : int;
  attempt : int;  (** the committing attempt *)
  commit_time : float;
  response : float;  (** origination to commit *)
  decomp : Decomp.t;
}

type t

(** [create ~sequential] starts an empty timeline. [sequential] selects
    the work-phase critical path: the sum over all cohorts (RPC-style
    sequential execution) instead of the last [Work_done]'s. *)
val create : sequential:bool -> t

(** Convenience: derive the execution pattern from the run parameters. *)
val of_params : Params.t -> t

(** The sink to attach with [Tracer.attach]. *)
val sink : t -> Tracer.sink

(** Committed transactions reconstructed so far, oldest first. *)
val committed : t -> committed list
