(** Reproduction of every figure of the paper's evaluation section, plus
    ablations and extensions. Figure ids match the paper ("fig2" ...
    "fig17"), with "fig4n"/"fig5n"/"fig16n"/"fig16s"/"fig17s" for the
    variants described in the running text and "abl-*" / "ext-*" for
    studies beyond the paper. See EXPERIMENTS.md for the full index.

    A figure is declared as data: for a profile and a think-time sweep,
    each of its series is a list of cells, and each cell names the
    simulation points it reads and computes y from their results. *)

open Ddbm_model

type cell = {
  x : float;
  reads : Params.t list;  (** the points y is computed from *)
  y : Sim_result.t list -> float;  (** pure; one result per read *)
}

type series = { label : string; cells : cell list }

type t = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : profile:Experiment.profile -> thinks:float list -> series list;
}

(** All figures in presentation order. *)
val all : t list

(** Every point the figure reads, distinct, in first-request order. *)
val points : profile:Experiment.profile -> thinks:float list -> t -> Params.t list

(** The figure's series from the cache's results, simulating any point
    not yet cached. After {!Experiment.prefill} of its {!points} this is
    cache hits only. *)
val render :
  Experiment.cache ->
  profile:Experiment.profile ->
  thinks:float list ->
  t ->
  Figure.t

(** A figure known only as a function of the cache. *)
type generator =
  Experiment.cache -> profile:Experiment.profile -> thinks:float list ->
  Figure.t

(** The generator of the figure with this id: {!render}, or, inside
    {!Experiment.collect_misses}, a declaration of its {!points}. *)
val find : string -> generator option

(** [prefill_cache cache pool ~profile ~thinks gens] simulates over
    [pool] every not-yet-cached point of the figures whose ids [gens]
    names (the generators themselves are not called) and returns the
    number of runs. Results are bit-identical to serial execution at
    any job count: each run is an independent (seed, params) simulation.
    @raise Invalid_argument on an unknown id. *)
val prefill_cache :
  Experiment.cache ->
  Par.Pool.t ->
  profile:Experiment.profile ->
  thinks:float list ->
  (string * generator) list ->
  int
