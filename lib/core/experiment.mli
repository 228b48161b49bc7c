(** Experiment driver: configuration points for the paper's experiments,
    simulation-length profiles, a memoized runner so figures sharing
    configurations share runs, and multi-seed replication. *)

open Ddbm_model

(** Simulation length: [Quick] keeps the full figure suite in minutes of
    wall time; [Standard] is for reported numbers; [Full] tightens
    confidence intervals further. *)
type profile = Quick | Standard | Full

val profile_name : profile -> string

(** A configuration point: the knobs the paper's experiments turn plus
    the ablation/extension knobs (transaction size, detection interval,
    terminal population, write probability, replication). *)
type config = {
  algorithm : Params.cc_algorithm;
  nodes : int;
  degree : int;
  file_size : int;
  think : float;
  inst_per_startup : float;
  inst_per_msg : float;
  exec_pattern : Params.exec_pattern;
  terminals : int;
  pages_per_partition : int;
  replication : int;
  write_prob : float;
  detection_interval : float;
}

(** Table 4's fixed column: 8 nodes, 8-way, small DB, 128 terminals,
    2K startup / 1K message costs, no replication. *)
val base_config : config

(** Full parameter record for a configuration point. Warm-up and
    measurement windows scale with think time and inversely with machine
    size (a saturated 1-node system needs ~8x longer windows than an
    8-node one to reach steady state). *)
val params_of_config : ?profile:profile -> ?seed:int -> config -> Params.t

(** Memoized runner state; [runs]/[hits] are exposed for reporting. *)
type cache = {
  table : (Params.t, Sim_result.t) Hashtbl.t;
  mutable runs : int;
  mutable hits : int;
  mutable collecting : Params.t list option;
      (** [Some declared] (newest first) while {!collect_misses} runs;
          only the figure generators of {!Figures.find} add to it *)
}

val create_cache : unit -> cache

(** Run (or reuse) the simulation for exactly these parameters.
    @raise Invalid_argument inside {!collect_misses}. *)
val run : cache -> Params.t -> Sim_result.t

(** The list without repeats, each point at its first position. *)
val distinct : Params.t list -> Params.t list

(** [prefill cache pool points] simulates every distinct point not yet
    cached over the pool, stores the results and returns how many it
    ran. Each run is an independent (seed, params) simulation, so
    results are bit-identical to serial execution regardless of job
    count. *)
val prefill : cache -> Par.Pool.t -> Params.t list -> int

(** [collect_misses cache f] runs [f cache], during which the figure
    generators of {!Figures.find} declare their points instead of
    rendering. Returns the declared points not yet cached, distinct, in
    first-request order. Kept for callers that know a figure only by its
    generator; {!Figures.points} reads the same list directly. *)
val collect_misses : cache -> (cache -> unit) -> Params.t list

(** Across-replicate mean and 95% CI over independent seeds. *)
type summary = {
  replicates : int;
  mean_throughput : float;
  ci_throughput : float;
  mean_response : float;
  ci_response : float;
  mean_abort_ratio : float;
  ci_abort_ratio : float;
}

val replicate :
  cache -> ?profile:profile -> ?seeds:int list -> config -> summary

(** The five curves of every paper figure: NO_DC, 2PL, BTO, WW, OPT. *)
val all_algorithms : Params.cc_algorithm list

(** Default think-time sweep covering the paper's 0-120 s axis. *)
val default_think_times : float list
