(** Experiment driver: parameter construction helpers, a result cache so
    that figures sharing configurations (e.g. Figures 9-13) reuse runs,
    and simulation-length profiles. *)

open Ddbm_model

(** How long to simulate. Quick keeps the full figure suite in tens of
    seconds of wall time; Standard is the default for reported numbers;
    Full tightens confidence intervals further. *)
type profile = Quick | Standard | Full

let profile_name = function
  | Quick -> "quick"
  | Standard -> "standard"
  | Full -> "full"

(** Warm-up and measurement windows scale with the think time (at large
    think times transactions are rare, so a fixed window would starve the
    estimators) and inversely with machine size: a saturated 1-node
    system has response times around 100 s, so its windows must be about
    8x longer than an 8-node system's to reach and observe steady state
    (Little's law sanity: X = N / (R + Z) holds only at steady state). *)
let run_params profile ~think ~nodes ~seed =
  let scale = 8. /. float_of_int (Int.max 1 nodes) in
  let warmup, measure =
    match profile with
    | Quick -> (20. +. think, 120. +. (4. *. think))
    | Standard -> (50. +. think, 400. +. (8. *. think))
    | Full -> (100. +. (2. *. think), 1200. +. (16. *. think))
  in
  {
    Params.default.Params.run with
    Params.seed;
    warmup = warmup *. scale;
    measure = measure *. scale;
  }

(** Configuration point: the knobs the paper's experiments turn, plus the
    ablation knobs its text mentions (transaction size, detection
    interval, terminal population, write probability). *)
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

let base_config =
  {
    algorithm = Params.Twopl;
    nodes = 8;
    degree = 8;
    file_size = 300;
    think = 0.;
    inst_per_startup = 2_000.;
    inst_per_msg = 1_000.;
    exec_pattern = Params.Parallel;
    terminals = 128;
    pages_per_partition = 8;
    replication = 1;
    write_prob = 0.25;
    detection_interval = 1.0;
  }

let params_of_config ?(profile = Quick) ?(seed = 1) (c : config) =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = c.nodes;
        partitioning_degree = c.degree;
        file_size = c.file_size;
        replication = c.replication;
      };
    workload =
      {
        d.Params.workload with
        Params.think_time = c.think;
        exec_pattern = c.exec_pattern;
        num_terminals = c.terminals;
        pages_per_partition = c.pages_per_partition;
        write_prob = c.write_prob;
      };
    resources =
      {
        d.Params.resources with
        Params.inst_per_startup = c.inst_per_startup;
        inst_per_msg = c.inst_per_msg;
      };
    cc =
      {
        Params.algorithm = c.algorithm;
        detection_interval = c.detection_interval;
      };
    run = run_params profile ~think:c.think ~nodes:c.nodes ~seed;
    durability = Params.default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

(** Memoized runner: figures that share configurations share runs. *)
type cache = {
  table : (Params.t, Sim_result.t) Hashtbl.t;
  mutable runs : int;
  mutable hits : int;
  mutable collecting : Params.t list option;
}

let create_cache () =
  { table = Hashtbl.create 64; runs = 0; hits = 0; collecting = None }

let run cache params =
  if Option.is_some cache.collecting then
    invalid_arg "Experiment.run: called inside collect_misses";
  match Hashtbl.find_opt cache.table params with
  | Some r ->
      cache.hits <- cache.hits + 1;
      r
  | None ->
      cache.runs <- cache.runs + 1;
      let r = Machine.run params in
      Hashtbl.replace cache.table params r;
      r

let distinct points =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun p ->
      if Hashtbl.mem seen p then false
      else (
        Hashtbl.replace seen p ();
        true))
    points

(* The distinct points not yet cached, in first-request order. *)
let misses cache points =
  List.filter (fun p -> not (Hashtbl.mem cache.table p)) (distinct points)

let prefill cache pool points =
  let fresh = misses cache points in
  let results = Par.Pool.map pool Machine.run fresh in
  List.iter2 (Hashtbl.replace cache.table) fresh results;
  cache.runs <- cache.runs + List.length fresh;
  List.length fresh

let collect_misses cache f =
  if Option.is_some cache.collecting then
    invalid_arg "Experiment.collect_misses: already collecting";
  cache.collecting <- Some [];
  let declared =
    Fun.protect
      ~finally:(fun () -> cache.collecting <- None)
      (fun () ->
        f cache;
        Option.value cache.collecting ~default:[])
  in
  misses cache (List.rev declared)

(** Mean and across-replicate 95% CI of the key metrics over independent
    simulation runs (different seeds). Replicates are independent, so the
    plain normal-approximation interval applies. *)
type summary = {
  replicates : int;
  mean_throughput : float;
  ci_throughput : float;
  mean_response : float;
  ci_response : float;
  mean_abort_ratio : float;
  ci_abort_ratio : float;
}

let replicate cache ?profile ?(seeds = [ 1; 2; 3; 4; 5 ]) config =
  let tput = Desim.Stats.Tally.create () in
  let resp = Desim.Stats.Tally.create () in
  let ratio = Desim.Stats.Tally.create () in
  List.iter
    (fun seed ->
      let r = run cache (params_of_config ?profile ~seed config) in
      Desim.Stats.Tally.add tput r.Sim_result.throughput;
      Desim.Stats.Tally.add resp r.Sim_result.mean_response;
      Desim.Stats.Tally.add ratio r.Sim_result.abort_ratio)
    seeds;
  {
    replicates = List.length seeds;
    mean_throughput = Desim.Stats.Tally.mean tput;
    ci_throughput = Desim.Stats.Tally.ci95 tput;
    mean_response = Desim.Stats.Tally.mean resp;
    ci_response = Desim.Stats.Tally.ci95 resp;
    mean_abort_ratio = Desim.Stats.Tally.mean ratio;
    ci_abort_ratio = Desim.Stats.Tally.ci95 ratio;
  }

(** The five curves of every figure. *)
let all_algorithms =
  [ Params.No_dc; Params.Twopl; Params.Bto; Params.Wound_wait; Params.Opt ]

(** Think times swept in the load-dependent figures, spanning the paper's
    0-120 s axis. *)
let default_think_times = [ 0.; 2.; 4.; 8.; 12.; 24.; 48.; 120. ]
