(** Output of one simulation run: the paper's metrics (Section 4.1) plus
    diagnostics. *)

open Ddbm_model

type t = {
  algorithm : Params.cc_algorithm;
  params : Params.t;
  throughput : float;  (** committed transactions per second *)
  mean_response : float;  (** seconds, origination to successful completion *)
  response_ci95 : float;  (** batch-means 95% half-width *)
  response_p50 : float;
  response_p95 : float;
  response_p99 : float;
      (** histogram tail quantile (upper-edge convention, relative error
          <= 2^-6; see {!Desim.Stats.Hdr}); 0 when histograms are off *)
  response_p999 : float;  (** as [response_p99], at q = 0.999 *)
  commits : int;
  aborts : int;
  completions : int;
      (** attempt completions counted independently at the terminal loop;
          conservation: commits + aborts = completions *)
  abort_ratio : float;  (** aborts per commit *)
  abort_reasons : (string * int) list;
  mean_blocking : float;  (** mean CC blocking time per blocked request *)
  blocked_requests : int;
  proc_cpu_util : float;  (** mean over processing nodes *)
  proc_disk_util : float;  (** mean over all processing-node disks *)
  host_cpu_util : float;
  mean_active : float;  (** time-average number of in-flight transactions *)
  messages : int;
  availability : float;
      (** fraction of node-seconds (host + processing nodes) up over the
          observation window; 1.0 under a zero fault plan *)
  goodput : float;
      (** committed page accesses per second — useful work, as opposed to
          per-transaction [throughput] *)
  timeouts : int;  (** protocol receive timeouts that fired *)
  retries : int;  (** messages re-sent after a timeout *)
  msgs_dropped : int;  (** messages lost by the faulty channel *)
  msgs_duplicated : int;  (** messages duplicated by the faulty channel *)
  node_crashes : int;  (** crash events (host and processing nodes) *)
  orphaned : int;
      (** cohorts force-cleaned out of band: crash victims and abort-path
          cohorts unreachable past the retry budget *)
  log_forces : int;  (** completed WAL forces across all nodes *)
  log_disk_util : float;
      (** mean log-disk utilization over the observation window; 0 when
          the durability model is off *)
  recoveries : int;  (** completed crash-recovery passes *)
  mean_recovery_time : float;
      (** mean time from node repair to recovery checkpoint (MTTR's
          recovery component); 0 when no recovery ran *)
  recovery_chains : int;
      (** dependency chains replayed by chain-parallel recovery; 0 with
          [recovery_jobs = 1] *)
  recovery_degraded : int;
      (** chain-parallel recovery passes degraded to serial physical
          redo because a torn tail clipped the dependency records *)
  wal_torn_tails : int;
      (** crashes that tore the WAL's un-forced tail (torn-tail fault) *)
  failovers : int;
      (** cohorts resurrected at their backup after a primary crash *)
  lost_commits : int;
      (** committed transactions lacking durable evidence at one or more
          updating cohorts' nodes at end of run — must be 0 *)
  indoubt_mean : float;
      (** mean time a yes-voted cohort waited for the 2PC decision *)
  indoubt_open_at_end : int;
      (** cohorts still awaiting a decision when the run ended *)
  indoubt_overdue_at_end : int;
      (** open in-doubt intervals older than the termination-protocol
          grace — must be 0: no transaction stays in doubt forever *)
  decomp : Decomp.t;
      (** mean per-transaction response-time decomposition; components
          sum to [mean_response] up to float rounding *)
  offered : int;
      (** open-loop arrivals generated by the rate process. The overload
          counters are whole-run (never windowed): conservation
          [offered = admitted + shed + expired + still_queued] is an
          exact integer identity. All zero on a closed-loop run. *)
  admitted : int;  (** arrivals dispatched into the system *)
  shed : int;  (** arrivals rejected at a full admission queue *)
  expired : int;
      (** queued arrivals dropped for overstaying the deadline *)
  still_queued : int;  (** admission-queue depth at end of run *)
  queue_depth_max : int;
      (** max admission-queue depth over the observation window *)
  queue_depth_mean : float;
      (** time-average admission-queue depth over the observation window *)
  sim_events : int;
  sim_end : float;
  wall_seconds : float;
  events_per_sec : float;
      (** simulator self-profiling: events processed per wall-clock
          second (wall-clock-dependent, excluded from {!diff}) *)
  top_heap_words : int;
      (** GC heap high-water mark at collection time (process-state
          dependent, excluded from {!diff}) *)
}

let algorithm_name t = Params.cc_algorithm_name t.algorithm

(* All-zero result carrying only the configuration; stands in for a real
   run during the dry collect pass of a parallel sweep (the dry pass only
   discovers which parameter points are needed — its figure output is
   discarded). *)
let placeholder params =
  {
    algorithm = params.Params.cc.Params.algorithm;
    params;
    throughput = 0.;
    mean_response = 0.;
    response_ci95 = 0.;
    response_p50 = 0.;
    response_p95 = 0.;
    response_p99 = 0.;
    response_p999 = 0.;
    commits = 0;
    aborts = 0;
    completions = 0;
    abort_ratio = 0.;
    abort_reasons = [];
    mean_blocking = 0.;
    blocked_requests = 0;
    proc_cpu_util = 0.;
    proc_disk_util = 0.;
    host_cpu_util = 0.;
    mean_active = 0.;
    messages = 0;
    availability = 1.;
    goodput = 0.;
    timeouts = 0;
    retries = 0;
    msgs_dropped = 0;
    msgs_duplicated = 0;
    node_crashes = 0;
    orphaned = 0;
    log_forces = 0;
    log_disk_util = 0.;
    recoveries = 0;
    mean_recovery_time = 0.;
    recovery_chains = 0;
    recovery_degraded = 0;
    wal_torn_tails = 0;
    failovers = 0;
    lost_commits = 0;
    indoubt_mean = 0.;
    indoubt_open_at_end = 0;
    indoubt_overdue_at_end = 0;
    decomp = Decomp.zero;
    offered = 0;
    admitted = 0;
    shed = 0;
    expired = 0;
    still_queued = 0;
    queue_depth_max = 0;
    queue_depth_mean = 0.;
    sim_events = 0;
    sim_end = 0.;
    wall_seconds = 0.;
    events_per_sec = 0.;
    top_heap_words = 0;
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%s: tput %.3f tx/s, resp %.3f s (±%.3f), %d commits, %d aborts \
     (ratio %.3f)@ cpu %.2f disk %.2f host-cpu %.2f, blocking %.4f s \
     (%d blocks), active %.1f, %d msgs@ response = %a@]"
    (algorithm_name t) t.throughput t.mean_response t.response_ci95 t.commits
    t.aborts t.abort_ratio t.proc_cpu_util t.proc_disk_util t.host_cpu_util
    t.mean_blocking t.blocked_requests t.mean_active t.messages Decomp.pp
    t.decomp;
  if t.response_p99 > 0. then
    Format.fprintf fmt "@ tail: p50 %.3f p95 %.3f p99 %.3f p999 %.3f s"
      t.response_p50 t.response_p95 t.response_p99 t.response_p999;
  if Fault_plan.active t.params.Params.faults then
    Format.fprintf fmt
      "@ faults: avail %.4f, goodput %.2f pages/s, %d crashes, %d dropped, \
       %d dup, %d timeouts, %d retries, %d orphaned, in-doubt %.4f s \
       (%d open, %d overdue)"
      t.availability t.goodput t.node_crashes t.msgs_dropped t.msgs_duplicated
      t.timeouts t.retries t.orphaned t.indoubt_mean t.indoubt_open_at_end
      t.indoubt_overdue_at_end;
  if Arrival.open_loop t.params.Params.arrivals then
    Format.fprintf fmt
      "@ overload: %d offered, %d admitted, %d shed, %d expired, %d queued \
       at end, queue depth mean %.2f max %d"
      t.offered t.admitted t.shed t.expired t.still_queued t.queue_depth_mean
      t.queue_depth_max;
  if t.params.Params.durability.Params.log_disk then
    Format.fprintf fmt
      "@ durability: %d forces, log-disk %.4f, %d recoveries (mttr %.4f s), \
       %d failovers, %d lost commits"
      t.log_forces t.log_disk_util t.recoveries t.mean_recovery_time
      t.failovers t.lost_commits;
  (* only chain-parallel or torn-tail activity earns the extra line, so
     every pre-existing configuration prints byte-identically *)
  if t.recovery_chains > 0 || t.recovery_degraded > 0 || t.wal_torn_tails > 0
  then
    Format.fprintf fmt
      "@ recovery: %d chains replayed, %d passes degraded, %d torn tails"
      t.recovery_chains t.recovery_degraded t.wal_torn_tails

(* ------------------------------------------------------------------ *)
(* The metric table: one entry per metric field drives the CSV columns,
   {!diff}, and the registry's scalar families. *)

(* How a field is written and compared: an integer, or a float printed
   with [prec] digits after the point. *)
type column = Int of (t -> int) | Float of int * (t -> float)

(* Registry export: Prometheus name, help text, kind. [open_loop]
   families exist only on open-loop runs, so closed-loop expositions
   carry no overload telemetry. *)
type export = {
  metric : string;
  help : string;
  kind : Metric.kind;
  open_loop : bool;
}

type field = { name : string; column : column; export : export option }

let int ?export name get = { name; column = Int get; export }
let float ?export prec name get = { name; column = Float (prec, get); export }

let counter ?(open_loop = false) metric help =
  { metric; help; kind = Metric.Counter; open_loop }

let gauge ?(open_loop = false) metric help =
  { metric; help; kind = Metric.Gauge; open_loop }

(* wall_seconds, events_per_sec and top_heap_words are wall-clock or
   process-state dependent: deliberately absent. *)
let fields =
  [
    float 5 "throughput" (fun r -> r.throughput)
      ~export:
        (gauge "ddbm_throughput_tps"
           "Committed transactions per second over the window");
    float 5 "mean_response" (fun r -> r.mean_response);
    float 5 "response_ci95" (fun r -> r.response_ci95);
    float 5 "response_p50" (fun r -> r.response_p50);
    float 5 "response_p95" (fun r -> r.response_p95);
    float 5 "response_p99" (fun r -> r.response_p99);
    float 5 "response_p999" (fun r -> r.response_p999);
    int "commits" (fun r -> r.commits)
      ~export:
        (counter "ddbm_commits_total" "Committed transactions in the window");
    int "aborts" (fun r -> r.aborts)
      ~export:(counter "ddbm_aborts_total" "Aborted attempts in the window");
    int "completions" (fun r -> r.completions)
      ~export:
        (counter "ddbm_completions_total"
           "Attempt completions in the window (commits + aborts)");
    float 5 "abort_ratio" (fun r -> r.abort_ratio)
      ~export:(gauge "ddbm_abort_ratio" "Aborts per commit");
    float 5 "mean_blocking" (fun r -> r.mean_blocking);
    int "blocked_requests" (fun r -> r.blocked_requests);
    float 4 "proc_cpu_util" (fun r -> r.proc_cpu_util);
    float 4 "proc_disk_util" (fun r -> r.proc_disk_util);
    float 4 "host_cpu_util" (fun r -> r.host_cpu_util)
      ~export:
        (gauge "ddbm_host_cpu_utilization"
           "Host CPU utilization over the window");
    float 3 "mean_active" (fun r -> r.mean_active)
      ~export:(gauge "ddbm_mean_active" "Time-average in-flight transactions");
    int "messages" (fun r -> r.messages)
      ~export:(counter "ddbm_messages_total" "Messages sent");
    float 5 "availability" (fun r -> r.availability)
      ~export:
        (gauge "ddbm_availability"
           "Fraction of node-seconds up over the window");
    float 5 "goodput" (fun r -> r.goodput)
      ~export:
        (gauge "ddbm_goodput_pages_per_second"
           "Committed page accesses per second over the window");
    int "timeouts" (fun r -> r.timeouts);
    int "retries" (fun r -> r.retries);
    int "msgs_dropped" (fun r -> r.msgs_dropped);
    int "msgs_duplicated" (fun r -> r.msgs_duplicated);
    int "node_crashes" (fun r -> r.node_crashes)
      ~export:
        (counter "ddbm_node_crashes_total"
           "Crash events (host and processing nodes)");
    int "orphaned" (fun r -> r.orphaned);
    int "log_forces" (fun r -> r.log_forces)
      ~export:
        (counter "ddbm_log_forces_total"
           "Completed WAL forces across all nodes");
    float 4 "log_disk_util" (fun r -> r.log_disk_util)
      ~export:
        (gauge "ddbm_log_disk_utilization"
           "Mean log-disk utilization over the window (0 without \
            durability)");
    int "recoveries" (fun r -> r.recoveries)
      ~export:
        (counter "ddbm_recoveries_total" "Completed crash-recovery passes");
    float 5 "mean_recovery_time" (fun r -> r.mean_recovery_time)
      ~export:
        (gauge "ddbm_mttr_seconds"
           "Mean completed crash-recovery duration (0 without recoveries)");
    int "recovery_chains" (fun r -> r.recovery_chains)
      ~export:
        (counter "ddbm_recovery_chains_total"
           "Dependency chains replayed by chain-parallel recovery");
    int "recovery_degraded" (fun r -> r.recovery_degraded)
      ~export:
        (counter "ddbm_recovery_degraded_total"
           "Chain-parallel recovery passes degraded to serial physical redo");
    int "wal_torn_tails" (fun r -> r.wal_torn_tails)
      ~export:
        (counter "ddbm_wal_torn_tails_total"
           "Crashes that tore the WAL's un-forced tail");
    int "failovers" (fun r -> r.failovers)
      ~export:
        (counter "ddbm_failovers_total"
           "Cohorts resurrected at their backup after a primary crash");
    int "lost_commits" (fun r -> r.lost_commits);
    float 5 "indoubt_mean" (fun r -> r.indoubt_mean);
    int "indoubt_open_at_end" (fun r -> r.indoubt_open_at_end)
      ~export:
        (gauge "ddbm_indoubt_open" "Cohorts still awaiting a 2PC decision");
    int "indoubt_overdue_at_end" (fun r -> r.indoubt_overdue_at_end);
    int "offered" (fun r -> r.offered)
      ~export:
        (counter ~open_loop:true "ddbm_offered_total"
           "Arrivals generated by the rate process");
    int "admitted" (fun r -> r.admitted)
      ~export:
        (counter ~open_loop:true "ddbm_admitted_total"
           "Arrivals dispatched into the system");
    int "shed" (fun r -> r.shed)
      ~export:
        (counter ~open_loop:true "ddbm_shed_total"
           "Arrivals rejected at a full admission queue");
    int "expired" (fun r -> r.expired)
      ~export:
        (counter ~open_loop:true "ddbm_expired_total"
           "Queued arrivals dropped for overstaying the deadline");
    int "still_queued" (fun r -> r.still_queued)
      ~export:
        (gauge ~open_loop:true "ddbm_admission_queue_depth"
           "Instantaneous admission-queue depth");
    int "queue_depth_max" (fun r -> r.queue_depth_max)
      ~export:
        (gauge ~open_loop:true "ddbm_admission_queue_depth_max"
           "Max admission-queue depth over the window");
    float 5 "queue_depth_mean" (fun r -> r.queue_depth_mean)
      ~export:
        (gauge ~open_loop:true "ddbm_admission_queue_depth_mean"
           "Time-average admission-queue depth over the window");
    int "sim_events" (fun r -> r.sim_events)
      ~export:(counter "ddbm_sim_events_total" "Simulation events processed");
  ]
  @ List.map (fun (name, get) -> float 5 name (fun r -> get r.decomp))
      Decomp.fields

let csv_header =
  String.concat ","
    ("algorithm,think_time,proc_nodes,degree,file_size,inst_per_startup,\
      inst_per_msg"
    :: List.map (fun f -> f.name) fields)

let to_csv_row t =
  let p = t.params in
  String.concat ","
    (Printf.sprintf "%s,%g,%d,%d,%d,%g,%g" (algorithm_name t)
       p.Params.workload.Params.think_time
       p.Params.database.Params.num_proc_nodes
       p.Params.database.Params.partitioning_degree
       p.Params.database.Params.file_size
       p.Params.resources.Params.inst_per_startup
       p.Params.resources.Params.inst_per_msg
    :: List.map
         (fun f ->
           match f.column with
           | Int get -> string_of_int (get t)
           | Float (prec, get) -> Printf.sprintf "%.*f" prec (get t))
         fields)

let diff a b =
  let float_diff name va vb =
    if Float.equal va vb then None
    else Some (Printf.sprintf "%s: %.17g vs %.17g" name va vb)
  in
  let special =
    (if a.algorithm <> b.algorithm then
       [
         Printf.sprintf "algorithm: %s vs %s"
           (Params.cc_algorithm_name a.algorithm)
           (Params.cc_algorithm_name b.algorithm);
       ]
     else [])
    @ (if a.params <> b.params then [ "params differ" ] else [])
    @ if a.abort_reasons <> b.abort_reasons then [ "abort_reasons differ" ]
      else []
  in
  special
  @ List.filter_map
      (fun f ->
        match f.column with
        | Int get ->
            let va = get a and vb = get b in
            if Int.equal va vb then None
            else Some (Printf.sprintf "%s: %d vs %d" f.name va vb)
        | Float (_, get) -> float_diff f.name (get a) (get b))
      fields
  (* the run's end time is compared but has no CSV column *)
  @ Option.to_list (float_diff "sim_end" a.sim_end b.sim_end)

let equal a b = diff a b = []

let metric_families t =
  let open_loop = Arrival.open_loop t.params.Params.arrivals in
  List.filter_map
    (fun f ->
      match f.export with
      | Some e when open_loop || not e.open_loop ->
          let v =
            match f.column with
            | Int get -> float_of_int (get t)
            | Float (_, get) -> get t
          in
          Some
            (Metric.family ~name:e.metric ~help:e.help ~kind:e.kind
               [ Metric.sample (Metric.V v) ])
      | Some _ | None -> None)
    fields
