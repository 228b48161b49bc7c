(** Output of one simulation run: the paper's metrics (Section 4.1) plus
    fault/availability metrics and diagnostics. *)

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

val algorithm_name : t -> string

(** All-zero result carrying only the configuration. Stands in for a
    real run during the dry collect pass of a parallel sweep; never a
    valid simulation output. *)
val placeholder : Params.t -> t

val pp : Format.formatter -> t -> unit

(** {2 Outputs derived from the metric table}

    One table in the implementation declares every metric field once:
    its CSV column (name and format), and for exported fields the
    registry name, help text and kind. The CSV, {!diff} and
    {!metric_families} are all read off it, so a new metric is a record
    field, its value in [Machine.collect_result], and one table entry. *)

(** CSV header matching {!to_csv_row}: seven configuration columns, then
    one column per metric field. *)
val csv_header : string

(** Field-by-field comparison of two results from the *same* (seed,
    params, algorithm), for the determinism check: every simulation
    output must be bit-for-bit reproducible. [wall_seconds],
    [events_per_sec] and [top_heap_words] are wall-clock or process-state
    dependent and excluded; [sim_end] is compared but not in the CSV.
    Returns a human-readable line per differing field: [algorithm],
    [params] and [abort_reasons] first, then the table's fields in
    order, then [sim_end]. *)
val diff : t -> t -> string list

(** Bit-for-bit equality of everything {!diff} compares. *)
val equal : t -> t -> bool

val to_csv_row : t -> string

(** The registry's scalar families, one per exported field, in field
    order; the overload families only when the run is open-loop. *)
val metric_families : t -> Metric.t
