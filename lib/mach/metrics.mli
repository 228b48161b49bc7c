(** Simulation output collector for the paper's metrics (Section 4.1).

    Counts and tallies are windowed: {!begin_window} is called at the end
    of warm-up and discards everything observed so far. The running
    (unwindowed) response-time average feeds the abort-restart delay: a
    restarted transaction waits one average response time as observed at
    the coordinator node [Agra87a]. *)

type t

(** The tail-latency histogram families: response time, every {!Decomp}
    component, closed 2PC in-doubt intervals, WAL force latency,
    crash-recovery passes, per-chain redo replay, and admission-queue
    waits of dispatched arrivals. *)
type hist =
  | Response
  | Component
  | Indoubt
  | Log_force
  | Recovery
  | Chain
  | Queue_wait

(** Each family with its Prometheus name and help, in registry order. *)
val hist_table : (hist * string * string) list

(** [quantiles] (default true) enables the tail-latency histograms; when
    false the histogram record paths are no-ops, so bench can price the
    histogram overhead against an otherwise identical run. *)
val create : ?quantiles:bool -> Desim.Engine.t -> restart_delay_floor:float -> t

(** Discard all observations so far; start the measurement window now. *)
val begin_window : t -> unit

(** A terminal submitted a new transaction. *)
val record_submit : t -> unit

(** A transaction committed; response time is measured from its first
    submission, spanning any restarts. [pages] is the number of page
    accesses in the committed plan (feeds {!goodput}); [decomp] is the
    transaction's response-time decomposition, whose components must sum
    to the response. *)
val record_commit : t -> origin_time:float -> pages:int -> decomp:Decomp.t -> unit

(** A transaction attempt aborted. *)
val record_abort : t -> reason:Txn.abort_reason -> unit

(** An attempt finished (either way); recorded at the terminal loop,
    independently of {!record_commit}/{!record_abort}, so that the
    conservation invariant commits + aborts = completions is a real
    cross-check. *)
val record_completion : t -> unit

val window_duration : t -> float

(** Committed transactions per second over the measurement window. *)
val throughput : t -> float

(** Committed page accesses per second — useful work, as opposed to
    per-transaction {!throughput}. Under faults the gap between the two
    widens as partially-done work is thrown away. *)
val goodput : t -> float

(** A cohort sent a yes vote: it is now in doubt (blocked in 2PC) until
    the coordinator's decision reaches it. *)
val record_prepared : t -> tid:int -> attempt:int -> node:int -> unit

(** The decision reached the cohort; closes the in-doubt interval (no-op
    when none is open). *)
val record_decided : t -> tid:int -> attempt:int -> node:int -> unit

(** Mean closed in-doubt interval over the window, seconds. *)
val indoubt_mean : t -> float

(** Cohorts still awaiting a 2PC decision right now. *)
val indoubt_open : t -> int

(** Open in-doubt intervals older than [grace] seconds — transactions the
    termination protocol should already have resolved. *)
val indoubt_overdue : t -> grace:float -> int

val mean_response : t -> float

(** Batch-means 95% CI on the mean response time (falls back to the iid
    interval before two batches complete). *)
val response_ci95 : t -> float

(** Exact percentile (e.g. [0.95]) of windowed response times. *)
val response_percentile : t -> float -> float
val commits : t -> int
val aborts : t -> int

(** Attempt completions in the window (see {!record_completion}). *)
val completions : t -> int

(** Aborts per commit (the paper's abort ratio). *)
val abort_ratio : t -> float

(** Abort counts by reason name, sorted. *)
val abort_reason_counts : t -> (string * int) list

(** Delay imposed on a restarting transaction: the running mean response
    time, or the configured floor before any commit has been observed. *)
val restart_delay : t -> float

(** Time-average number of in-flight transactions. *)
val mean_active : t -> float

(** Transactions currently in the system (instantaneous; for the
    time-series sampler). *)
val active : t -> int

(** Mean per-transaction response-time decomposition over the windowed
    commits; components sum to {!mean_response} up to float rounding. *)
val decomp_mean : t -> Decomp.t

(** {2 Open-loop admission accounting}

    The admission counters are {e not} windowed: the conservation
    identity offered = admitted + shed + expired + still-queued is an
    exact whole-run integer identity, which a warmup reset would break.
    The queue-depth statistics window like everything else. All of these
    stay zero on a closed-loop run. *)

(** The rate process generated an arrival. *)
val record_offered : t -> unit

(** An arrival was dispatched into the system (immediately or from the
    admission queue). *)
val record_admitted : t -> unit

(** An arrival was rejected at a full admission queue. *)
val record_shed : t -> unit

(** A queued arrival was dropped for overstaying its deadline. *)
val record_expired : t -> unit

(** The admission queue is now [depth] entries deep (updates the depth
    time series and the windowed max). *)
val set_queue_depth : t -> int -> unit

val offered : t -> int
val admitted : t -> int
val shed : t -> int
val expired : t -> int

(** Windowed max admission-queue depth. *)
val queue_depth_max : t -> int

(** Time-average admission-queue depth over the window. *)
val mean_queue_depth : t -> float

(** {2 Tail-latency histograms}

    Windowed, deterministic, log-scaled histograms (see
    {!Desim.Stats.Hdr}); all reset by {!begin_window}. Record paths are
    no-ops when the collector was created with [~quantiles:false]. *)

(** [record t h v] adds [v] seconds to family [h]'s histogram. It is for
    [Log_force], [Recovery], [Chain] and [Queue_wait]: {!record_commit}
    records [Response] and [Component], {!record_decided} [Indoubt]. *)
val record : t -> hist -> float -> unit

(** Histogram response-time quantile (upper-edge convention, see
    {!Desim.Stats.Hdr.quantile}); 0 when histograms are disabled or empty. *)
val response_quantile : t -> float -> float

(** The {!hist_table} families as registry entries, in table order;
    [Queue_wait] only when [open_loop], none at all with histograms off. *)
val families : t -> open_loop:bool -> Metric.family list
