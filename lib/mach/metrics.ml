(** Simulation output collector.

    Counts and tallies are windowed: {!begin_window} is called at the end
    of the warm-up period and discards everything observed so far. The
    running (unwindowed) response-time average also feeds the
    abort-restart delay, per [Agra87a]: a restarted transaction waits one
    average response time as observed at the coordinator node. *)

open Desim

type t = {
  eng : Engine.t;
  clock : Engine.clock;  (** [eng]'s clock, read unboxed *)
  restart_delay_floor : float;
  mutable window_start : float;
  mutable commits : int;
  mutable aborts : int;
  mutable completions : int;
      (** attempt completions counted at the terminal loop, independently
          of the commit/abort recorders; conservation demands
          commits + aborts = completions *)
  response : Stats.Tally.t;  (** committed transactions, windowed *)
  response_batches : Stats.Batch_means.t;
      (** batch-means view of the same observations, for honest CIs *)
  mutable response_samples : float list;
      (** windowed raw samples, for exact percentiles *)
  response_running : Stats.Tally.t;  (** never reset; feeds restart delay *)
  mutable active : int;  (** transactions currently in the system *)
  active_ts : Stats.Timeseries.t;
  abort_reasons : (string, int) Hashtbl.t;
  mutable decomp_sum : Decomp.t;
      (** windowed sum of per-transaction response-time decompositions *)
  mutable committed_pages : int;
      (** windowed page accesses of committed transactions; feeds goodput *)
  indoubt : Stats.Tally.t;
      (** windowed durations of closed in-doubt intervals: yes-vote sent
          until the decision arrived at the cohort *)
  indoubt_open : (int, float) Hashtbl.t;
      (** {!cohort_key} -> yes-vote time, for still-undecided cohorts;
          not windowed, so end-of-run stragglers are visible *)
  mutable offered : int;
      (** open-loop arrivals generated by the rate process. The admission
          counters are NOT windowed: conservation
          offered = admitted + shed + expired + still-queued is an exact
          whole-run identity, which a warmup reset would break. *)
  mutable admitted : int;  (** arrivals dispatched into the system *)
  mutable shed_total : int;  (** arrivals rejected at a full admission queue *)
  mutable expired : int;
      (** queued arrivals dropped for overstaying their deadline *)
  mutable queue_depth : int;  (** instantaneous admission-queue depth *)
  mutable queue_depth_max : int;  (** windowed max admission-queue depth *)
  queue_ts : Stats.Timeseries.t;  (** admission-queue depth over time *)
  queue_wait_hist : Stats.Hdr.t;
      (** windowed admission-queue waits of dispatched arrivals *)
  quantiles_on : bool;
      (** tail-latency histograms enabled; off-path records are no-ops so
          bench can price the histogram overhead *)
  response_hist : Stats.Hdr.t;  (** windowed response times *)
  component_hists : (string * (Decomp.t -> float) * Stats.Hdr.t) list;
      (** per-{!Decomp} component distributions, in {!Decomp.fields}
          order *)
  indoubt_hist : Stats.Hdr.t;  (** closed 2PC in-doubt intervals *)
  log_force_hist : Stats.Hdr.t;  (** WAL force latencies *)
  recovery_hist : Stats.Hdr.t;  (** crash-recovery durations *)
  chain_hist : Stats.Hdr.t;  (** per-chain redo replay durations *)
}

let create ?(quantiles = true) eng ~restart_delay_floor =
  {
    eng;
    clock = Engine.clock eng;
    restart_delay_floor;
    window_start = Engine.now eng;
    commits = 0;
    aborts = 0;
    completions = 0;
    response = Stats.Tally.create ();
    response_batches = Stats.Batch_means.create ~batch_size:32;
    response_samples = [];
    response_running = Stats.Tally.create ();
    active = 0;
    active_ts = Stats.Timeseries.create ~now:(Engine.now eng) ~value:0.;
    abort_reasons = Hashtbl.create 8;
    decomp_sum = Decomp.zero;
    committed_pages = 0;
    indoubt = Stats.Tally.create ();
    indoubt_open = Hashtbl.create 64;
    offered = 0;
    admitted = 0;
    shed_total = 0;
    expired = 0;
    queue_depth = 0;
    queue_depth_max = 0;
    queue_ts = Stats.Timeseries.create ~now:(Engine.now eng) ~value:0.;
    queue_wait_hist = Stats.Hdr.create ();
    quantiles_on = quantiles;
    response_hist = Stats.Hdr.create ();
    component_hists =
      List.map (fun (name, get) -> (name, get, Stats.Hdr.create ())) Decomp.fields;
    indoubt_hist = Stats.Hdr.create ();
    log_force_hist = Stats.Hdr.create ();
    recovery_hist = Stats.Hdr.create ();
    chain_hist = Stats.Hdr.create ();
  }

let begin_window t =
  t.window_start <- t.clock.now;
  t.commits <- 0;
  t.aborts <- 0;
  t.completions <- 0;
  Stats.Tally.reset t.response;
  Stats.Batch_means.reset t.response_batches;
  t.response_samples <- [];
  Hashtbl.reset t.abort_reasons;
  t.decomp_sum <- Decomp.zero;
  t.committed_pages <- 0;
  Stats.Tally.reset t.indoubt;
  Stats.Hdr.reset t.response_hist;
  List.iter (fun (_, _, h) -> Stats.Hdr.reset h) t.component_hists;
  Stats.Hdr.reset t.indoubt_hist;
  Stats.Hdr.reset t.log_force_hist;
  Stats.Hdr.reset t.recovery_hist;
  Stats.Hdr.reset t.chain_hist;
  (* admission counters stay (conservation is a whole-run identity), but
     the queue-depth statistics window like everything else *)
  t.queue_depth_max <- t.queue_depth;
  Stats.Hdr.reset t.queue_wait_hist;
  Stats.Timeseries.set_window t.queue_ts ~now:t.clock.now;
  Stats.Timeseries.set_window t.active_ts ~now:t.clock.now

let record_submit t =
  t.active <- t.active + 1;
  Stats.Timeseries.update t.active_ts ~now:t.clock.now
    ~value:(float_of_int t.active)

(** One attempt finished (committed or aborted); called by the terminal
    loop before the outcome-specific recorder. *)
let record_completion t = t.completions <- t.completions + 1

let record_commit t ~origin_time ~pages ~decomp =
  let response = t.clock.now -. origin_time in
  t.commits <- t.commits + 1;
  t.committed_pages <- t.committed_pages + pages;
  Stats.Tally.add t.response response;
  Stats.Batch_means.add t.response_batches response;
  t.response_samples <- response :: t.response_samples;
  t.decomp_sum <- Decomp.add t.decomp_sum decomp;
  if t.quantiles_on then begin
    Stats.Hdr.add t.response_hist response;
    List.iter
      (fun (_, get, h) -> Stats.Hdr.add h (get decomp))
      t.component_hists
  end;
  Stats.Tally.add t.response_running response;
  t.active <- t.active - 1;
  Stats.Timeseries.update t.active_ts ~now:t.clock.now
    ~value:(float_of_int t.active)

(* -------------------------------------------------------------- *)
(* Open-loop admission accounting. Counters are unwindowed (see the
   field comments); queue-depth stats are windowed. *)

let record_offered t = t.offered <- t.offered + 1
let record_admitted t = t.admitted <- t.admitted + 1
let record_shed t = t.shed_total <- t.shed_total + 1
let record_expired t = t.expired <- t.expired + 1

let set_queue_depth t depth =
  t.queue_depth <- depth;
  if depth > t.queue_depth_max then t.queue_depth_max <- depth;
  Stats.Timeseries.update t.queue_ts ~now:t.clock.now
    ~value:(float_of_int depth)

(** A dispatched arrival waited [dur] seconds in the admission queue. *)
let record_queue_wait t ~dur =
  if t.quantiles_on then Stats.Hdr.add t.queue_wait_hist dur

let offered t = t.offered
let admitted t = t.admitted
let shed t = t.shed_total
let expired t = t.expired
let queue_depth_max t = t.queue_depth_max

let mean_queue_depth t =
  Stats.Timeseries.average t.queue_ts ~now:t.clock.now

let queue_wait_hist t = t.queue_wait_hist

let record_abort t ~(reason : Txn.abort_reason) =
  t.aborts <- t.aborts + 1;
  let name = Txn.abort_reason_name reason in
  let prev = Option.value ~default:0 (Hashtbl.find_opt t.abort_reasons name) in
  Hashtbl.replace t.abort_reasons name (prev + 1)

let abort_reason_counts t =
  Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.abort_reasons []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let window_duration t = t.clock.now -. t.window_start

(** Transactions committed per second over the measurement window. *)
let throughput t =
  let d = window_duration t in
  if d <= 0. then 0. else float_of_int t.commits /. d

(** Committed page accesses per second: useful work, as opposed to
    per-transaction {!throughput}. Under faults the gap between the two
    widens as partially-done work is thrown away. *)
let goodput t =
  let d = window_duration t in
  if d <= 0. then 0. else float_of_int t.committed_pages /. d

(* -------------------------------------------------------------- *)
(* Time blocked in 2PC: a cohort is in doubt from the moment it sends a
   yes vote until the coordinator's decision reaches it. *)

(* A cohort (tid, attempt, node) is keyed by one int, so a vote builds
   and hashes no tuple. The fields get 31, 16 and 15 bits; a wider one
   is rejected rather than allowed to alias another cohort. *)
let cohort_key ~tid ~attempt ~node =
  if tid lsr 31 <> 0 || attempt lsr 16 <> 0 || node lsr 15 <> 0 then
    invalid_arg
      (Printf.sprintf "Metrics: cohort (%d, %d, %d) out of key range" tid
         attempt node);
  (tid lsl 31) lor (attempt lsl 15) lor node

let record_prepared t ~tid ~attempt ~node =
  Hashtbl.replace t.indoubt_open (cohort_key ~tid ~attempt ~node) t.clock.now

let record_decided t ~tid ~attempt ~node =
  let key = cohort_key ~tid ~attempt ~node in
  match Hashtbl.find_opt t.indoubt_open key with
  | None -> ()
  | Some start ->
      Hashtbl.remove t.indoubt_open key;
      let dur = t.clock.now -. start in
      Stats.Tally.add t.indoubt dur;
      if t.quantiles_on then Stats.Hdr.add t.indoubt_hist dur

(** A WAL force completed in [dur] simulated seconds (histogram only; the
    force count and log-disk utilization live in {!Wal}). *)
let record_log_force t ~dur =
  if t.quantiles_on then Stats.Hdr.add t.log_force_hist dur

(** A crash-recovery pass completed in [dur] simulated seconds. *)
let record_recovery t ~dur =
  if t.quantiles_on then Stats.Hdr.add t.recovery_hist dur

(** A recovery redo chain finished replaying in [dur] simulated seconds. *)
let record_chain t ~dur =
  if t.quantiles_on then Stats.Hdr.add t.chain_hist dur

(** Mean closed in-doubt interval over the window (seconds). *)
let indoubt_mean t = Stats.Tally.mean t.indoubt

(** Cohorts still awaiting a 2PC decision right now. *)
let indoubt_open t = Hashtbl.length t.indoubt_open

(** Open in-doubt intervals older than [grace] seconds — transactions the
    termination protocol should already have resolved. *)
let indoubt_overdue t ~grace =
  let now = t.clock.now in
  (* a count is the same in any iteration order *)
  Hashtbl.fold (* lint: allow hashtbl-order *)
    (fun _ start acc -> if now -. start > grace then acc + 1 else acc)
    t.indoubt_open 0

let mean_response t = Stats.Tally.mean t.response

(* Successive response times are autocorrelated, so the confidence
   interval comes from batch means; with fewer than two complete batches,
   fall back to the (optimistic) iid interval. *)
let response_ci95 t =
  if Stats.Batch_means.batches t.response_batches >= 2 then
    Stats.Batch_means.ci95 t.response_batches
  else Stats.Tally.ci95 t.response
(* Exact percentile over the windowed samples (0 when empty). *)
let response_percentile t q =
  match t.response_samples with
  | [] -> 0.
  | samples ->
      let sorted = List.sort Float.compare samples in
      let n = List.length sorted in
      let idx =
        Stdlib.min (n - 1)
          (int_of_float (Float.of_int n *. q))
      in
      List.nth sorted idx

let commits t = t.commits
let aborts t = t.aborts
let completions t = t.completions

(** Aborts per commit (the paper's abort ratio). *)
let abort_ratio t =
  if t.commits = 0 then 0.
  else float_of_int t.aborts /. float_of_int t.commits

(** Delay imposed on a restarting transaction: the running mean response
    time, or the configured floor before any commit has been observed. *)
let restart_delay t =
  if Stats.Tally.count t.response_running = 0 then t.restart_delay_floor
  else Stats.Tally.mean t.response_running

let mean_active t = Stats.Timeseries.average t.active_ts ~now:t.clock.now

(** Transactions currently in the system (instantaneous). *)
let active t = t.active

(** Mean per-transaction response-time decomposition over the windowed
    commits; its components sum to {!mean_response} up to rounding. *)
let decomp_mean t =
  if t.commits = 0 then Decomp.zero
  else Decomp.scale t.decomp_sum (1. /. float_of_int t.commits)


(* -------------------------------------------------------------- *)
(* Tail-latency histograms *)

let quantiles_enabled t = t.quantiles_on

(** Histogram response-time quantile (upper-edge convention, see
    {!Desim.Stats.Hdr.quantile}); 0 when histograms are disabled or no
    commit has been observed. *)
let response_quantile t q = Stats.Hdr.quantile t.response_hist q

let response_hist t = t.response_hist

(** Per-{!Decomp}-component histograms as [(field_name, hist)], in
    {!Decomp.fields} order. *)
let component_hists t = List.map (fun (n, _, h) -> (n, h)) t.component_hists

let indoubt_hist t = t.indoubt_hist
let log_force_hist t = t.log_force_hist
let recovery_hist t = t.recovery_hist
let chain_hist t = t.chain_hist
