(** Statistics collectors for simulation output analysis. *)

(** Welford-style online accumulator for i.i.d.-ish observations
    (response times, blocking times, ...). *)
module Tally : sig
  type t

  val create : unit -> t
  val reset : t -> unit
  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float

  (** Sample variance (n-1 denominator); 0 for fewer than 2 observations. *)
  val variance : t -> float

  (** Half-width of a normal-approximation 95% confidence interval on the
      mean; 0 for fewer than 2 observations. *)
  val ci95 : t -> float
end

(** Time-weighted average of a piecewise-constant signal (queue lengths,
    number of active transactions, ...). *)
module Timeseries : sig
  type t

  (** [create ~now ~value] starts tracking at simulated time [now]. *)
  val create : now:float -> value:float -> t

  (** [update t ~now ~value] records that the signal changed to [value] at
      time [now]. Times must be non-decreasing. *)
  val update : t -> now:float -> value:float -> unit

  (** [set_window t ~now] discards history before [now] (end of warm-up). *)
  val set_window : t -> now:float -> unit

  (** Current value of the signal. *)
  val value : t -> float

  (** Time-average over the observation window ending at [now]. *)
  val average : t -> now:float -> float

  (** Lifetime integral of the signal up to [now]; unlike {!average} it is
      not affected by {!set_window}, so interval averages can be derived
      by differencing successive readings (the time-series sampler does). *)
  val total_area : t -> now:float -> float
end

(** Busy-time tracker for a single server: the fraction of time it was
    busy, plus accumulated busy time. It reads the time from the engine's
    clock in place, so a resource that changes state at every event boxes
    no float. *)
module Utilization : sig
  type t

  (** Idle from the clock's current time on. *)
  val create : Engine.clock -> t

  (** Busy (or idle) from the current time on. *)
  val set_busy : t -> busy:bool -> unit

  (** Start the observation window at the current time. *)
  val set_window : t -> unit

  (** Mean utilization over the observation window up to now. *)
  val value : t -> float

  (** Cumulative busy time since creation (never reset by
      {!set_window}). *)
  val busy_time : t -> float
end

(** Batch-means estimator: autocorrelated steady-state observations (e.g.
    response times of successive transactions) are grouped into fixed-size
    batches whose means are approximately independent, giving an honest
    confidence interval via the t-distribution over batch means. *)
module Batch_means : sig
  type t

  (** [create ~batch_size] groups every [batch_size] consecutive
      observations into one batch. *)
  val create : batch_size:int -> t

  val add : t -> float -> unit

  (** Total observations seen. *)
  val count : t -> int

  (** Completed batches. *)
  val batches : t -> int

  (** Grand mean over completed batches (0 when none). *)
  val mean : t -> float

  (** Half-width of the 95% confidence interval from the batch means
      (t-quantile approximation); 0 with fewer than 2 batches. *)
  val ci95 : t -> float

  val reset : t -> unit
end

(** Deterministic log-scaled fixed-bucket (HDR-style) histogram for latency
    tails, with one fixed layout: each power-of-two octave in
    [[2^-20, 2^12)] is split into 2^6 equal-mantissa buckets, 2048 buckets
    (16 KiB) tracking latencies from ~1 microsecond to ~4096 simulated
    seconds. The bucket index is computed from the raw IEEE-754 bits of the
    sample (pure integer arithmetic, no rounding, no randomness), so
    bucketing — and therefore every quantile — is bit-identical across
    hosts and across serial vs [--jobs] parallel runs. Values <= 0 (and
    nan) fall into bucket 0; values >= 2^12 clamp into the last bucket. *)
module Hdr : sig
  type t

  val create : unit -> t
  val reset : t -> unit
  val add : t -> float -> unit
  val count : t -> int

  (** Sum of samples in observation order (bit-identical to a {!Tally.total}
      fed the same stream). *)
  val total : t -> float

  (** Worst-case relative over-estimate of {!quantile}: 2^-6 ~ 1.6%. *)
  val rel_error : float

  (** Bucket index a sample would land in (exposed for tests). *)
  val index : float -> int

  (** [quantile t q] uses the order statistic at
      [idx = min (n-1) (int (n*q))] — the same rank convention as the exact
      sorted-sample percentiles in [Metrics] — and returns the upper edge of
      the bucket holding that sample, so for in-range samples
      [exact <= quantile t q <= exact * (1 + rel_error)]. 0 when empty. *)
  val quantile : t -> float -> float

  (** Cumulative counts at each non-empty bucket's upper edge — the
      Prometheus [le] series, minus the final +Inf entry ({!count}). *)
  val cumulative : t -> (float * int) list
end
