(** Open-loop arrival process and admission-control spec.

    An arrival spec replaces the closed-loop terminal fibers with a rate
    process sampled on a dedicated RNG stream, plus the host-side
    admission knobs (bounded queue, shed policy, deadline drop, MPL
    limiter, retry backoff). The whole block round-trips through one
    spec string ([to_spec]/[of_spec]) so CLI flags and replay artifacts
    carry it exactly like a {!Fault_plan}. [zero] is the degenerate
    closed-loop spec: no arrival runtime is installed at all. *)

(** One piece of a profile-driven schedule. Durations are seconds of
    simulated time; rates are transactions per second. *)
type segment =
  | Hold of { rate : float; duration : float }
      (** constant rate ("hold:R/D") *)
  | Ramp of { rate_from : float; rate_to : float; duration : float }
      (** linear ramp ("ramp:A..B/D") *)
  | Sine of { mean : float; amplitude : float; period : float; duration : float }
      (** diurnal sine, clamped at zero ("sine:M~A/P/D") *)
  | Spike of { base : float; peak : float; duration : float }
      (** flash crowd: jump to [peak], exponential decay toward [base]
          with time constant duration/8 ("spike:B^P/D") *)

type process =
  | Closed  (** legacy closed loop: one fiber per terminal *)
  | Qps of float  (** constant-rate Poisson ("qps=R") *)
  | Profile of segment list
      (** segments played once from t = 0; rate is zero afterwards *)

type shed_policy =
  | Reject_newest  (** full queue: drop the arriving transaction *)
  | Reject_oldest  (** full queue: drop the head, admit the arrival *)

type t = {
  process : process;
  queue_cap : int;  (** admission-queue capacity ("cap=N", default 64) *)
  shed : shed_policy;  (** full-queue policy ("shed=newest|oldest") *)
  deadline : float;
      (** queued arrivals older than this are dropped as expired at
          dispatch time; 0 = off ("deadline=D") *)
  mpl : int;  (** max in-flight transactions; 0 = unlimited ("mpl=N") *)
  retry_base : float;
      (** capped-exponential restart backoff base ("retry-base=B") *)
  retry_cap : float;  (** restart backoff cap ("retry-cap=C") *)
}

val zero : t
(** Closed loop, default admission knobs; [to_spec zero = ""]. *)

val open_loop : t -> bool
(** [true] iff the spec replaces the terminal loop. *)

val rate : t -> at:float -> float
(** Instantaneous offered rate at absolute time [at] (profiles start at
    t = 0 and do not wrap: the rate is zero past the last segment). *)

val next_arrival : t -> Desim.Rng.t -> now:float -> horizon:float -> float option
(** Next arrival strictly after [now], or [None] when no further arrival
    occurs before [horizon]. Time-varying segments are sampled by
    Lewis-Shedler thinning against the per-segment max rate; proposals
    that cross a segment boundary restart at the boundary, so boundaries
    are exact (a zero-rate segment contributes no arrivals and consumes
    no draws). Deterministic in (spec, RNG state). *)

val validate : t -> (unit, string) result

val to_spec : t -> string
(** Canonical spec string; emits only non-default fields, so
    [of_spec (to_spec t)] round-trips and [to_spec zero] is [""]. *)

val of_spec : string -> (t, string) result
(** Parse a spec such as ["qps=5000,cap=128,mpl=32"] or
    ["profile=ramp:0..50000/60,hold:50000/120"]. Bare (key-less) items
    extend an open [profile=]; [qps=] and [profile=] exclude each other,
    and the admission keys ([cap], [shed], [deadline], [mpl],
    [retry-base], [retry-cap]) need one of them. The result is
    validated. *)

val pp : Format.formatter -> t -> unit
