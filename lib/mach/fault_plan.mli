(** Typed, seeded fault plan: what goes wrong during a run, and how the
    protocol machinery reacts.

    The plan lives in {!Params.t}, so it is validated with the rest of
    the configuration, recorded in replay artifacts, and can never leak
    between runs the way ad-hoc global fault flags could. A plan drives
    three fault families plus the reaction knobs:

    - {b node crashes}: explicit [crash] schedules (proc node or host)
      and/or a rate-driven model ([crash_rate] exponential inter-crash
      gap per processing node, [mean_repair] exponential downtime);
    - {b message faults}: per-message loss / duplication probability and
      mean exponential extra delay, judged by a dedicated RNG stream
      seeded from [fault_seed];
    - {b chaos switches}: named behavioral faults implemented by the CC
      layer (only ["broken-lock-conversion"] so far), armed in the
      machine built from the plan and in no other;
    - {b reaction}: 2PC timeout base/cap (capped exponential backoff,
      see {!Backoff}) and the retry budget.

    A plan with {!is_zero} is a true no-op: the machine installs no fault
    runtime at all and behaves bit-for-bit like a fault-free build. *)

type crash = {
  target : Ids.node_ref;
  at : float;  (** crash instant, simulated seconds *)
  duration : float;  (** downtime; recovery fires at [at +. duration] *)
}

type t = {
  crashes : crash list;  (** explicit crash/recovery schedule *)
  crash_rate : float;
      (** rate-driven crashes per processing node (1/s exponential inter-
          crash gap; 0 = none). The host only crashes via [crashes]. *)
  mean_repair : float;  (** mean downtime for rate-driven crashes *)
  msg_loss : float;  (** per-message drop probability, in [0, 1) *)
  msg_dup : float;  (** per-message duplication probability *)
  msg_delay : float;  (** mean exponential extra delivery delay (0 = none) *)
  recrash : float;
      (** crash-during-recovery probability in [0, 1]: each time a node's
          recovery starts, the node is crashed again mid-redo with this
          probability (seeded, replayable) — recovery must be re-entrant
          and idempotent, still yielding [lost_commits = 0] *)
  torn_tail : float;
      (** torn-log-tail probability in [0, 1]: each node crash that drops
          a non-empty volatile WAL tail additionally tears it with this
          probability — the suffix partially reached the platter, the
          next scan truncates it at the last checksum-valid record, and
          the clipped dependency records force recovery to degrade to
          serial physical redo (acknowledged records are never affected,
          so no committed work is lost) *)
  timeout : float;  (** base protocol timeout, seconds *)
  timeout_cap : float;  (** backoff cap, >= [timeout] *)
  timeout_jitter : float;
      (** relative backoff jitter in [0, 1] (0 = pure exponential): each
          retry wait is scaled by a factor drawn uniformly from
          [1 - jitter/2, 1 + jitter/2] on a dedicated fault RNG stream,
          de-synchronizing retries that timed out together *)
  max_retries : int;  (** timeouts tolerated before a step gives up *)
  fault_seed : int;  (** dedicated RNG stream for fault decisions *)
  chaos : string list;  (** named CC-layer behavioral faults *)
}

(** The all-off plan (also the [Params.default] setting). *)
val zero : t

(** True when the plan injects machine faults (crashes or message
    faults) — i.e. the machine must install its fault runtime. Chaos
    switches alone do not make a plan active; they change CC behavior,
    not the protocol machinery. *)
val active : t -> bool

(** True when the plan is a complete no-op: not {!active} and no chaos
    switches either. *)
val is_zero : t -> bool

(** True when the plan arms ["broken-lock-conversion"]: the machine's
    lock tables then grant a read-to-write conversion even when the
    converter is not the sole holder, so two readers of a page can both
    upgrade and write, producing lost updates under 2PL/WW/2PL-D that
    the serializability audit must flag. The conformance harness uses
    it to prove that the audit catches real concurrency control bugs. *)
val broken_lock_conversion : t -> bool

(** Rejects, among the rest, a chaos name no switch answers to. *)
val validate : num_proc_nodes:int -> t -> (unit, string) result

(** Compact one-line spec, the same grammar the CLI accepts:
    comma-separated [key=value] items, printed in this order — [loss=P],
    [dup=P], [delay=MEAN], [crash=TGT\@AT+DUR] (repeatable; TGT a proc
    index or [host]), [crash-rate=R], [mttr=M], [recrash=P],
    [torn-tail=P], [timeout=T], [timeout-cap=C], [jitter=J], [retries=N],
    [fault-seed=S], [chaos=NAME] (repeatable). Defaults are omitted, so
    {!zero} prints as the empty string; floats round-trip exactly. *)
val to_spec : t -> string

(** Parse the {!to_spec} grammar. The empty string is {!zero}. Rejects
    out-of-range values (everything {!validate} checks except the
    machine-size bound on crash targets). *)
val of_spec : string -> (t, string) result

val pp : Format.formatter -> t -> unit
