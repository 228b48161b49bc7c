(** Assembly and execution of the complete distributed database machine
    (Sections 2.1 and 3 of the paper): host + processing nodes, terminals,
    coordinator/cohort transaction processes, centralized two-phase
    commit, abort/restart handling, and the Snoop detector under 2PL.

    The only entry point most users need is {!run}. *)

type t

(** Build a machine (validating the parameters; raises
    [Invalid_argument] on inconsistent configurations). Exposed for tests
    and custom drivers. [histograms] (default true) enables the
    tail-latency histograms; [~histograms:false] is for pricing their
    overhead in bench and never changes any simulation outcome — only the
    histogram-derived outputs (p99/p999, {!registry} histogram families)
    read 0. *)
val create : ?histograms:bool -> Ddbm_model.Params.t -> t

(** Attach a serializability auditor to a freshly created machine; after
    {!execute}, pass it to {!Audit.check}. *)
val enable_audit : t -> Audit.t

(** Attach (or retrieve) the typed lifecycle-event tracer (before
    {!execute}). Idempotent; attach sinks (e.g. {!Trace_export} or
    {!Timeline}) with [Ddbm_model.Tracer.attach]. A machine without
    this call emits no typed events and pays no tracing cost. *)
val enable_events : t -> Ddbm_model.Tracer.t

(** Start the time-series sampler (before {!execute}): every [interval]
    simulated seconds, an {!Ddbm_model.Event.Sample} event is emitted
    with the in-flight transaction count, per-interval CPU/disk
    utilizations and instantaneous queue lengths. Implies
    {!enable_events}. Raises [Invalid_argument] if [interval <= 0]. *)
val enable_sampler : t -> interval:float -> unit

(** Start logging per-terminal plan fingerprints (before {!execute}).
    The conformance harness uses them to check that the workload stream
    is independent of the concurrency control algorithm. *)
val enable_fingerprints : t -> unit

(** Per-terminal plan fingerprints generated so far (empty unless
    {!enable_fingerprints} was called). *)
val workload_fingerprints : t -> int list array

(** Typed metric registry snapshot (build after {!execute}): the
    result's scalar families ({!Sim_result.metric_families}), per-node
    utilization/queue-depth rollups, and the tail-latency histogram
    families for response time, every {!Ddbm_model.Decomp} component,
    2PC in-doubt duration, WAL force latency, and recovery time. Serialize with
    {!Ddbm_model.Metric.to_prometheus} / {!Ddbm_model.Metric.to_json}. *)
val registry : t -> Ddbm_model.Metric.t

(** Run an assembled machine and collect the measured result. *)
val execute : t -> Sim_result.t

(** [run params] = [execute (create params)]. Deterministic for a given
    parameter record. *)
val run : Ddbm_model.Params.t -> Sim_result.t
