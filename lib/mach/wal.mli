(** Per-node write-ahead log on a modeled log disk.

    Extends the paper's machine (which assumes, per footnote 5, that
    logging is never the bottleneck) with an explicit durability model:
    cohorts append typed records to a volatile log tail, and a {b force}
    flushes the tail with one FCFS write on a dedicated log disk — so
    logging cost shows up in throughput, log-disk utilization, and the
    [log] component of the response-time decomposition.

    The model keeps a per-transaction digest rather than the record
    sequence itself: enough to answer the durability questions recovery
    and the no-lost-commit invariant ask, and to size the redo pass.
    The digest is keyed by the attempt's {!Txn.Key}, one immediate int,
    and an entry keeps its write-set pages and predecessors as one list
    each, newest first, with a count of the prefix that volatile records
    added: a force zeroes the counts and a crash drops the prefixes, so
    appends, installs and forces allocate only what the log keeps (an
    attempt's entry, the first record of each page and predecessor, and
    the dirty-list cell). Tuples appear only at the boundary:
    {!in_doubt}, {!redo_chains} and {!Chains}.

    Durability semantics follow ARIES-style redo logging restricted to
    what the simulation observes: a {!force} makes every record appended
    before the call durable once the disk write completes; a crash
    ({!on_crash}) discards the volatile tail and nothing else — data-disk
    installs and the durable log prefix survive.

    Beyond the per-transaction digest, the log keeps {b dependency
    records}: each update append assigns a log sequence number (LSN),
    extends the transaction's write-set fingerprint, and records the
    previous writer of the page as a predecessor edge. Recovery uses
    them to partition the redo set into independent chains
    ({!redo_chains}) that can replay in parallel; {!Codec} is the
    checksummed on-disk framing those records stand for, with
    torn-tail truncation to the last valid record. *)

type record =
  | Begin of { tid : int; attempt : int }
  | Update of { tid : int; attempt : int; page : Ids.Page.t }
  | Prepare of { tid : int; attempt : int }
  | Commit of { tid : int; attempt : int }
  | Abort of { tid : int; attempt : int }
  | Checkpoint of { active : int }
      (** end-of-recovery checkpoint; once durable, the log before it is
          truncated (digest entries of decided-and-installed transactions
          are pruned) *)

type t

(** One log per processing node; [rng] drives the uniform
    [min_time, max_time] log-disk service times. *)
val create :
  Desim.Engine.t -> Desim.Rng.t -> min_time:float -> max_time:float -> t

(** Append a record to the volatile tail (no I/O: appends model buffered
    sequential writes; only {!force} pays). Decision records for
    transactions with no update footprint here (read-only cohorts) are
    counted but tracked no further — there is nothing to redo. *)
val append : t -> record -> unit

(** Flush the tail: one blocking FCFS write on the log disk (valid only
    inside a process). Records appended while the write is in flight
    need a force of their own. *)
val force : t -> unit

(** Recovery's analysis pass: one blocking FCFS read of the log disk,
    modeling a sequential scan of the durable prefix (valid only inside
    a process). *)
val scan : t -> unit

(** The node lost volatile state: drop the un-forced tail. The durable
    prefix and install flags survive. With [~torn:true] (and a
    non-empty tail) the suffix additionally reached the platter
    partially: the tear is counted ({!torn_tails}) and the dependency
    DAG is flagged corrupt ({!deps_corrupt}) — the next recovery must
    degrade to serial physical redo until a checkpoint rebuilds it
    ({!repair_deps}). Acknowledged (forced) records are
    never affected, so durability of committed work is preserved. *)
val on_crash : ?torn:bool -> t -> unit

(** The transaction's commit-time deferred page writes reached the data
    disks at this node (data-disk state survives crashes, so an
    installed transaction needs no redo). *)
val mark_installed : t -> tid:int -> attempt:int -> unit

val prepared_durable : t -> tid:int -> attempt:int -> bool
val committed_durable : t -> tid:int -> attempt:int -> bool
val installed : t -> tid:int -> attempt:int -> bool

(** Whether the digest still holds an entry for this attempt. [false]
    means the log never saw an update footprint here (read-only cohort)
    or a durable checkpoint pruned a fully decided-and-installed entry —
    either way, nothing can be lost. *)
val tracked : t -> tid:int -> attempt:int -> bool

(** Durable update records needing redo if the decision is commit. *)
val redo_pages : t -> tid:int -> attempt:int -> int

(** Analysis pass: transactions with a durable prepare record, no
    durable decision record, and no completed installs — exactly the
    set recovery must resolve through the coordinator's decision log.
    Sorted by (tid, attempt) for deterministic iteration. *)
val in_doubt : t -> (int * int) list

(** Records appended (including volatile ones lost to crashes). *)
val records : t -> int

(** Completed {!force} calls. *)
val forces : t -> int

(** Records made durable by completed forces. *)
val forced_records : t -> int

val utilization : t -> float

(** Crashes that tore a partially forced tail (the suffix the next scan
    truncates at the last checksum-valid record). *)
val torn_tails : t -> int

(** A torn tail clipped dependency records: the chain partitioner must
    not trust the DAG. Cleared by {!repair_deps} once a full physical
    redo and checkpoint rebuild it. *)
val deps_corrupt : t -> bool

val repair_deps : t -> unit

(** Cumulative log-disk busy time since creation (never reset). *)
val busy_time : t -> float

val reset_window : t -> unit

(** Topological partitioning of dependency records into independent redo
    chains. Pure: a function of the input list alone, so properties are
    checkable without a log or an engine. *)
module Chains : sig
  type txn = {
    key : int * int;  (** (tid, attempt) *)
    pages : Ids.Page.t list;  (** write-set fingerprint *)
    deps : (int * int) list;  (** predecessor transactions *)
    lsn : int;  (** LSN of the latest durable record *)
  }

  (** Partition into chains such that transactions sharing a write-set
      page or connected by a dependency edge (to a key inside the input
      set) land in the same chain. Chains carry no cross-chain edges, so
      they replay in parallel; the union of all chains is exactly the
      input key set. Members are ordered by (LSN, key) — commit order —
      and chains by their first member's (LSN, key). *)
  val partition : txn list -> (int * int) list list
end

(** The dependency records of [keys], partitioned into independent redo
    chains ({!Chains.partition}). Keys the digest no longer tracks
    (read-only cohorts, pruned entries) have an empty footprint and fall
    out as singleton chains. *)
val redo_chains : t -> (int * int) list -> (int * int) list list

(** The checksummed on-disk framing the dependency digest stands for:
    magic byte, length, payload (tid, attempt, LSN, write-set pages,
    predecessor keys — u32 big-endian), FNV-1a checksum. A torn tail
    leaves a checksum-invalid suffix that {!Codec.scan_valid} truncates
    at the last valid record. *)
module Codec : sig
  type dep_record = {
    tid : int;
    attempt : int;
    lsn : int;
    pages : (int * int) list;  (** (file, index) pairs *)
    deps : (int * int) list;  (** predecessor (tid, attempt) pairs *)
  }

  (** Concatenated frames, in order. *)
  val encode_log : dep_record list -> string

  (** Walk frames from the start; stop at the first invalid one.
      Returns the records of the valid prefix and the count of torn
      bytes truncated from the tail. *)
  val scan_valid : string -> dep_record list * int
end
