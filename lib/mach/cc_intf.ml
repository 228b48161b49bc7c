(** Interface between the transaction layer and a node's concurrency
    control manager.

    The concurrency control manager is the only module that changes from
    algorithm to algorithm (Section 3.6 of the paper); everything above it
    talks to this record of operations. All operations run in the context
    of the calling cohort process: [read] and [write] may block the cohort
    (by suspending it) and may raise {!Txn.Aborted} when the algorithm
    decides the requesting transaction itself must abort. *)

(** A waits-for edge: [waiter]'s cohort at this node is blocked on a
    resource held by [holder]. Transaction-level granularity, as gathered
    by the Snoop global deadlock detector. *)
type edge = { waiter : Txn.t; holder : Txn.t }

(** Canonical edge order: by waiter key, then holder key. [cc_edges]
    implementations fold hash tables; sorting with this comparator keeps
    the snapshot independent of bucket layout. *)
let compare_edge a b =
  match Txn.compare_attempt a.waiter b.waiter with
  | 0 -> Txn.compare_attempt a.holder b.holder
  | n -> n

type node_cc = {
  algorithm : Params.cc_algorithm;
  cc_read : Txn.t -> Ids.Page.t -> unit;
      (** permission to read a page; blocks until granted *)
  cc_write : Txn.t -> Ids.Page.t -> unit;
      (** permission to update an already-read page (lock conversion /
          pending write / write-set note); blocks until granted *)
  cc_prepare : Txn.t -> bool;
      (** local prepare processing; [false] = vote no (OPT certification
          failure). For OPT, [Txn.commit_ts] must be set by the caller. *)
  cc_installed : Txn.t -> Ids.Page.t list;
      (** pages whose updates this node will actually install if the
          transaction commits now — excludes e.g. BTO's Thomas-rule
          dropped writes. Used by the serializability auditor; must be
          called immediately before [cc_commit]. *)
  cc_commit : Txn.t -> unit;
      (** commit point at this node: install pending writes, release locks,
          wake waiters *)
  cc_abort : Txn.t -> unit;
      (** abort at this node: undo, release locks, reject any blocked
          request of this transaction. Must be idempotent and safe to call
          for transactions with no footprint here. *)
  cc_edges : unit -> edge list;
      (** snapshot of this node's waits-for edges (Snoop collection) *)
  cc_blocking : Desim.Stats.Tally.t;
      (** observed per-request blocking times at this node *)
}

(** Services a CC manager needs from the rest of the machine. Constructed
    per node by the machine assembly. *)
type hooks = {
  eng : Desim.Engine.t;
  clock : Timestamp.Clock.t;
  charge_cc_request : unit -> unit;
      (** consume InstPerCCReq CPU at this node (blocking; no-op when the
          cost parameter is zero) *)
  request_abort : Txn.t -> Txn.abort_reason -> unit;
      (** ask the transaction's coordinator to abort it; routed as a
          network message by the machine. Must tolerate duplicates and
          stale attempts. *)
}
