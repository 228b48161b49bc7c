(** Page-level lock manager with shared/exclusive modes, strict-FCFS
    queuing, and read-to-write conversion (upgrade) that jumps ahead of
    ordinary waiters — the locking substrate of 2PL (and O2PL), 2PL with
    deferred write locks, wound-wait and wait-die.

    Policy decisions (what to do when a request must wait) are delegated
    to the caller through the [on_block] callback, which fires after the
    request is enqueued and receives the transactions currently blocking
    it.

    The table is indexed by transaction attempt as well as by page: each
    attempt's footprint lists the lock entries it holds or awaits (each
    entry carries its page) and its queued requests, so releasing an
    attempt, listing its exclusive pages and searching for a deadlock
    through it never scan the page table. A granted lock is one mutable
    hold record, which a conversion upgrades in place. The page table
    holds only locked pages: an entry that empties leaves it. *)

open Ddbm_model

type t

type mode = S | X

val mode_compatible : mode -> mode -> bool

(** [create eng ~blocking] records per-request blocking times into
    [blocking]. *)
val create : Desim.Engine.t -> blocking:Desim.Stats.Tally.t -> t

(** [request t txn page mode ~on_block] acquires [mode] on [page] for
    [txn], blocking the calling cohort process until granted. A request
    for a mode already covered by a held lock returns immediately; an
    [X] request while holding [S] is an upgrade, granted immediately iff
    [txn] is the sole holder and otherwise queued ahead of ordinary
    waiters. Raises whatever exception the waiter is rejected with when
    the transaction is aborted while blocked. *)
val request :
  ?pre_block:(Txn.t list -> unit) ->
  t ->
  Txn.t ->
  Ids.Page.t ->
  mode ->
  on_block:(Txn.t list -> unit) ->
  unit

(** Release every lock and waiting request of [txn]; its blocked requests
    are rejected with [reject]; newly grantable waiters are granted. *)
val release_all : t -> Txn.t -> reject:exn -> unit

(** Waits-for edges of this table: each waiter against its incompatible
    holders and incompatible waiters queued ahead of it, sorted by
    {!Cc_intf.compare_edge}. Walks the attempt index, not the page
    table, and returns [[]] at once when nothing waits. *)
val edges : t -> Cc_intf.edge list

(** Number of queued (blocked) requests. O(1). *)
val num_waiting : t -> int

(** [find_cycle_through t txn] is the waits-for cycle through [txn]
    (members in path order, [txn] first) that
    [Wfg.find_cycle_through (Wfg.of_edges (edges t)) txn] finds, or
    [None] — computed by walking the blockers of queued requests on
    demand from [txn], without building the graph. Doomed attempts
    break edges. *)
val find_cycle_through : t -> Txn.t -> Txn.t list option

(** Pages on which [txn] currently holds an exclusive lock — exactly the
    updates a lock-based scheme installs at commit. *)
val exclusive_pages : t -> Txn.t -> Ids.Page.t list

(** Current blockers of [txn]'s waiting request on [page] (testing). *)
val current_blockers : t -> Txn.t -> Ids.Page.t -> Txn.t list

(** Mode held by [txn] on [page], if any (testing). *)
val held : t -> Txn.t -> Ids.Page.t -> mode option
