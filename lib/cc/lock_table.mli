(** Page-level lock manager with shared/exclusive modes, strict-FCFS
    queuing, and read-to-write conversion (upgrade) that jumps ahead of
    ordinary waiters — the locking substrate of {!Locking}: 2PL, O2PL,
    2PL with deferred write locks, wound-wait and wait-die.

    Policy decisions (what to do when a request must wait) are delegated
    to the caller through two callbacks of {!request}, both supplied by
    {!Locking}: [pre_block] runs before the request is queued and may
    abort it instead (wait-die); [on_block] runs after it is queued
    (deadlock detection, wounds).

    The table is indexed by transaction attempt as well as by page: each
    attempt's footprint lists the lock entries it holds or awaits (each
    entry carries its page) and its queued requests, so releasing an
    attempt, listing its exclusive pages and searching for a deadlock
    through it never scan the page table. A page's oldest hold is kept
    inside its entry, so only a shared page's further holders cost a
    record each; a conversion upgrades a hold in place. The page index
    holds only locked pages: an entry that empties leaves it, to be
    reused for the next page locked, as a released attempt's footprint
    is for the next attempt. A blocked
    request parks on the table's one parker, building no closure of its
    own, and the deadlock search is {!Wfg.Search} over the footprints,
    which allocates only the cycle it returns. *)

open Ddbm_model

type t

type mode = S | X

val mode_compatible : mode -> mode -> bool

(** [create eng ~blocking] records per-request blocking times into
    [blocking]. With [broken_lock_conversion] (default [false]), the
    chaos switch of {!Ddbm_model.Fault_plan.broken_lock_conversion},
    the table grants every read-to-write conversion at once, even when
    the converter is not the sole holder. *)
val create :
  ?broken_lock_conversion:bool ->
  Desim.Engine.t ->
  blocking:Desim.Stats.Tally.t ->
  t

(** [request ?pre_block t txn page mode ~on_block] acquires [mode] on
    [page] for [txn], blocking the calling cohort process until granted.
    A request for a mode already covered by a held lock returns
    immediately; an [X] request while holding [S] is an upgrade, granted
    immediately iff [txn] is the sole holder and otherwise queued ahead
    of ordinary waiters. When the request must wait, [pre_block] (if
    given) first runs in the caller's process with the prospective
    blockers — the transactions the request would wait for — before
    anything is queued; it may raise to abort the request instead of
    waiting. Then the request is queued and [on_block] runs with its
    actual blockers. Raises whatever exception the waiter is rejected
    with when the transaction is aborted while blocked. *)
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
    [None] — computed by the same search walking the blockers of queued
    requests on demand from [txn], without building the graph. Doomed
    attempts break edges. Allocates only the cycle. *)
val find_cycle_through : t -> Txn.t -> Txn.t list option

(** Pages on which [txn] currently holds an exclusive lock — exactly the
    updates a lock-based scheme installs at commit. *)
val exclusive_pages : t -> Txn.t -> Ids.Page.t list

(** Current blockers of [txn]'s waiting request on [page] (testing). *)
val current_blockers : t -> Txn.t -> Ids.Page.t -> Txn.t list

(** Mode held by [txn] on [page], if any (testing). *)
val held : t -> Txn.t -> Ids.Page.t -> mode option
