(** Page-level lock manager with shared/exclusive modes, FCFS queuing, and
    read-to-write lock conversion (upgrade) that jumps ahead of ordinary
    waiters — the locking substrate of 2PL (and O2PL, which shares its
    manager), 2PL with deferred write locks, wound-wait and wait-die.

    Policy decisions (what to do when a request must wait) are delegated to
    the caller through the [on_block] callback, which fires after the
    request is enqueued and receives the set of transactions currently
    blocking it.

    A granted lock is one mutable hold record in its page's entry; a
    conversion upgrades that record in place. Beside the page table, the
    lock table keeps one footprint per transaction attempt: the entries it
    holds or awaits a lock on (each entry knows its page), and its queued
    requests. Releasing an attempt and listing its exclusive pages touch
    only its own entries; the block-time deadlock search follows the
    blockers of waiting attempts on demand, and the waits-for snapshot
    reads the queued requests through the attempt index (nothing at all
    when no request waits).

    An entry that empties leaves the page table, so the table only holds
    locked pages, and is not recycled: a reused record lives in the major
    heap, where every hold list written into it goes through the write
    barrier into the remembered set, which costs more than a fresh entry
    that dies young. Requests, re-requests and releases walk their lists
    with top-level recursive functions rather than closures, and a hold
    lookup returns the suffix of the holder list that starts with the
    hold rather than an option, so the release of an uncontended attempt
    allocates nothing. *)

open Desim
open Ddbm_model
open Ids

type mode = S | X

let mode_compatible a b = a = S && b = S

(** One attempt's lock on one page. *)
type holder = { h_txn : Txn.t; mutable h_mode : mode }

type waiting = {
  w_txn : Txn.t;
  w_mode : mode;
  w_conversion : bool;
  w_resolver : unit Engine.resolver;
  w_enqueued : float;
  w_entry : lock_entry;  (** the entry it is queued in *)
  w_owner : footprint;  (** its attempt's footprint *)
}

and lock_entry = {
  page : Page.t;
  mutable holders : holder list;
  mutable queue : waiting list;  (** grant order: conversions first *)
}

(** Everything one attempt holds or awaits at this node. Invariant: an
    entry is in [locks] iff the attempt holds or awaits a lock on its
    page. *)
and footprint = {
  mutable locks : lock_entry list;  (** most recent first *)
  mutable waits : waiting list;  (** its queued requests *)
}

type t = {
  eng : Engine.t;
  blocking : Stats.Tally.t;
  table : lock_entry Page_table.t;
  attempts : footprint Txn.Table.t;
  mutable n_waiting : int;  (** queued requests, all attempts *)
}

let create eng ~blocking =
  {
    eng;
    blocking;
    table = Page_table.create 512;
    attempts = Txn.Table.create 64;
    n_waiting = 0;
  }

(* Most requests lock a page nobody holds, so the lookup usually misses:
   [find_opt] then allocates nothing, where raising [Not_found] on
   nearly every request made requests about a third slower. *)
let entry_of t page =
  match Page_table.find_opt t.table page with
  | Some e -> e
  | None ->
      let e = { page; holders = []; queue = [] } in
      Page_table.add t.table page e;
      e

(* After an attempt's first request here the lookup hits, and [find]
   allocates nothing. *)
let footprint_of t txn =
  try Txn.Table.find t.attempts txn
  with Not_found ->
    let f = { locks = []; waits = [] } in
    Txn.Table.add t.attempts txn f;
    f

(* The suffix of [holders] that starts with [txn]'s hold record, or [[]]
   when it holds nothing there. *)
let rec find_hold txn = function
  | [] -> []
  | h :: rest as holders ->
      if Txn.same_attempt h.h_txn txn then holders else find_hold txn rest

let no_waiters entry = match entry.queue with [] -> true | _ :: _ -> false

let sole_holder entry txn =
  match entry.holders with
  | [ h ] -> Txn.same_attempt h.h_txn txn
  | _ -> false

let rec all_compatible mode = function
  | [] -> true
  | h :: rest -> mode_compatible h.h_mode mode && all_compatible mode rest

(* Holders other than [txn] whose mode conflicts with [mode], in holder
   order, followed by [tail]. *)
let rec blocking_holders txn mode tail = function
  | [] -> tail
  | h :: rest ->
      if Txn.same_attempt h.h_txn txn || mode_compatible h.h_mode mode then
        blocking_holders txn mode tail rest
      else h.h_txn :: blocking_holders txn mode tail rest

(* Incompatible waiters of other attempts queued ahead of [w], nearest
   first, onto [acc]. *)
let rec blocking_ahead w acc = function
  | [] -> acc (* w not found: it was granted concurrently *)
  | q :: rest ->
      if q == w then acc
      else if
        (not (mode_compatible q.w_mode w.w_mode))
        && not (Txn.same_attempt q.w_txn w.w_txn)
      then blocking_ahead w (q.w_txn :: acc) rest
      else blocking_ahead w acc rest

(** Transactions currently preventing [w] from being granted: incompatible
    holders plus incompatible waiters queued ahead of it. *)
let blockers_of (w : waiting) =
  let entry = w.w_entry in
  blocking_holders w.w_txn w.w_mode
    (blocking_ahead w [] entry.queue)
    entry.holders

(* [queue] with [w] inserted after its conversions prefix (the queue is
   always conversions first, FIFO among themselves). *)
let rec insert_conversion w = function
  | q :: rest when q.w_conversion -> q :: insert_conversion w rest
  | queue -> w :: queue

let insert_waiter t w =
  let entry = w.w_entry in
  entry.queue <-
    (if w.w_conversion then insert_conversion w entry.queue
     else entry.queue @ [ w ]);
  w.w_owner.waits <- w :: w.w_owner.waits;
  t.n_waiting <- t.n_waiting + 1

(* [l] without [w], sharing the suffix after it. *)
let rec remove_waiter w = function
  | [] -> []
  | q :: rest -> if q == w then rest else q :: remove_waiter w rest

(* Grant [w], the head of its entry's queue. *)
let grant t w rest =
  let entry = w.w_entry in
  entry.queue <- rest;
  w.w_owner.waits <- remove_waiter w w.w_owner.waits;
  t.n_waiting <- t.n_waiting - 1;
  (if w.w_conversion then
     match find_hold w.w_txn entry.holders with
     | h :: _ -> h.h_mode <- X
     | [] -> () (* a converting attempt holds S until it is released *)
   else
     entry.holders <- { h_txn = w.w_txn; h_mode = w.w_mode } :: entry.holders);
  Stats.Tally.add t.blocking (Engine.now t.eng -. w.w_enqueued);
  Engine.resolve w.w_resolver ()

(** Grant eligible queued requests, strictly in queue order (head only, to
    avoid starvation): stop at the first request that cannot be granted. *)
let rec grant_pass t entry =
  match entry.queue with
  | [] -> ()
  | w :: rest ->
      let grantable =
        if w.w_conversion then sole_holder entry w.w_txn
        else all_compatible w.w_mode entry.holders
      in
      if grantable then begin
        grant t w rest;
        grant_pass t entry
      end

(* Waiters of other attempts that [txn]'s request would queue behind, in
   queue order; a conversion only queues behind other conversions. *)
let rec queued_blockers txn mode conversion = function
  | [] -> []
  | q :: rest ->
      if
        Txn.same_attempt q.w_txn txn
        || (conversion && not q.w_conversion)
        || mode_compatible q.w_mode mode
      then queued_blockers txn mode conversion rest
      else q.w_txn :: queued_blockers txn mode conversion rest

(** Blockers a fresh request by [txn] would face, computed before it is
    enqueued (used by pre-blocking policies like wait-die, which must be
    able to abort the requester by raising instead of waiting). *)
let prospective_blockers entry txn mode conversion =
  blocking_holders txn mode
    (queued_blockers txn mode conversion entry.queue)
    entry.holders

(* Enqueue [txn]'s request and park its process until it is granted. A
   converting attempt holds S on the page already, so the entry is in its
   footprint; a fresh request is the attempt's first on the page. *)
let block ?pre_block t txn entry mode ~conversion ~on_block =
  (match pre_block with
  | Some f -> f (prospective_blockers entry txn mode conversion)
  | None -> ());
  let f = footprint_of t txn in
  if not conversion then f.locks <- entry :: f.locks;
  Engine.suspend (fun (r : unit Engine.resolver) ->
      let w =
        {
          w_txn = txn;
          w_mode = mode;
          w_conversion = conversion;
          w_resolver = r;
          w_enqueued = Engine.now t.eng;
          w_entry = entry;
          w_owner = f;
        }
      in
      insert_waiter t w;
      on_block (blockers_of w))

(** [request t txn page mode ~on_block] acquires [mode] on [page] for
    [txn], blocking the calling cohort process until granted. When the
    request must wait, [pre_block] (if given) runs first, in the caller's
    process context, with the prospective blockers — it may raise to
    abort the request instead of waiting (wait-die). Then the waiter is
    enqueued and [on_block] is invoked with its actual blockers (wounds,
    deadlock detection). Raises whatever exception the waiter is rejected
    with when the transaction is aborted while blocked. *)
let request ?pre_block t txn page mode ~on_block =
  let entry = entry_of t page in
  match find_hold txn entry.holders with
  | h :: _ ->
      (* X covers everything; S -> X is a conversion, which jumps the
         queue and needs sole holdership only (unless the conformance
         fault hook breaks the check) *)
      if h.h_mode = S && mode = X then
        if sole_holder entry txn || Fault.broken_lock_conversion () then
          h.h_mode <- X
        else block ?pre_block t txn entry mode ~conversion:true ~on_block
  | [] ->
      if no_waiters entry && all_compatible mode entry.holders then begin
        entry.holders <- { h_txn = txn; h_mode = mode } :: entry.holders;
        let f = footprint_of t txn in
        f.locks <- entry :: f.locks
      end
      else block ?pre_block t txn entry mode ~conversion:false ~on_block

(* [holders] without [txn]'s hold record, sharing the suffix after it;
   physically [holders] when [txn] holds nothing there. *)
let rec drop_holder txn = function
  | [] -> []
  | h :: rest as holders ->
      if Txn.same_attempt h.h_txn txn then rest
      else
        let rest' = drop_holder txn rest in
        if rest' == rest then holders else h :: rest'

(* [queue] without the waiters of footprint [f], each rejected with
   [reject] in queue order; physically [queue] when [f] has none there. *)
let rec drop_waiters f reject = function
  | [] -> []
  | q :: rest as queue ->
      if q.w_owner == f then begin
        Engine.reject q.w_resolver reject;
        drop_waiters f reject rest
      end
      else
        let rest' = drop_waiters f reject rest in
        if rest' == rest then queue else q :: rest'

let rec release_entries t txn f reject = function
  | [] -> ()
  | entry :: entries ->
      entry.holders <- drop_holder txn entry.holders;
      entry.queue <- drop_waiters f reject entry.queue;
      grant_pass t entry;
      if entry.holders == [] && no_waiters entry then
        Page_table.remove t.table entry.page;
      release_entries t txn f reject entries

(** Release every lock and waiting request of [txn]. Blocked requests are
    rejected with [reject]. Newly grantable waiters are granted. *)
let release_all t txn ~reject =
  match Txn.Table.find t.attempts txn with
  | exception Not_found -> ()
  | f ->
      Txn.Table.remove t.attempts txn;
      t.n_waiting <- t.n_waiting - List.length f.waits;
      release_entries t txn f reject f.locks

(** Waits-for edges of this node's lock table. *)
let edges t =
  if t.n_waiting = 0 then []
  else
    Txn.Table.fold
      (fun _ f acc ->
        List.fold_left
          (fun acc w ->
            List.fold_left
              (fun acc holder -> { Cc_intf.waiter = w.w_txn; holder } :: acc)
              acc (blockers_of w))
          acc f.waits)
      t.attempts []
    |> List.sort Cc_intf.compare_edge

let num_waiting t = t.n_waiting

(* The distinct blockers of [txn]'s queued requests in descending attempt
   order: the successors [Wfg.of_edges (edges t)] gives [txn]. *)
let successors t txn =
  match Txn.Table.find t.attempts txn with
  | exception Not_found -> []
  | { waits = []; _ } -> []
  | f ->
      List.concat_map blockers_of f.waits
      |> List.sort_uniq (fun a b -> Txn.compare_attempt b a)

let find_cycle_through t txn =
  Wfg.find_cycle ~successors:(successors t)
    ~alive:(fun (x : Txn.t) -> not x.Txn.doomed)
    txn

(** Current blockers of [txn]'s waiting request on [page] (testing). *)
let current_blockers t txn page =
  match Page_table.find_opt t.table page with
  | None -> []
  | Some entry -> (
      match List.find_opt (fun w -> Txn.same_attempt w.w_txn txn) entry.queue with
      | None -> []
      | Some w -> blockers_of w)

let rec exclusive_of txn = function
  | [] -> []
  | entry :: entries -> (
      match find_hold txn entry.holders with
      | { h_mode = X; _ } :: _ -> entry.page :: exclusive_of txn entries
      | { h_mode = S; _ } :: _ | [] -> exclusive_of txn entries)

(** Pages on which [txn] currently holds an exclusive lock — exactly the
    updates a lock-based scheme installs at commit. *)
let exclusive_pages t txn =
  match Txn.Table.find t.attempts txn with
  | exception Not_found -> []
  | f -> exclusive_of txn f.locks

(** Mode held by [txn] on [page], if any (testing). *)
let held t txn page =
  match Page_table.find_opt t.table page with
  | None -> None
  | Some entry -> (
      match find_hold txn entry.holders with
      | h :: _ -> Some h.h_mode
      | [] -> None)
