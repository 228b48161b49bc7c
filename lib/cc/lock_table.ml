(** Page-level lock manager with shared/exclusive modes, FCFS queuing, and
    read-to-write lock conversion (upgrade) that jumps ahead of ordinary
    waiters — the locking substrate of {!Locking}: 2PL, O2PL, 2PL with
    deferred write locks, wound-wait and wait-die.

    Policy decisions (what to do when a request must wait) are delegated to
    {!Locking} through the [pre_block] and [on_block] callbacks of
    [request].

    An entry holds its page's oldest hold inline, the attempt and its
    mode. Younger holds, which a page has only while several attempts
    share it or after its oldest holder left, are hold records in a
    list, newest first; every walk visits them before the inline hold,
    so it sees all holders newest first, the order that decides
    blockers and, through them, deadlock victims. A conversion upgrades
    a hold in place.
    An emptied inline slot holds the table's [vacant] attempt, which
    never requests a lock. Entries are chained into the page index's
    buckets through a field of their own, ended by the table's [spare]
    entry, so a locked page costs its entry and no bucket cell. Beside
    the page index, the lock table keeps one footprint per transaction
    attempt: an array of the entries it holds or awaits a lock on (each
    entry knows its page), and its queued requests. Releasing an attempt
    and listing its exclusive pages touch only its own entries; the
    block-time deadlock search ({!Wfg.Search}) follows the blockers of
    waiting attempts on demand, and the waits-for snapshot reads the
    queued requests through the attempt index (nothing at all when no
    request waits).

    A transaction holds its locks until it commits, for simulated
    seconds, so its entries and footprints outlive minor collections.
    Rather than promote fresh ones for every attempt, the table recycles
    them: an entry that leaves the index goes onto a free list chained
    through its [next], and a released footprint onto a stack of idle
    ones, keeping its grown [locks] array. Every entry is in the index
    or on the free list, and every footprint in the attempt index or on
    the stack, so both are bounded by the table's peak of live locks and
    attempts, not by the pages ever locked. Arrays start small enough
    for the minor heap and grow by copying, since [Array.make] of more
    than 256 words with a young initial value (the spare) forces a minor
    collection.

    The search pushes each entered attempt's blockers straight from its
    queued requests onto the search's reused stack and marks the attempt
    with the search's stamp on its latest queued request, so it
    allocates only the cycle it returns. A blocked request parks on the
    table's one parker, handing the request over through that parker's
    mutable fields as the CPU does, so a block builds no closure or
    parker of its own. The parker and the search's state are built on
    the table's first block.

    An emptied entry is not kept in its bucket for the page's next
    request: that won host time on [paper-2pl-8n] but lost it on
    [wide-2pl-64n], whose locks spread over ten times as many pages, and
    raised that workload's peak heap from 12 to 23 MiB (EXPERIMENTS.md,
    "Per-transaction state that dies young"). Requests, re-requests and
    releases walk their lists with top-level recursive functions or
    loops rather than closures, and a hold lookup returns a constant
    option, so the release of an uncontended attempt allocates
    nothing. *)

open Desim
open Ddbm_model
open Ids

type mode = S | X

let mode_compatible a b = a = S && b = S

(** One attempt's lock on one page, beyond the page's oldest. *)
type holder = { h_txn : Txn.t; mutable h_mode : mode }

type waiting = {
  w_txn : Txn.t;
  w_mode : mode;
  w_conversion : bool;
  w_resolver : Engine.resolver;
  w_enqueued : float;
  w_entry : lock_entry;  (** the entry it is queued in *)
  w_owner : footprint;  (** its attempt's footprint *)
  mutable w_seen : int;
      (** at the head of [w_owner.waits]: the stamp of the last deadlock
          search that entered its attempt *)
}

(** A page's holds, newest first, are [others] and then [first]. *)
and lock_entry = {
  mutable page : Page.t;
  mutable first : Txn.t;
      (** the oldest hold's attempt, or the table's [vacant] sentinel
          when the page has no hold older than [others] *)
  mutable first_mode : mode;
  mutable others : holder list;  (** the younger holds, newest first *)
  mutable queue : waiting list;  (** grant order: conversions first *)
  mutable next : lock_entry;
      (** the next entry of its bucket or of the free list, or the
          table's [spare] *)
}

(** Everything one attempt holds or awaits at this node. Invariant: an
    entry is in [locks] iff the attempt holds or awaits a lock on its
    page. *)
and footprint = {
  mutable locks : lock_entry array;
      (** its first [n_locks] slots, oldest first; the rest are spare *)
  mutable n_locks : int;
  mutable waits : waiting list;  (** its queued requests *)
}

(* What only a table that has blocked a request needs, built on its
   first block: the state of the deadlock searches over its attempts,
   and its one parker with the request [block] parks, which the parker's
   registration reads inside [Engine.park]. *)
type contended = {
  attempts : footprint Txn.Table.t;  (** the table's *)
  c_vacant : Txn.t;  (** the table's *)
  search : Txn.t Wfg.state;
  parker : Engine.parker;
  mutable p_txn : Txn.t;
  mutable p_mode : mode;
  mutable p_conversion : bool;
  mutable p_entry : lock_entry;
  mutable p_owner : footprint;
  mutable p_on_block : Txn.t list -> unit;
}

type t = {
  eng : Engine.t;
  blocking : Stats.Tally.t;
  vacant : Txn.t;
      (** an attempt that never requests a lock: the [first] of an entry
          whose oldest hold is gone *)
  spare : lock_entry;  (** ends every bucket; holds nothing *)
  mutable buckets : lock_entry array;  (** a power of two of them *)
  mutable entries : int;  (** in the buckets *)
  mutable free : lock_entry;
      (** emptied entries, chained through [next], ended by [spare] *)
  attempts : footprint Txn.Table.t;
  mutable idle : footprint array;
      (** its first [n_idle] are released footprints, to be reused *)
  mutable n_idle : int;
  mutable n_waiting : int;  (** queued requests, all attempts *)
  mutable contended : contended option;
}

(* The spare is young here: 256 buckets still fit the minor heap. *)
let create eng ~blocking =
  let vacant = Txn.placeholder () in
  let rec spare =
    {
      page = Page.make ~file:0 ~index:0;
      first = vacant;
      first_mode = S;
      others = [];
      queue = [];
      next = spare;
    }
  in
  {
    eng;
    blocking;
    vacant;
    spare;
    buckets = Array.make 256 spare;
    entries = 0;
    free = spare;
    attempts = Txn.Table.create 64;
    idle = [||];
    n_idle = 0;
    n_waiting = 0;
    contended = None;
  }

(* The page index: each entry is chained into its page's bucket through
   its own [next], so a locked page costs its entry and nothing else. *)
let bucket t page = Page.hash page land (Array.length t.buckets - 1)

let rec find_in t page e =
  if e == t.spare || Page.equal e.page page then e else find_in t page e.next

(* [page]'s entry, or [t.spare] when the page is not locked. *)
let find_entry t page = find_in t page t.buckets.(bucket t page)

let rec rechain t e =
  if e != t.spare then begin
    let next = e.next in
    let b = bucket t e.page in
    e.next <- t.buckets.(b);
    t.buckets.(b) <- e;
    rechain t next
  end

(* Double the buckets once they hold two entries each on average, by
   copying: the spare may still be young. *)
let grow t =
  let old = t.buckets in
  t.buckets <- Array.append old old;
  Array.fill t.buckets 0 (Array.length t.buckets) t.spare;
  Array.iter (rechain t) old

(* A free entry has no hold and no queue (it left the index unused), and
   the mode of a [vacant] first hold is never read, so a reused entry
   needs only its page and its chain. *)
let entry_of t page =
  let b = bucket t page in
  let e = find_in t page t.buckets.(b) in
  if e != t.spare then e
  else begin
    let e =
      if t.free == t.spare then
        {
          page;
          first = t.vacant;
          first_mode = S;
          others = [];
          queue = [];
          next = t.buckets.(b);
        }
      else begin
        let e = t.free in
        t.free <- e.next;
        e.page <- page;
        e.next <- t.buckets.(b);
        e
      end
    in
    t.buckets.(b) <- e;
    t.entries <- t.entries + 1;
    if t.entries > 2 * Array.length t.buckets then grow t;
    e
  end

(* Whether [entry] was chained after [prev] (and is no more). *)
let rec unlink t entry prev =
  prev != t.spare
  &&
  if prev.next == entry then begin
    prev.next <- entry.next;
    true
  end
  else unlink t entry prev.next

let free_entry t entry =
  t.entries <- t.entries - 1;
  entry.next <- t.free;
  t.free <- entry

(* An attempt with two requests queued on one page lists its entry twice,
   so an entry may already be gone when its release finds it unused: only
   an entry still chained in its bucket is freed. *)
let remove_entry t entry =
  let b = bucket t entry.page in
  let head = t.buckets.(b) in
  if head == entry then begin
    t.buckets.(b) <- entry.next;
    free_entry t entry
  end
  else if unlink t entry head then free_entry t entry

(* After an attempt's first request here the lookup hits, and [find]
   allocates nothing. A cohort locks a dozen pages or so at a node, so a
   footprint starts with room for twelve. *)
let footprint_of t txn =
  try Txn.Table.find t.attempts txn
  with Not_found ->
    let f =
      if t.n_idle = 0 then
        { locks = Array.make 12 t.spare; n_locks = 0; waits = [] }
      else begin
        t.n_idle <- t.n_idle - 1;
        t.idle.(t.n_idle)
      end
    in
    Txn.Table.add t.attempts txn f;
    f

(* Grows by copying, as the buckets do. *)
let idle_footprint t f =
  f.n_locks <- 0;
  f.waits <- [];
  if t.n_idle = Array.length t.idle then
    t.idle <- Array.append t.idle (Array.make (t.n_idle + 4) f);
  t.idle.(t.n_idle) <- f;
  t.n_idle <- t.n_idle + 1

(* Doubles by copying, as the buckets do. *)
let add_lock f entry =
  if f.n_locks = Array.length f.locks then
    f.locks <- Array.append f.locks f.locks;
  f.locks.(f.n_locks) <- entry;
  f.n_locks <- f.n_locks + 1

(* The suffix of [others] that starts with [txn]'s hold record, or [[]]
   when it holds none there. *)
let rec find_other txn = function
  | [] -> []
  | h :: rest as others ->
      if Txn.same_attempt h.h_txn txn then others else find_other txn rest

(* Constant constructors: a lookup allocates nothing. *)
let some_mode = function S -> Some S | X -> Some X

(* The mode [txn] holds on [entry]. The [vacant] attempt is the same
   attempt as no requester. *)
let held_mode txn entry =
  if Txn.same_attempt entry.first txn then some_mode entry.first_mode
  else
    match find_other txn entry.others with
    | h :: _ -> some_mode h.h_mode
    | [] -> None

(* [txn]'s S hold on [entry] becomes X. *)
let set_exclusive txn entry =
  if Txn.same_attempt entry.first txn then entry.first_mode <- X
  else
    match find_other txn entry.others with
    | h :: _ -> h.h_mode <- X
    | [] -> () (* a converting attempt holds S until it is released *)

(* The oldest hold is inline while no younger one is left over from
   before it was released, so the first hold of a page allocates
   nothing. *)
let add_hold t entry txn mode =
  if entry.first == t.vacant && entry.others == [] then begin
    entry.first <- txn;
    entry.first_mode <- mode
  end
  else entry.others <- { h_txn = txn; h_mode = mode } :: entry.others

let no_waiters entry = match entry.queue with [] -> true | _ :: _ -> false

let unused t entry =
  entry.first == t.vacant && entry.others == [] && no_waiters entry

let sole_holder t entry txn =
  match entry.others with
  | [] -> Txn.same_attempt entry.first txn
  | [ h ] -> entry.first == t.vacant && Txn.same_attempt h.h_txn txn
  | _ :: _ :: _ -> false

let rec others_compatible mode = function
  | [] -> true
  | h :: rest -> mode_compatible h.h_mode mode && others_compatible mode rest

let all_compatible t mode entry =
  others_compatible mode entry.others
  && (entry.first == t.vacant || mode_compatible entry.first_mode mode)

(* Whether the hold of [holder] in [hmode] blocks [txn]'s request for
   [mode]. *)
let blocks txn mode holder hmode =
  not (Txn.same_attempt holder txn || mode_compatible hmode mode)

(* Younger holders other than [txn] whose mode conflicts with [mode], in
   holder order, followed by [tail]. *)
let rec blocking_others txn mode tail = function
  | [] -> tail
  | h :: rest ->
      if blocks txn mode h.h_txn h.h_mode then
        h.h_txn :: blocking_others txn mode tail rest
      else blocking_others txn mode tail rest

(* Holders of [entry] other than [txn] whose mode conflicts with [mode],
   newest first, followed by [tail]. *)
let blocking_holders vacant txn mode tail entry =
  let tail =
    if entry.first != vacant && blocks txn mode entry.first entry.first_mode
    then entry.first :: tail
    else tail
  in
  blocking_others txn mode tail entry.others

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
let blockers_of t (w : waiting) =
  let entry = w.w_entry in
  blocking_holders t.vacant w.w_txn w.w_mode
    (blocking_ahead w [] entry.queue)
    entry

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
  if w.w_conversion then set_exclusive w.w_txn entry
  else add_hold t entry w.w_txn w.w_mode;
  Stats.Tally.add t.blocking (Engine.now t.eng -. w.w_enqueued);
  Engine.resolve w.w_resolver

(** Grant eligible queued requests, strictly in queue order (head only, to
    avoid starvation): stop at the first request that cannot be granted. *)
let rec grant_pass t entry =
  match entry.queue with
  | [] -> ()
  | w :: rest ->
      let grantable =
        if w.w_conversion then sole_holder t entry w.w_txn
        else all_compatible t w.w_mode entry
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
let prospective_blockers t entry txn mode conversion =
  blocking_holders t.vacant txn mode
    (queued_blockers txn mode conversion entry.queue)
    entry

(* The parker's registration: queue the parked request with its
   resolver, then run its [on_block]. *)
let enqueue t (c : contended) r =
  let w =
    {
      w_txn = c.p_txn;
      w_mode = c.p_mode;
      w_conversion = c.p_conversion;
      w_resolver = r;
      w_enqueued = Engine.now t.eng;
      w_entry = c.p_entry;
      w_owner = c.p_owner;
      w_seen = 0;
    }
  in
  insert_waiter t w;
  c.p_on_block (blockers_of t w)

let contended t txn mode conversion entry owner on_block =
  match t.contended with
  | Some c -> c
  | None ->
      let parker =
        Engine.parker (fun r ->
            match t.contended with
            | Some c -> enqueue t c r
            | None -> assert false (* set below, before any park *))
      in
      let c =
        {
          attempts = t.attempts;
          c_vacant = t.vacant;
          search = Wfg.state ();
          parker;
          p_txn = txn;
          p_mode = mode;
          p_conversion = conversion;
          p_entry = entry;
          p_owner = owner;
          p_on_block = on_block;
        }
      in
      t.contended <- Some c;
      c

(* Enqueue [txn]'s request and park its process until it is granted. A
   converting attempt holds S on the page already, so the entry is in its
   footprint; a fresh request is the attempt's first on the page. The
   request reaches the table's one parker through its fields. *)
let block ?pre_block t txn entry mode ~conversion ~on_block =
  (match pre_block with
  | Some f -> f (prospective_blockers t entry txn mode conversion)
  | None -> ());
  let f = footprint_of t txn in
  if not conversion then add_lock f entry;
  let c = contended t txn mode conversion entry f on_block in
  c.p_txn <- txn;
  c.p_mode <- mode;
  c.p_conversion <- conversion;
  c.p_entry <- entry;
  c.p_owner <- f;
  c.p_on_block <- on_block;
  Engine.park c.parker

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
  match held_mode txn entry with
  | Some S when mode = X ->
      (* X covers everything; S -> X is a conversion, which jumps the
         queue and needs sole holdership only (unless the conformance
         fault hook breaks the check) *)
      if sole_holder t entry txn || Fault.broken_lock_conversion () then
        set_exclusive txn entry
      else block ?pre_block t txn entry mode ~conversion:true ~on_block
  | Some (S | X) -> ()
  | None ->
      if no_waiters entry && all_compatible t mode entry then begin
        add_hold t entry txn mode;
        add_lock (footprint_of t txn) entry
      end
      else block ?pre_block t txn entry mode ~conversion:false ~on_block

(* [others] without [txn]'s hold record, sharing the suffix after it;
   physically [others] when [txn] holds none there. *)
let rec drop_other txn = function
  | [] -> []
  | h :: rest as others ->
      if Txn.same_attempt h.h_txn txn then rest
      else
        let rest' = drop_other txn rest in
        if rest' == rest then others else h :: rest'

let drop_holder t txn entry =
  if Txn.same_attempt entry.first txn then entry.first <- t.vacant
  else entry.others <- drop_other txn entry.others

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

(* Newest first. *)
let release_entries t txn f reject =
  for i = f.n_locks - 1 downto 0 do
    let entry = f.locks.(i) in
    drop_holder t txn entry;
    entry.queue <- drop_waiters f reject entry.queue;
    grant_pass t entry;
    if unused t entry then remove_entry t entry
  done

(** Release every lock and waiting request of [txn]. Blocked requests are
    rejected with [reject]. Newly grantable waiters are granted. *)
let release_all t txn ~reject =
  match Txn.Table.find t.attempts txn with
  | exception Not_found -> ()
  | f ->
      Txn.Table.remove t.attempts txn;
      t.n_waiting <- t.n_waiting - List.length f.waits;
      release_entries t txn f reject;
      idle_footprint t f

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
              acc (blockers_of t w))
          acc f.waits)
      t.attempts []
    |> List.sort Cc_intf.compare_edge

let num_waiting t = t.n_waiting

(* The block-time deadlock search. An attempt's successors are the
   distinct blockers of its queued requests in descending attempt order,
   the successors [Wfg.of_edges (edges t)] gives it: the walks below push
   the blockers [blockers_of] lists for each request into that order. *)
let descending (a : Txn.t) b = Txn.compare_attempt b a

let push_holder st w holder hmode =
  if blocks w.w_txn w.w_mode holder hmode then
    Wfg.push_ordered st ~order:descending holder

let rec push_others st w = function
  | [] -> ()
  | h :: rest ->
      push_holder st w h.h_txn h.h_mode;
      push_others st w rest

let push_holders vacant st w entry =
  push_others st w entry.others;
  if entry.first != vacant then push_holder st w entry.first entry.first_mode

let rec push_ahead st w = function
  | [] -> ()
  | q :: rest ->
      if q != w then begin
        if
          not
            (mode_compatible q.w_mode w.w_mode
            || Txn.same_attempt q.w_txn w.w_txn)
        then Wfg.push_ordered st ~order:descending q.w_txn;
        push_ahead st w rest
      end

let rec push_blockers vacant st = function
  | [] -> ()
  | w :: rest ->
      push_holders vacant st w w.w_entry;
      push_ahead st w w.w_entry.queue;
      push_blockers vacant st rest

module Search = Wfg.Search (struct
  type g = contended
  type v = Txn.t

  let txn v = v
  let same = Txn.same_attempt
  let alive (v : Txn.t) = not v.Txn.doomed
  let state c = c.search

  (* Only an attempt that waits has successors, so only it is marked,
     on its latest queued request: entering an attempt that waits for
     nothing a second time pushes nothing again, and a mark in the
     footprint would cost every attempt's first request a word. *)
  let enter (c : contended) st txn =
    match Txn.Table.find c.attempts txn with
    | exception Not_found -> true
    | { waits = []; _ } -> true
    | { waits = w :: _ as waits; _ } ->
        w.w_seen <> Wfg.stamp st
        && begin
             w.w_seen <- Wfg.stamp st;
             push_blockers c.c_vacant st waits;
             true
           end
end)

(* A table that never blocked a request has no waits-for edges. *)
let find_cycle_through t txn =
  match t.contended with Some c -> Search.find_cycle c txn | None -> None

(** Current blockers of [txn]'s waiting request on [page] (testing). *)
let current_blockers t txn page =
  let entry = find_entry t page in
  match List.find_opt (fun w -> Txn.same_attempt w.w_txn txn) entry.queue with
  | None -> []
  | Some w -> blockers_of t w

(* Newest first. *)
let exclusive_of txn f =
  let pages = ref [] in
  for i = 0 to f.n_locks - 1 do
    let entry = f.locks.(i) in
    match held_mode txn entry with
    | Some X -> pages := entry.page :: !pages
    | Some S | None -> ()
  done;
  !pages

(** Pages on which [txn] currently holds an exclusive lock — exactly the
    updates a lock-based scheme installs at commit. *)
let exclusive_pages t txn =
  match Txn.Table.find t.attempts txn with
  | exception Not_found -> []
  | f -> exclusive_of txn f

(** Mode held by [txn] on [page], if any (testing). *)
let held t txn page = held_mode txn (find_entry t page)
