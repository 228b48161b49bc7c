(* The lock table as it stood before hold records, footprints of entries
   and recycled entries: the reference model for the differential test in
   [Test_lock_table]. Holders are immutable [(txn, mode)] pairs, a
   footprint lists [(page, entry)] pairs, and an entry that empties is
   dropped. The code is kept verbatim; only this comment, which replaces
   its header, the [Wfg] module below and the chaos switch taken at
   construction, as the lean table takes it, are new, so
   the test checks the lean table against the code it replaced.

   [Wfg] is the waits-for graph as it stood before the stamp-marked
   search: a closure-driven depth-first search that builds a visited
   table and takes each vertex's successors as a list, and a
   [break_all_cycles] that restarts from the first vertex after every
   victim. It is the reference for [Test_wfg]'s victim-identity property
   and the search the table below uses. *)

open Desim
open Ddbm_model
open Ids

module Wfg = struct
  type vertex = {
    txn : Txn.t;
    mutable succ : Txn.t list;
        (** distinct holders [txn] waits for, most recently added first *)
  }

  type t = vertex Txn.Table.t

  let create () : t = Txn.Table.create 64

  let vertex t txn =
    match Txn.Table.find_opt t txn with
    | Some v -> v
    | None ->
        let v = { txn; succ = [] } in
        Txn.Table.add t txn v;
        v

  let add_edge t ~(waiter : Txn.t) ~(holder : Txn.t) =
    if not (Txn.same_attempt waiter holder) then begin
      let w = vertex t waiter in
      ignore (vertex t holder);
      if not (List.exists (Txn.same_attempt holder) w.succ) then
        w.succ <- holder :: w.succ
    end

  let of_edges edges =
    let t = create () in
    List.iter
      (fun { Cc_intf.waiter; holder } -> add_edge t ~waiter ~holder)
      edges;
    t

  let successors t txn =
    match Txn.Table.find_opt t txn with Some v -> v.succ | None -> []

  let find_cycle ~successors ~alive start =
    if not (alive start) then None
    else begin
      let visited = Txn.Table.create 16 in
      let rec dfs path txn = first path txn (successors txn)
      and first path txn = function
        | [] -> None
        | next :: rest ->
            if Txn.same_attempt next start then Some (List.rev (txn :: path))
            else if (not (alive next)) || Txn.Table.mem visited next then
              first path txn rest
            else begin
              Txn.Table.replace visited next ();
              match dfs (txn :: path) next with
              | None -> first path txn rest
              | found -> found
            end
      in
      Txn.Table.replace visited start ();
      dfs [] start
    end

  let not_doomed (txn : Txn.t) = not txn.Txn.doomed

  let find_cycle_through t start =
    find_cycle ~successors:(successors t) ~alive:not_doomed start

  (** Youngest member of a cycle = most recent initial startup time (the
      paper's deadlock victim rule). *)
  let youngest cycle =
    match cycle with
    | [] -> invalid_arg "Wfg.youngest: empty cycle"
    | first :: rest ->
        List.fold_left
          (fun acc (txn : Txn.t) ->
            if Timestamp.compare txn.Txn.startup_ts acc.Txn.startup_ts > 0 then
              txn
            else acc)
          first rest

  (** Repeatedly find a cycle anywhere in the graph, select its youngest
      member as the victim, remove it, and continue until acyclic. Returns
      the victims (used by the Snoop detector). *)
  let break_all_cycles t =
    let removed = Txn.Table.create 8 in
    let alive txn = not_doomed txn && not (Txn.Table.mem removed txn) in
    let victims = ref [] in
    (* Visit vertices in attempt order, not bucket order, so the cycle found
       first (and hence the victim set when cycles overlap) is independent
       of hash-table layout. *)
    let vertices =
      Txn.Table.fold (fun _ v acc -> v.txn :: acc) t []
      |> List.sort Txn.compare_attempt
    in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun txn ->
          if not !progress then
            match find_cycle ~successors:(successors t) ~alive txn with
            | Some cycle ->
                let victim = youngest cycle in
                Txn.Table.replace removed victim ();
                victims := victim :: !victims;
                progress := true
            | None -> ())
        vertices
    done;
    !victims
end

type mode = S | X

let mode_compatible a b = a = S && b = S

type waiting = {
  w_txn : Txn.t;
  w_mode : mode;
  w_conversion : bool;
  w_resolver : Engine.resolver;
  w_enqueued : float;
  w_entry : lock_entry;  (** the entry it is queued in *)
  w_owner : footprint;  (** its attempt's footprint *)
}

and lock_entry = {
  mutable holders : (Txn.t * mode) list;
  mutable queue : waiting list;  (** grant order: conversions first *)
}

(** Everything one attempt holds or awaits at this node. Invariant: a
    page is in [locks] iff the attempt holds or awaits a lock on it. *)
and footprint = {
  mutable locks : (Page.t * lock_entry) list;  (** most recent first *)
  mutable waits : waiting list;  (** its queued requests *)
}

type t = {
  eng : Engine.t;
  blocking : Stats.Tally.t;
  broken_lock_conversion : bool;
  table : lock_entry Page_table.t;
  attempts : footprint Txn.Table.t;
  mutable n_waiting : int;  (** queued requests, all attempts *)
}

let create ?(broken_lock_conversion = false) eng ~blocking =
  {
    eng;
    blocking;
    broken_lock_conversion;
    table = Page_table.create 512;
    attempts = Txn.Table.create 64;
    n_waiting = 0;
  }

let entry_of t page =
  match Page_table.find_opt t.table page with
  | Some e -> e
  | None ->
      let e = { holders = []; queue = [] } in
      Page_table.add t.table page e;
      e

let footprint_of t txn =
  match Txn.Table.find_opt t.attempts txn with
  | Some f -> f
  | None ->
      let f = { locks = []; waits = [] } in
      Txn.Table.add t.attempts txn f;
      f

let held_mode entry txn =
  List.find_map
    (fun (h, m) -> if Txn.same_attempt h txn then Some m else None)
    entry.holders

let sole_holder entry txn =
  match entry.holders with
  | [ (h, _) ] -> Txn.same_attempt h txn
  | _ -> false

(** Transactions currently preventing [w] from being granted: incompatible
    holders plus incompatible waiters queued ahead of it. *)
let blockers_of (w : waiting) =
  let entry = w.w_entry in
  let ahead =
    let rec take acc = function
      | [] -> acc (* w not found: it was granted concurrently *)
      | q :: rest ->
          if q == w then acc
          else if
            (not (mode_compatible q.w_mode w.w_mode))
            && not (Txn.same_attempt q.w_txn w.w_txn)
          then take (q.w_txn :: acc) rest
          else take acc rest
    in
    take [] entry.queue
  in
  let holding =
    List.filter_map
      (fun (h, m) ->
        if Txn.same_attempt h w.w_txn then None
        else if mode_compatible m w.w_mode then None
        else Some h)
      entry.holders
  in
  holding @ ahead

let insert_waiter t w =
  let entry = w.w_entry in
  if w.w_conversion then begin
    (* conversions go ahead of ordinary requests, FIFO among themselves *)
    let convs, others = List.partition (fun q -> q.w_conversion) entry.queue in
    entry.queue <- convs @ [ w ] @ others
  end
  else entry.queue <- entry.queue @ [ w ];
  w.w_owner.waits <- w :: w.w_owner.waits;
  t.n_waiting <- t.n_waiting + 1

let grant t w =
  let entry = w.w_entry in
  entry.queue <- List.filter (fun q -> not (q == w)) entry.queue;
  w.w_owner.waits <- List.filter (fun q -> not (q == w)) w.w_owner.waits;
  t.n_waiting <- t.n_waiting - 1;
  (if w.w_conversion then
     entry.holders <-
       List.map
         (fun (h, m) -> if Txn.same_attempt h w.w_txn then (h, X) else (h, m))
         entry.holders
   else entry.holders <- (w.w_txn, w.w_mode) :: entry.holders);
  Stats.Tally.add t.blocking (Engine.now t.eng -. w.w_enqueued);
  Engine.resolve w.w_resolver

(** Grant eligible queued requests, strictly in queue order (head only, to
    avoid starvation): stop at the first request that cannot be granted. *)
let rec grant_pass t entry =
  match entry.queue with
  | [] -> ()
  | w :: _ ->
      let grantable =
        if w.w_conversion then sole_holder entry w.w_txn
        else
          List.for_all (fun (_, m) -> mode_compatible m w.w_mode) entry.holders
      in
      if grantable then begin
        grant t w;
        grant_pass t entry
      end

(** Outcome of an acquisition attempt before any blocking: [Held] when
    the attempt already held a lock on the page (so the page is already
    in its footprint), [Granted] for a new holder. *)
type attempt = Held | Granted | Conflict of { conversion : bool }

let try_acquire t entry txn mode =
  match held_mode entry txn with
  | Some X -> Held (* X covers everything *)
  | Some S when mode = S -> Held
  | Some S ->
      (* conversion S -> X: jumps the queue, needs sole holdership only
         (unless the chaos switch breaks the check) *)
      if sole_holder entry txn || t.broken_lock_conversion then begin
        entry.holders <-
          List.map
            (fun (h, m) -> if Txn.same_attempt h txn then (h, X) else (h, m))
            entry.holders;
        Held
      end
      else Conflict { conversion = true }
  | None ->
      if
        entry.queue = []
        && List.for_all (fun (_, m) -> mode_compatible m mode) entry.holders
      then begin
        entry.holders <- (txn, mode) :: entry.holders;
        Granted
      end
      else Conflict { conversion = false }

(** Blockers a fresh request by [txn] would face, computed before it is
    enqueued (used by pre-blocking policies like wait-die, which must be
    able to abort the requester by raising instead of waiting). *)
let prospective_blockers entry txn mode conversion =
  let holding =
    List.filter_map
      (fun (h, m) ->
        if Txn.same_attempt h txn then None
        else if mode_compatible m mode then None
        else Some h)
      entry.holders
  in
  let queued =
    List.filter_map
      (fun q ->
        if Txn.same_attempt q.w_txn txn then None
        else if conversion && not q.w_conversion then
          (* a conversion only queues behind other conversions *)
          None
        else if mode_compatible q.w_mode mode then None
        else Some q.w_txn)
      entry.queue
  in
  holding @ queued

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
  match try_acquire t entry txn mode with
  | Held -> ()
  | Granted ->
      let f = footprint_of t txn in
      f.locks <- (page, entry) :: f.locks
  | Conflict { conversion } ->
      (match pre_block with
      | Some f -> f (prospective_blockers entry txn mode conversion)
      | None -> ());
      (* a converting attempt holds S here already, so the page is in its
         footprint; a fresh request is the attempt's first on the page *)
      let f = footprint_of t txn in
      if not conversion then f.locks <- (page, entry) :: f.locks;
      Engine.suspend (fun (r : Engine.resolver) ->
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

(** Release every lock and waiting request of [txn]. Blocked requests are
    rejected with [reject]. Newly grantable waiters are granted. *)
let release_all t txn ~reject =
  match Txn.Table.find_opt t.attempts txn with
  | None -> ()
  | Some f ->
      Txn.Table.remove t.attempts txn;
      t.n_waiting <- t.n_waiting - List.length f.waits;
      List.iter
        (fun (page, entry) ->
          entry.holders <-
            List.filter (fun (h, _) -> not (Txn.same_attempt h txn)) entry.holders;
          let mine, rest = List.partition (fun q -> q.w_owner == f) entry.queue in
          entry.queue <- rest;
          List.iter (fun q -> Engine.reject q.w_resolver reject) mine;
          grant_pass t entry;
          if entry.holders = [] && entry.queue = [] then
            Page_table.remove t.table page)
        f.locks

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
  match Txn.Table.find_opt t.attempts txn with
  | None | Some { waits = []; _ } -> []
  | Some f ->
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

(** Pages on which [txn] currently holds an exclusive lock — exactly the
    updates a lock-based scheme installs at commit. *)
let exclusive_pages t txn =
  match Txn.Table.find_opt t.attempts txn with
  | None -> []
  | Some f ->
      List.filter_map
        (fun (page, entry) ->
          match held_mode entry txn with
          | Some X -> Some page
          | Some S | None -> None)
        f.locks

(** Mode held by [txn] on [page], if any (testing). *)
let held t txn page =
  match Page_table.find_opt t.table page with
  | None -> None
  | Some entry -> held_mode entry txn
