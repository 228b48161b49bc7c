(** Page-level lock manager with shared/exclusive modes, FCFS queuing, and
    read-to-write lock conversion (upgrade) that jumps ahead of ordinary
    waiters — the locking substrate of both 2PL and wound-wait.

    Policy decisions (what to do when a request must wait) are delegated to
    the caller through the [on_block] callback, which fires after the
    request is enqueued and receives the set of transactions currently
    blocking it. *)

open Desim
open Ddbm_model
open Ids

type mode = S | X

let mode_compatible a b = a = S && b = S

type waiting = {
  w_txn : Txn.t;
  w_mode : mode;
  w_conversion : bool;
  w_resolver : unit Engine.resolver;
  w_enqueued : float;
}

type lock_entry = {
  mutable holders : (Txn.t * mode) list;
  mutable queue : waiting list;  (** grant order: conversions first *)
}

type t = {
  eng : Engine.t;
  blocking : Stats.Tally.t;
  table : lock_entry Page_table.t;
  footprint : (int * int, Page.t list ref) Hashtbl.t;
      (** pages where a transaction holds or awaits a lock *)
}

let create eng ~blocking =
  { eng; blocking; table = Page_table.create 512; footprint = Hashtbl.create 64 }

let entry_of t page =
  match Page_table.find_opt t.table page with
  | Some e -> e
  | None ->
      let e = { holders = []; queue = [] } in
      Page_table.add t.table page e;
      e

let note_footprint t txn page =
  let k = Txn.key txn in
  match Hashtbl.find_opt t.footprint k with
  | Some pages -> if not (List.exists (Page.equal page) !pages) then
        pages := page :: !pages
  | None -> Hashtbl.add t.footprint k (ref [ page ])

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
let blockers_of entry (w : waiting) =
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

let insert_waiter entry w =
  if w.w_conversion then begin
    (* conversions go ahead of ordinary requests, FIFO among themselves *)
    let convs, others = List.partition (fun q -> q.w_conversion) entry.queue in
    entry.queue <- convs @ [ w ] @ others
  end
  else entry.queue <- entry.queue @ [ w ]

let grant t entry w =
  entry.queue <- List.filter (fun q -> not (q == w)) entry.queue;
  (if w.w_conversion then
     entry.holders <-
       List.map
         (fun (h, m) -> if Txn.same_attempt h w.w_txn then (h, X) else (h, m))
         entry.holders
   else entry.holders <- (w.w_txn, w.w_mode) :: entry.holders);
  Stats.Tally.add t.blocking (Engine.now t.eng -. w.w_enqueued);
  Engine.resolve w.w_resolver ()

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
        grant t entry w;
        grant_pass t entry
      end

(** Outcome of an acquisition attempt before any blocking. *)
type attempt = Granted | Conflict of { conversion : bool }

let try_acquire entry txn mode =
  match held_mode entry txn with
  | Some X -> Granted (* X covers everything *)
  | Some S when mode = S -> Granted
  | Some S ->
      (* conversion S -> X: jumps the queue, needs sole holdership only
         (unless the conformance fault hook breaks the check) *)
      if sole_holder entry txn || Fault.broken_lock_conversion () then begin
        entry.holders <-
          List.map
            (fun (h, m) -> if Txn.same_attempt h txn then (h, X) else (h, m))
            entry.holders;
        Granted
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
  match try_acquire entry txn mode with
  | Granted -> note_footprint t txn page
  | Conflict { conversion } ->
      (match pre_block with
      | Some f -> f (prospective_blockers entry txn mode conversion)
      | None -> ());
      note_footprint t txn page;
      Engine.suspend (fun (r : unit Engine.resolver) ->
          let w =
            {
              w_txn = txn;
              w_mode = mode;
              w_conversion = conversion;
              w_resolver = r;
              w_enqueued = Engine.now t.eng;
            }
          in
          insert_waiter entry w;
          on_block (blockers_of entry w))

(** Release every lock and waiting request of [txn]. Blocked requests are
    rejected with [reject]. Newly grantable waiters are granted. *)
let release_all t txn ~reject =
  match Hashtbl.find_opt t.footprint (Txn.key txn) with
  | None -> ()
  | Some pages ->
      Hashtbl.remove t.footprint (Txn.key txn);
      List.iter
        (fun page ->
          match Page_table.find_opt t.table page with
          | None -> ()
          | Some entry ->
              entry.holders <-
                List.filter
                  (fun (h, _) -> not (Txn.same_attempt h txn))
                  entry.holders;
              let mine, rest =
                List.partition
                  (fun q -> Txn.same_attempt q.w_txn txn)
                  entry.queue
              in
              entry.queue <- rest;
              List.iter (fun q -> Engine.reject q.w_resolver reject) mine;
              grant_pass t entry;
              if entry.holders = [] && entry.queue = [] then
                Page_table.remove t.table page)
        !pages

(** Waits-for edges of this node's lock table. *)
let edges t =
  Page_table.fold
    (fun _ entry acc ->
      List.fold_left
        (fun acc w ->
          List.fold_left
            (fun acc holder ->
              { Cc_intf.waiter = w.w_txn; holder } :: acc)
            acc (blockers_of entry w))
        acc entry.queue)
    t.table []
  |> List.sort Cc_intf.compare_edge

(** Number of transactions currently blocked in the table. *)
let num_waiting t =
  (* lint: allow hashtbl-order - commutative integer sum *)
  Page_table.fold (fun _ e acc -> acc + List.length e.queue) t.table 0

(** Current blockers of [txn]'s waiting request on [page] (testing). *)
let current_blockers t txn page =
  match Page_table.find_opt t.table page with
  | None -> []
  | Some entry -> (
      match List.find_opt (fun w -> Txn.same_attempt w.w_txn txn) entry.queue with
      | None -> []
      | Some w -> blockers_of entry w)

(** Pages on which [txn] currently holds an exclusive lock — exactly the
    updates a lock-based scheme installs at commit. *)
let exclusive_pages t txn =
  match Hashtbl.find_opt t.footprint (Txn.key txn) with
  | None -> []
  | Some pages ->
      List.filter
        (fun page ->
          match Page_table.find_opt t.table page with
          | None -> false
          | Some entry -> (
              match held_mode entry txn with
              | Some X -> true
              | Some S | None -> false))
        !pages

(** Mode held by [txn] on [page], if any (testing). *)
let held t txn page =
  match Page_table.find_opt t.table page with
  | None -> None
  | Some entry -> held_mode entry txn
