(* A naive write-ahead log: the reference model for the differential
   property in [Test_recovery]. It keeps every appended record, oldest
   first, with the length of the durable prefix, the install flags, and
   the page-writer map; every answer is a scan of those records. Like
   [Wal]'s, the page-writer map is neither rolled back by a crash nor
   pruned by a checkpoint.

   The digest's rules, stated as records:
   - [Begin] and [Update] start tracking their attempt; a decision
     record ([Prepare], [Commit], [Abort]) for an untracked attempt is
     counted but not kept (a read-only cohort has nothing to redo);
   - a force makes every record durable and counts each update record
     and each decision kind that turns durable;
   - a crash drops the volatile suffix, and untracks an attempt that
     had records in it when nothing durable, and no install, is left of
     it;
   - a durable checkpoint untracks committed-and-installed and aborted
     attempts;
   - untracking an attempt drops its records and its install flag. *)

open Ddbm_model

type key = int * int

type body =
  | Begin
  | Update of { page : Ids.Page.t; pred : key option }
  | Prepare
  | Commit
  | Abort

type record = Txn of { key : key; lsn : int; body : body } | Checkpoint

type t = {
  mutable kept : record list;  (** oldest first *)
  mutable durable : int;  (** length of the durable prefix of [kept] *)
  tracked : (key, unit) Hashtbl.t;
  installed : (key, unit) Hashtbl.t;
  page_writer : (Ids.Page.t, key) Hashtbl.t;
  mutable appended : int;
  mutable forced_records : int;
  mutable torn_tails : int;
  mutable deps_corrupt : bool;
}

let create () =
  {
    kept = [];
    durable = 0;
    tracked = Hashtbl.create 16;
    installed = Hashtbl.create 16;
    page_writer = Hashtbl.create 16;
    appended = 0;
    forced_records = 0;
    torn_tails = 0;
    deps_corrupt = false;
  }

let durable_records t = List.filteri (fun i _ -> i < t.durable) t.kept
let volatile_records t = List.filteri (fun i _ -> i >= t.durable) t.kept

let of_key key rs =
  List.filter_map
    (function Txn r when r.key = key -> Some r.body | Txn _ | Checkpoint -> None)
    rs

let is_update = function Update _ -> true | Begin | Prepare | Commit | Abort -> false
let has body key rs = List.mem body (of_key key rs)
let updates key rs = List.filter is_update (of_key key rs)

let key_compare (t1, a1) (t2, a2) =
  match Int.compare t1 t2 with 0 -> Int.compare a1 a2 | n -> n

let keys_of rs =
  List.sort_uniq key_compare
    (List.filter_map (function Txn r -> Some r.key | Checkpoint -> None) rs)

let tracked_keys t =
  Hashtbl.fold (fun key () acc -> key :: acc) t.tracked []
  |> List.sort key_compare

let push t r = t.kept <- t.kept @ [ r ]

let append t (r : Wal.record) =
  t.appended <- t.appended + 1;
  let lsn = t.appended in
  let track key body =
    Hashtbl.replace t.tracked key ();
    push t (Txn { key; lsn; body })
  in
  let decide key body =
    if Hashtbl.mem t.tracked key then push t (Txn { key; lsn; body })
  in
  match r with
  | Wal.Begin { tid; attempt } -> track (tid, attempt) Begin
  | Wal.Update { tid; attempt; page } ->
      let key = (tid, attempt) in
      let pred =
        match Hashtbl.find_opt t.page_writer page with
        | Some p when p <> key -> Some p
        | Some _ | None -> None
      in
      Hashtbl.replace t.page_writer page key;
      track key (Update { page; pred })
  | Wal.Prepare { tid; attempt } -> decide (tid, attempt) Prepare
  | Wal.Commit { tid; attempt } -> decide (tid, attempt) Commit
  | Wal.Abort { tid; attempt } -> decide (tid, attempt) Abort
  | Wal.Checkpoint _ -> push t Checkpoint

(* Update records in [vol], plus each decision kind of each attempt
   that [vol] holds and [dur] does not. *)
let turning ~vol ~dur =
  List.fold_left
    (fun acc key ->
      acc
      + List.length (updates key vol)
      + List.length
          (List.filter
             (fun body -> has body key vol && not (has body key dur))
             [ Prepare; Commit; Abort ]))
    0 (keys_of vol)

let untrack t key =
  Hashtbl.remove t.tracked key;
  Hashtbl.remove t.installed key;
  t.kept <-
    List.filter (function Txn r -> r.key <> key | Checkpoint -> true) t.kept;
  t.durable <- List.length t.kept

let force t =
  let vol = volatile_records t and dur = durable_records t in
  t.forced_records <- t.forced_records + turning ~vol ~dur;
  t.durable <- List.length t.kept;
  if List.mem Checkpoint vol then
    tracked_keys t
    |> List.filter (fun key ->
           (has Commit key t.kept && Hashtbl.mem t.installed key)
           || has Abort key t.kept)
    |> List.iter (untrack t)

let on_crash ?(torn = false) t =
  let vol = volatile_records t and dur = durable_records t in
  let dropped = turning ~vol ~dur in
  t.kept <- dur;
  List.iter
    (fun key ->
      if
        List.for_all (fun body -> body = Begin) (of_key key dur)
        && not (Hashtbl.mem t.installed key)
      then untrack t key)
    (keys_of vol);
  if torn && dropped > 0 then begin
    t.torn_tails <- t.torn_tails + 1;
    t.deps_corrupt <- true
  end

let mark_installed t key =
  Hashtbl.replace t.tracked key ();
  Hashtbl.replace t.installed key ()

let repair_deps t = t.deps_corrupt <- false
let durable_has t body key = has body key (durable_records t)
let prepared_durable t key = durable_has t Prepare key
let committed_durable t key = durable_has t Commit key
let installed t key = Hashtbl.mem t.installed key
let tracked t key = Hashtbl.mem t.tracked key
let redo_pages t key = List.length (updates key (durable_records t))

let in_doubt t =
  tracked_keys t
  |> List.filter (fun key ->
         prepared_durable t key
         && (not (committed_durable t key))
         && (not (durable_has t Abort key))
         && not (installed t key))

(* The durable write-set and predecessors of [key]. *)
let footprint t key =
  List.fold_left
    (fun (pages, preds) body ->
      match body with
      | Update { page; pred } ->
          (page :: pages, match pred with Some p -> p :: preds | None -> preds)
      | Begin | Prepare | Commit | Abort -> (pages, preds))
    ([], [])
    (updates key (durable_records t))

(* Connected components of [keys]: two keys are joined when their
   durable write-sets share a page or a durable update of one names the
   other as its predecessor. Each chain sorted, chains sorted. *)
let redo_chains t keys =
  let linked a b =
    let pa, da = footprint t a and pb, db = footprint t b in
    List.exists (fun p -> List.mem p pb) pa || List.mem b da || List.mem a db
  in
  let rec grow chain rest =
    let joins, others =
      List.partition (fun k -> List.exists (linked k) chain) rest
    in
    if joins = [] then (chain, rest) else grow (chain @ joins) others
  in
  let rec chains = function
    | [] -> []
    | k :: rest ->
        let chain, rest = grow [ k ] rest in
        List.sort key_compare chain :: chains rest
  in
  List.sort (List.compare key_compare) (chains keys)

let records t = t.appended
let forced_records t = t.forced_records
let torn_tails t = t.torn_tails
let deps_corrupt t = t.deps_corrupt
