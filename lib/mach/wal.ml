open Desim

type record =
  | Begin of { tid : int; attempt : int }
  | Update of { tid : int; attempt : int; page : Ids.Page.t }
  | Prepare of { tid : int; attempt : int }
  | Commit of { tid : int; attempt : int }
  | Abort of { tid : int; attempt : int }
  | Checkpoint of { active : int }

type status = Absent | Volatile | Durable

(* Per-attempt digest of the log records this node holds. The full
   record sequence is never materialized: the model only needs enough to
   answer durability questions, size the redo pass, and reconstruct the
   dependency records (write-set pages + predecessor transactions +
   LSNs) that drive chain-parallel recovery.

   The digest, the dirty list, the page-writer map and the predecessor
   lists hold attempts as packed [Txn.Key]s, immediate ints: a lookup
   builds no tuple and hashes no block, and misses raise [Not_found]
   rather than build options. Tuples are made only where they leave the
   module ([in_doubt], [redo_chains]).

   Pages and predecessors are each one list, newest first, whose first
   [pages_vol] (resp. [deps_vol]) elements come from volatile update
   records: a force only zeroes the counts, a crash drops that prefix,
   and the durable footprint is the list past it. The order inside a
   list is never observed: [Chains.partition] sorts what it returns. *)
type txn_log = {
  mutable updates_vol : int;
  mutable updates_dur : int;
  mutable prepared : status;
  mutable committed : status;
  mutable aborted : status;
  mutable installed : bool;
      (** data-page installs completed (commit-time deferred writes hit
          the data disks, which survive crashes) *)
  mutable pages : Ids.Page.t list;  (** distinct write-set pages *)
  mutable pages_vol : int;
  mutable deps : Txn.Key.t list;
      (** distinct predecessor transactions (earlier writers of this
          write set) *)
  mutable deps_vol : int;
  mutable lsn_vol : int;  (** LSN of the latest appended record *)
  mutable lsn_dur : int;  (** LSN of the latest durable record *)
}

type t = {
  disk : Disk.t;
  txns : txn_log Txn.Key_table.t;
  mutable dirty : Txn.Key.t list;
      (** keys with volatile records, newest first; promoted by [force],
          discarded by [on_crash] *)
  mutable checkpoint_pending : bool;
  mutable records : int;
  mutable forces : int;
  mutable forced_records : int;
  page_writer : Txn.Key.t Ids.Page_table.t;
      (** last transaction that logged an update for each page; the
          source of the predecessor edges in dependency records *)
  mutable torn_tails : int;
      (** crashes that tore a partially forced tail (checksum-invalid
          suffix truncated by the next scan) *)
  mutable deps_corrupt : bool;
      (** a torn tail clipped dependency records: the chain partitioner
          cannot trust the DAG until a full physical redo + checkpoint
          rebuilds it *)
}

let create eng rng ~min_time ~max_time =
  {
    disk = Disk.create eng rng ~min_time ~max_time;
    txns = Txn.Key_table.create 64;
    dirty = [];
    checkpoint_pending = false;
    records = 0;
    forces = 0;
    forced_records = 0;
    page_writer = Ids.Page_table.create 64;
    torn_tails = 0;
    deps_corrupt = false;
  }

let fresh_entry () =
  {
    updates_vol = 0;
    updates_dur = 0;
    prepared = Absent;
    committed = Absent;
    aborted = Absent;
    installed = false;
    pages = [];
    pages_vol = 0;
    deps = [];
    deps_vol = 0;
    lsn_vol = 0;
    lsn_dur = 0;
  }

let key_compare (t1, a1) (t2, a2) =
  match Int.compare t1 t2 with 0 -> Int.compare a1 a2 | n -> n

let unpack k = (Txn.Key.tid k, Txn.Key.attempt k)

let rec mem_page p = function
  | [] -> false
  | q :: rest -> Ids.Page.equal p q || mem_page p rest

let rec mem_key k = function
  | [] -> false
  | k' :: rest -> Txn.Key.equal k k' || mem_key k rest

let rec drop n l =
  if n = 0 then l else match l with [] -> [] | _ :: rest -> drop (n - 1) rest

(* Raises [Not_found] when the digest holds no entry for [key]: a lookup
   that builds no option. *)
let entry t key = Txn.Key_table.find t.txns key

let entry_create t key =
  match entry t key with
  | e -> e
  | exception Not_found ->
      let e = fresh_entry () in
      Txn.Key_table.add t.txns key e;
      e

let mark_dirty t key =
  match t.dirty with
  | k :: _ when Txn.Key.equal k key -> ()
  | _ -> t.dirty <- key :: t.dirty

(* Forget entries the log no longer needs once a checkpoint is durable:
   durably decided (and installed, for commits) transactions are fully
   redo-covered without any log record. *)
let prune t =
  let dead =
    Txn.Key_table.fold
      (fun key e acc ->
        match (e.committed, e.aborted) with
        | Durable, _ when e.installed -> key :: acc
        | _, Durable -> key :: acc
        | (Absent | Volatile | Durable), (Absent | Volatile) -> acc)
      t.txns []
    |> List.sort Txn.Key.compare
  in
  List.iter (Txn.Key_table.remove t.txns) dead

let log_update t key lsn page =
  let e = entry_create t key in
  e.updates_vol <- e.updates_vol + 1;
  e.lsn_vol <- lsn;
  if not (mem_page page e.pages) then begin
    e.pages <- page :: e.pages;
    e.pages_vol <- e.pages_vol + 1
  end;
  (match Ids.Page_table.find t.page_writer page with
  | pred ->
      if not (Txn.Key.equal pred key || mem_key pred e.deps) then begin
        e.deps <- pred :: e.deps;
        e.deps_vol <- e.deps_vol + 1
      end
  | exception Not_found -> ());
  Ids.Page_table.replace t.page_writer page key;
  mark_dirty t key

let logged = function Absent -> Volatile | (Volatile | Durable) as s -> s

(* Decision records without a footprint here (read-only cohort) are
   counted but need no digest entry: there is nothing to redo. *)
let log_decision t key lsn record =
  match entry t key with
  | exception Not_found -> ()
  | e ->
      (match record with
      | Prepare _ -> e.prepared <- logged e.prepared
      | Commit _ -> e.committed <- logged e.committed
      | Abort _ -> e.aborted <- logged e.aborted
      | Begin _ | Update _ | Checkpoint _ -> ());
      e.lsn_vol <- lsn;
      mark_dirty t key

let append t record =
  t.records <- t.records + 1;
  (* the running record count doubles as the LSN of this append *)
  let lsn = t.records in
  match record with
  | Begin { tid; attempt } ->
      let key = Txn.Key.make ~tid ~attempt in
      let e = entry_create t key in
      e.lsn_vol <- lsn;
      mark_dirty t key
  | Update { tid; attempt; page } ->
      log_update t (Txn.Key.make ~tid ~attempt) lsn page
  | Prepare { tid; attempt } | Commit { tid; attempt } | Abort { tid; attempt }
    ->
      log_decision t (Txn.Key.make ~tid ~attempt) lsn record
  | Checkpoint _ -> t.checkpoint_pending <- true

let promote_status t = function
  | Volatile ->
      t.forced_records <- t.forced_records + 1;
      Durable
  | (Absent | Durable) as s -> s

let rec promote t = function
  | [] -> ()
  | key :: rest ->
      (match entry t key with
      | exception Not_found -> ()
      | e ->
          t.forced_records <- t.forced_records + e.updates_vol;
          e.updates_dur <- e.updates_dur + e.updates_vol;
          e.updates_vol <- 0;
          e.pages_vol <- 0;
          e.deps_vol <- 0;
          e.lsn_dur <- e.lsn_vol;
          e.prepared <- promote_status t e.prepared;
          e.committed <- promote_status t e.committed;
          e.aborted <- promote_status t e.aborted);
      promote t rest

(* A force covers exactly the records appended before it was issued:
   appends racing the disk write land in a fresh dirty list and need a
   force of their own. *)
let force t =
  let keys = t.dirty and checkpointed = t.checkpoint_pending in
  t.dirty <- [];
  t.checkpoint_pending <- false;
  t.forces <- t.forces + 1;
  Disk.write t.disk;
  promote t keys;
  if checkpointed then prune t

(* Recovery's analysis pass: one sequential read of the durable log. *)
let scan t = Disk.read t.disk

let is_volatile = function Volatile -> 1 | Absent | Durable -> 0
let drop_status = function Volatile -> Absent | (Absent | Durable) as s -> s

(* Drop the volatile records of [keys]; the count of update records and
   decision statuses lost. *)
let rec drop_volatile t dropped = function
  | [] -> dropped
  | key :: rest -> (
      match entry t key with
      | exception Not_found -> drop_volatile t dropped rest
      | e ->
          let dropped =
            dropped + e.updates_vol + is_volatile e.prepared
            + is_volatile e.committed + is_volatile e.aborted
          in
          e.updates_vol <- 0;
          e.pages <- drop e.pages_vol e.pages;
          e.pages_vol <- 0;
          e.deps <- drop e.deps_vol e.deps;
          e.deps_vol <- 0;
          e.lsn_vol <- e.lsn_dur;
          e.prepared <- drop_status e.prepared;
          e.committed <- drop_status e.committed;
          e.aborted <- drop_status e.aborted;
          (* an entry the crash emptied again will be recreated if the
             transaction ever re-logs here *)
          if
            e.updates_dur = 0 && e.prepared = Absent && e.committed = Absent
            && e.aborted = Absent && not e.installed
          then Txn.Key_table.remove t.txns key;
          drop_volatile t dropped rest)

let on_crash ?(torn = false) t =
  let keys = t.dirty in
  t.dirty <- [];
  t.checkpoint_pending <- false;
  let dropped = drop_volatile t 0 keys in
  (* A torn tail is the same volatile suffix, but it partially reached
     the platter: the next scan finds checksum-invalid frames, truncates
     to the last valid record, and — because dependency records ride in
     the clipped suffix — must distrust the dependency DAG until a full
     physical redo and checkpoint rebuild it. *)
  if torn && dropped > 0 then begin
    t.torn_tails <- t.torn_tails + 1;
    t.deps_corrupt <- true
  end

let mark_installed t ~tid ~attempt =
  let e = entry_create t (Txn.Key.make ~tid ~attempt) in
  e.installed <- true

let prepared_durable t ~tid ~attempt =
  match entry t (Txn.Key.make ~tid ~attempt) with
  | exception Not_found -> false
  | e -> ( match e.prepared with Durable -> true | Absent | Volatile -> false)

let committed_durable t ~tid ~attempt =
  match entry t (Txn.Key.make ~tid ~attempt) with
  | exception Not_found -> false
  | e -> ( match e.committed with Durable -> true | Absent | Volatile -> false)

let installed t ~tid ~attempt =
  match entry t (Txn.Key.make ~tid ~attempt) with
  | exception Not_found -> false
  | e -> e.installed

let tracked t ~tid ~attempt = Txn.Key_table.mem t.txns (Txn.Key.make ~tid ~attempt)

let redo_pages t ~tid ~attempt =
  match entry t (Txn.Key.make ~tid ~attempt) with
  | exception Not_found -> 0
  | e -> e.updates_dur

let in_doubt t =
  Txn.Key_table.fold
    (fun key e acc ->
      match (e.prepared, e.committed, e.aborted) with
      | Durable, (Absent | Volatile), (Absent | Volatile) when not e.installed ->
          key :: acc
      | (Absent | Volatile | Durable), _, _ -> acc)
    t.txns []
  |> List.sort Txn.Key.compare
  |> List.map unpack

let records t = t.records
let forces t = t.forces
let forced_records t = t.forced_records
let torn_tails t = t.torn_tails
let deps_corrupt t = t.deps_corrupt
let repair_deps t = t.deps_corrupt <- false
let utilization t = Disk.utilization t.disk
let busy_time t = Disk.busy_time t.disk
let reset_window t = Disk.reset_window t.disk

(* --- chain partitioning -------------------------------------------- *)

module Chains = struct
  type txn = {
    key : int * int;
    pages : Ids.Page.t list;
    deps : (int * int) list;
    lsn : int;
  }

  (* Union-find over transaction indices: two transactions land in the
     same chain when they share a write-set page or a dependency edge
     connects them. Purely structural, so the partition is a function of
     the input list alone. *)
  let partition (txns : txn list) : (int * int) list list =
    let arr = Array.of_list txns in
    let n = Array.length arr in
    let parent = Array.init n Fun.id in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then begin
        let lo = Stdlib.min ri rj and hi = Stdlib.max ri rj in
        parent.(hi) <- lo
      end
    in
    let by_key = Hashtbl.create (2 * n + 1) in
    Array.iteri (fun i tx -> Hashtbl.replace by_key tx.key i) arr;
    let by_page = Ids.Page_table.create (2 * n + 1) in
    Array.iteri
      (fun i tx ->
        List.iter
          (fun p ->
            (match Ids.Page_table.find_opt by_page p with
            | Some j -> union i j
            | None -> ());
            Ids.Page_table.replace by_page p i)
          tx.pages)
      arr;
    Array.iteri
      (fun i tx ->
        List.iter
          (fun d ->
            (* predecessors outside the redo set (already installed, or
               pruned by a checkpoint) constrain nothing *)
            match Hashtbl.find_opt by_key d with
            | Some j -> union i j
            | None -> ())
          tx.deps)
      arr;
    (* materialize components in deterministic order: members sorted by
       (LSN, key) — redo replays each chain in commit order — and chains
       sorted by their first member's LSN *)
    let members = Hashtbl.create (2 * n + 1) in
    for i = n - 1 downto 0 do
      let r = find i in
      let tail = Option.value (Hashtbl.find_opt members r) ~default:[] in
      Hashtbl.replace members r (i :: tail)
    done;
    let chains = ref [] in
    for i = n - 1 downto 0 do
      if find i = i then begin
        let chain =
          Option.value (Hashtbl.find_opt members i) ~default:[]
          |> List.map (fun j -> arr.(j))
          |> List.sort (fun a b ->
                 match Int.compare a.lsn b.lsn with
                 | 0 -> key_compare a.key b.key
                 | c -> c)
        in
        chains := chain :: !chains
      end
    done;
    List.sort
      (fun a b ->
        match (a, b) with
        | ta :: _, tb :: _ -> (
            match Int.compare ta.lsn tb.lsn with
            | 0 -> key_compare ta.key tb.key
            | c -> c)
        | [], _ | _, [] -> 0)
      !chains
    |> List.map (List.map (fun tx -> tx.key))
end


(* [redo_chains t keys]: the dependency records of [keys] partitioned
   into independent redo chains. Keys the digest no longer tracks
   (read-only cohorts, pruned entries) have an empty footprint and fall
   out as singleton chains. *)
let redo_chains t keys =
  let txns =
    List.map
      (fun (tid, attempt) ->
        match entry t (Txn.Key.make ~tid ~attempt) with
        | exception Not_found ->
            {
              Chains.key = (tid, attempt);
              pages = [];
              deps = [];
              lsn = max_int;
            }
        | e ->
            {
              Chains.key = (tid, attempt);
              pages = drop e.pages_vol e.pages;
              deps = List.map unpack (drop e.deps_vol e.deps);
              lsn = e.lsn_dur;
            })
      keys
  in
  Chains.partition txns

(* --- dependency-record codec --------------------------------------- *)

module Codec = struct
  type dep_record = {
    tid : int;
    attempt : int;
    lsn : int;
    pages : (int * int) list;
    deps : (int * int) list;
  }

  let magic = 0xD7

  (* FNV-1a, 32-bit: cheap, deterministic, and sensitive to every byte —
     exactly what torn-tail truncation needs. *)
  let checksum payload =
    let h = ref 0x811C9DC5 in
    String.iter
      (fun c ->
        h := !h lxor Char.code c;
        h := !h * 0x01000193 land 0xFFFFFFFF)
      payload;
    !h

  let put_u32 buf v =
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))

  let get_u32 s pos =
    (Char.code s.[pos] lsl 24)
    lor (Char.code s.[pos + 1] lsl 16)
    lor (Char.code s.[pos + 2] lsl 8)
    lor Char.code s.[pos + 3]

  (* Frame: magic byte, u32 payload length, payload, u32 FNV-1a of the
     payload. Payload: tid, attempt, lsn, page count, (file, index)
     pairs, dep count, (tid, attempt) pairs — all u32 big-endian. *)
  let encode r =
    let payload = Buffer.create 64 in
    put_u32 payload r.tid;
    put_u32 payload r.attempt;
    put_u32 payload r.lsn;
    put_u32 payload (List.length r.pages);
    List.iter
      (fun (f, i) ->
        put_u32 payload f;
        put_u32 payload i)
      r.pages;
    put_u32 payload (List.length r.deps);
    List.iter
      (fun (t, a) ->
        put_u32 payload t;
        put_u32 payload a)
      r.deps;
    let payload = Buffer.contents payload in
    let frame = Buffer.create (String.length payload + 9) in
    Buffer.add_char frame (Char.chr magic);
    put_u32 frame (String.length payload);
    Buffer.add_string frame payload;
    put_u32 frame (checksum payload);
    Buffer.contents frame

  let encode_log rs = String.concat "" (List.map encode rs)

  let decode s ~pos =
    let len = String.length s in
    if pos + 5 > len then None
    else if Char.code s.[pos] <> magic then None
    else begin
      let plen = get_u32 s (pos + 1) in
      if plen < 16 || pos + 5 + plen + 4 > len then None
      else begin
        let payload = String.sub s (pos + 5) plen in
        if get_u32 s (pos + 5 + plen) <> checksum payload then None
        else begin
          let cursor = ref 0 in
          let next () =
            let v = get_u32 payload !cursor in
            cursor := !cursor + 4;
            v
          in
          let ok = ref true in
          let need n = if !cursor + n > plen then ok := false in
          let tid = next () in
          let attempt = next () in
          let lsn = next () in
          need 4;
          if not !ok then None
          else begin
            let npages = next () in
            need (8 * npages);
            if not !ok then None
            else begin
              let pages =
                List.init npages (fun _ ->
                    let f = next () in
                    let i = next () in
                    (f, i))
              in
              need 4;
              if not !ok then None
              else begin
                let ndeps = next () in
                need (8 * ndeps);
                if (not !ok) || !cursor + (8 * ndeps) <> plen then None
                else begin
                  let deps =
                    List.init ndeps (fun _ ->
                        let t = next () in
                        let a = next () in
                        (t, a))
                  in
                  Some ({ tid; attempt; lsn; pages; deps }, pos + 5 + plen + 4)
                end
              end
            end
          end
        end
      end
    end

  let scan_valid s =
    let len = String.length s in
    let rec go acc pos =
      if pos >= len then (List.rev acc, 0)
      else
        match decode s ~pos with
        | Some (r, next) -> go (r :: acc) next
        | None -> (List.rev acc, len - pos)
    in
    go [] 0
end
