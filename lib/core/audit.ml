(** End-to-end serializability auditor.

    When enabled, the machine records for every *committed* transaction
    the version of each page it read (the page's install counter at the
    instant the access permission was granted) and the versions its
    commit installed. From these we build the multiversion serialization
    graph:

    - ww: the writer of version [v] precedes the writer of version [v+1];
    - wr: the writer of version [v] precedes every reader of [v];
    - rw: every reader of version [v] precedes the writer of [v+1].

    Acyclicity of this graph over the committed transactions proves the
    execution was (multiversion view-) serializable — a whole-machine
    correctness check for every concurrency control algorithm, including
    BTO's Thomas-rule write drops (a dropped write installs nothing and
    simply does not appear). *)

open Ddbm_model
open Ids

type txn_record = {
  key : int * int;
  mutable reads : (Page.t * int) list;  (** page, version observed *)
  mutable writes : (Page.t * int) list;  (** page, version installed *)
  mutable committed : bool;
}

type t = {
  versions : int Page_table.t;  (** current installed version per page *)
  txns : (int * int, txn_record) Hashtbl.t;
  mutable commit_count : int;
}

let create () =
  { versions = Page_table.create 1024; txns = Hashtbl.create 512; commit_count = 0 }

let current_version t page =
  Option.value ~default:0 (Page_table.find_opt t.versions page)

let record_of t txn =
  let key = Txn.key txn in
  match Hashtbl.find_opt t.txns key with
  | Some r -> r
  | None ->
      let r = { key; reads = []; writes = []; committed = false } in
      Hashtbl.add t.txns key r;
      r

(** The cohort's access permission for [page] was granted; remember the
    version it observes. *)
let record_read t txn page =
  let r = record_of t txn in
  r.reads <- (page, current_version t page) :: r.reads

(** The cohort's commit installed its update of [page]. *)
let record_install t txn page =
  let v = current_version t page + 1 in
  Page_table.replace t.versions page v;
  let r = record_of t txn in
  r.writes <- (page, v) :: r.writes

let record_commit t txn =
  (record_of t txn).committed <- true;
  t.commit_count <- t.commit_count + 1

(** Aborted attempts leave no trace. *)
let record_abort t txn = Hashtbl.remove t.txns (Txn.key txn)

(* --- graph construction and cycle check --------------------------- *)

let compare_key ((t1, a1) : int * int) ((t2, a2) : int * int) =
  match Int.compare t1 t2 with 0 -> Int.compare a1 a2 | n -> n

module Edge_set = Set.Make (struct
  type t = (int * int) * (int * int)

  let compare (w1, h1) (w2, h2) =
    match compare_key w1 w2 with 0 -> compare_key h1 h2 | n -> n
end)

let build_edges t =
  (* per page: writer of each version, readers of each version *)
  let writers : (Page.t * int, int * int) Hashtbl.t = Hashtbl.create 1024 in
  let readers : (Page.t * int, (int * int) list) Hashtbl.t =
    Hashtbl.create 1024
  in
  (* lint: allow hashtbl-order - fills keyed tables, order immaterial *)
  Hashtbl.iter
    (fun key r ->
      if r.committed then begin
        List.iter (fun (page, v) -> Hashtbl.replace writers (page, v) key) r.writes;
        List.iter
          (fun (page, v) ->
            let cur =
              Option.value ~default:[] (Hashtbl.find_opt readers (page, v))
            in
            Hashtbl.replace readers (page, v) (key :: cur))
          r.reads
      end)
    t.txns;
  let edges = ref Edge_set.empty in
  let add a b = if a <> b then edges := Edge_set.add (a, b) !edges in
  (* ww and wr *)
  (* lint: allow hashtbl-order - accumulates into a set, order immaterial *)
  Hashtbl.iter
    (fun (page, v) writer ->
      (match Hashtbl.find_opt writers (page, v + 1) with
      | Some next_writer -> add writer next_writer
      | None -> ());
      (match Hashtbl.find_opt readers (page, v) with
      | Some rs -> List.iter (fun r -> add writer r) rs
      | None -> ()))
    writers;
  (* rw: reader of v precedes writer of v+1 *)
  (* lint: allow hashtbl-order - accumulates into a set, order immaterial *)
  Hashtbl.iter
    (fun (page, v) rs ->
      match Hashtbl.find_opt writers (page, v + 1) with
      | Some next_writer -> List.iter (fun r -> add r next_writer) rs
      | None -> ())
    readers;
  !edges

(** Check the committed history for serializability. [Ok n] reports the
    number of committed transactions checked; [Error msg] describes a
    cycle. *)
let check t =
  let edges = build_edges t in
  let adj : (int * int, (int * int) list) Hashtbl.t = Hashtbl.create 1024 in
  Edge_set.iter
    (fun (a, b) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt adj a) in
      Hashtbl.replace adj a (b :: cur))
    edges;
  (* iterative three-color DFS *)
  let color : (int * int, [ `Grey | `Black ]) Hashtbl.t = Hashtbl.create 1024 in
  let cycle = ref None in
  let rec visit node =
    match Hashtbl.find_opt color node with
    | Some `Black -> ()
    | Some `Grey ->
        if !cycle = None then cycle := Some node
    | None ->
        Hashtbl.replace color node `Grey;
        List.iter
          (fun next -> if !cycle = None then visit next)
          (Option.value ~default:[] (Hashtbl.find_opt adj node));
        Hashtbl.replace color node `Black
  in
  (* DFS roots in key order: the cycle witness named in the error is then
     independent of hash-table layout. *)
  let roots =
    Hashtbl.fold (fun node _ acc -> node :: acc) adj []
    |> List.sort compare_key
  in
  List.iter (fun node -> if !cycle = None then visit node) roots;
  match !cycle with
  | None -> Ok t.commit_count
  | Some (tid, attempt) ->
      Error
        (Printf.sprintf
           "serialization graph has a cycle through T%d.%d (%d committed, %d edges)"
           tid attempt t.commit_count
           (Edge_set.cardinal edges))
