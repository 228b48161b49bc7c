(** End-to-end serializability auditor.

    A sink on the machine's typed event stream. It records, for every
    *committed* transaction, the version of each page it read (the
    page's install count when its [Page_read] event arrives) and the
    versions its [Page_installed] events created. From these we build
    the multiversion serialization graph:

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
  mutable reads : (Page.t * int) list;  (** page, version observed *)
  mutable writes : (Page.t * int) list;  (** page, version installed *)
  mutable committed : bool;
}

type t = {
  versions : int Page_table.t;  (** current installed version per page *)
  txns : txn_record Txn.Key_table.t;
  mutable commit_count : int;
}

let create () =
  {
    versions = Page_table.create 1024;
    txns = Txn.Key_table.create 512;
    commit_count = 0;
  }

let current_version t page =
  Option.value ~default:0 (Page_table.find_opt t.versions page)

let record_of t key =
  match Txn.Key_table.find_opt t.txns key with
  | Some r -> r
  | None ->
      let r = { reads = []; writes = []; committed = false } in
      Txn.Key_table.add t.txns key r;
      r

let sink t ~time:_ (ev : Event.t) =
  match ev with
  | Event.Page_read { tid; attempt; page } ->
      let r = record_of t (Txn.Key.make ~tid ~attempt) in
      r.reads <- (page, current_version t page) :: r.reads
  | Event.Page_installed { tid; attempt; page } ->
      let v = current_version t page + 1 in
      Page_table.replace t.versions page v;
      let r = record_of t (Txn.Key.make ~tid ~attempt) in
      r.writes <- (page, v) :: r.writes
  | Event.Committed { tid; attempt; _ } ->
      (record_of t (Txn.Key.make ~tid ~attempt)).committed <- true;
      t.commit_count <- t.commit_count + 1
  (* aborted attempts leave no trace *)
  | Event.Aborted { tid; attempt; _ } ->
      Txn.Key_table.remove t.txns (Txn.Key.make ~tid ~attempt)
  | Event.Submit _ | Event.Attempt_start _ | Event.Setup_done _
  | Event.Cohort_load _ | Event.Cohort_start _ | Event.Lock_request _
  | Event.Lock_grant _ | Event.Lock_release _ | Event.Disk_access _
  | Event.Cpu_slice _ | Event.Msg_send _ | Event.Msg_recv _
  | Event.Work_done _ | Event.Prepare _ | Event.Vote _ | Event.Decision _
  | Event.Wound _ | Event.Restart_wait _ | Event.Snoop_round _
  | Event.Node_crashed _ | Event.Node_recovered _ | Event.Msg_dropped _
  | Event.Timeout_fired _ | Event.Txn_orphaned _ | Event.Log_forced _
  | Event.Cohort_resurrected _ | Event.Recovery_started _
  | Event.Recovery_completed _ | Event.Recovery_chain_started _
  | Event.Recovery_chain_completed _ | Event.Sample _ ->
      ()

(* --- graph construction and cycle check --------------------------- *)

module Edge_set = Set.Make (struct
  type t = Txn.Key.t * Txn.Key.t

  let compare (w1, h1) (w2, h2) =
    match Txn.Key.compare w1 w2 with 0 -> Txn.Key.compare h1 h2 | n -> n
end)

let build_edges t =
  (* per page: writer of each version, readers of each version *)
  let writers : (Page.t * int, Txn.Key.t) Hashtbl.t = Hashtbl.create 1024 in
  let readers : (Page.t * int, Txn.Key.t list) Hashtbl.t =
    Hashtbl.create 1024
  in
  (* lint: allow hashtbl-order - fills keyed tables, order immaterial *)
  Txn.Key_table.iter
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
  let add a b =
    if not (Txn.Key.equal a b) then edges := Edge_set.add (a, b) !edges
  in
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
  let adj : Txn.Key.t list Txn.Key_table.t = Txn.Key_table.create 1024 in
  Edge_set.iter
    (fun (a, b) ->
      let cur = Option.value ~default:[] (Txn.Key_table.find_opt adj a) in
      Txn.Key_table.replace adj a (b :: cur))
    edges;
  let successors node =
    Option.value ~default:[] (Txn.Key_table.find_opt adj node)
  in
  (* iterative three-color DFS: the stack holds each grey node with the
     successors it has yet to visit *)
  let color : [ `Grey | `Black ] Txn.Key_table.t = Txn.Key_table.create 1024 in
  let cycle = ref None in
  let visit root =
    let stack = ref [] in
    let enter node =
      Txn.Key_table.replace color node `Grey;
      stack := (node, successors node) :: !stack
    in
    if not (Txn.Key_table.mem color root) then enter root;
    while Option.is_none !cycle && !stack <> [] do
      match !stack with
      | [] -> ()
      | (node, []) :: rest ->
          Txn.Key_table.replace color node `Black;
          stack := rest
      | (node, next :: more) :: rest -> (
          stack := (node, more) :: rest;
          match Txn.Key_table.find_opt color next with
          | Some `Black -> ()
          | Some `Grey -> cycle := Some next
          | None -> enter next)
    done
  in
  (* DFS roots in key order: the cycle witness named in the error is then
     independent of hash-table layout. *)
  let roots =
    Txn.Key_table.fold (fun node _ acc -> node :: acc) adj []
    |> List.sort Txn.Key.compare
  in
  List.iter (fun node -> if Option.is_none !cycle then visit node) roots;
  match !cycle with
  | None -> Ok t.commit_count
  | Some key ->
      Error
        (Printf.sprintf
           "serialization graph has a cycle through T%d.%d (%d committed, %d edges)"
           (Txn.Key.tid key) (Txn.Key.attempt key) t.commit_count
           (Edge_set.cardinal edges))
