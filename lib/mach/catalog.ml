(** File-to-node mapping (the FileLocations parameter of Table 1).

    Each relation's [partitions_per_relation] partitions are grouped into
    [partitioning_degree] chunks of consecutive partitions; chunk [c] of
    relation [i] is stored on processing node [(i + c) mod num_proc_nodes].
    The rotation by relation index balances load across nodes exactly as in
    Sections 4.2-4.4 of the paper:

    - degree 1: relation i lives entirely at node (i mod n) — transactions
      on relation i run sequentially at one node;
    - degree = n (machine-size experiments): every relation is spread over
      all nodes, every transaction has one cohort per node;
    - degrees 2 and 4 on 8 nodes: the rotated placements of Section 4.4. *)

open Ids

type t = {
  params : Params.database;
  file_of : int -> int -> int;  (** relation -> partition -> file id *)
  node_of_file : int array;  (** file id -> processing node index *)
}

let file_id params ~relation ~partition =
  (relation * params.Params.partitions_per_relation) + partition

let create (params : Params.database) =
  let num_files = params.num_relations * params.partitions_per_relation in
  let chunk_size = params.partitions_per_relation / params.partitioning_degree in
  let node_of_file =
    Array.init num_files (fun f ->
        let relation = f / params.partitions_per_relation in
        let partition = f mod params.partitions_per_relation in
        let chunk = partition / chunk_size in
        (* start each relation at floor(relation * nodes / relations):
           identical to a plain rotation when nodes <= relations, and
           still load-balanced when the machine has more nodes than
           relations (e.g. the 16-node footnote-7 configuration) *)
        let start =
          relation * params.num_proc_nodes / params.num_relations
        in
        (start + chunk) mod params.num_proc_nodes)
  in
  {
    params;
    file_of = (fun relation partition -> file_id params ~relation ~partition);
    node_of_file;
  }

let num_files t =
  t.params.Params.num_relations * t.params.Params.partitions_per_relation

(** Processing node holding the given file. *)
let node_of t ~file = Proc t.node_of_file.(file)

(** Distinct nodes holding partitions of [relation], in ascending partition
    order (the cohort order for sequential execution). *)
let nodes_of_relation t ~relation =
  let p = t.params in
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  for partition = 0 to p.Params.partitions_per_relation - 1 do
    let f = t.file_of relation partition in
    let n = t.node_of_file.(f) in
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      order := n :: !order
    end
  done;
  List.rev_map (fun n -> Proc n) !order

(** Node holding copy [k] of [file]: copy 0 is the primary, the
    additional copies sit on the following nodes (read-one/write-all
    replication per [Care88]). *)
let copy_node t ~file k =
  (t.node_of_file.(file) + k) mod t.params.Params.num_proc_nodes

(** Nodes holding copies of [file], primary first; replication 1 means
    just the primary. *)
let copy_nodes t ~file =
  List.init t.params.Params.replication (copy_node t ~file)

(** Files of [relation] stored at processing node [node]. *)
let files_at t ~relation ~node =
  let p = t.params in
  let acc = ref [] in
  for partition = p.Params.partitions_per_relation - 1 downto 0 do
    let f = t.file_of relation partition in
    if t.node_of_file.(f) = node then acc := f :: !acc
  done;
  !acc
