(** File-to-node mapping (the FileLocations parameter of Table 1).

    Each relation's partitions are grouped into [partitioning_degree]
    chunks of consecutive partitions; chunk [c] of relation [i] is stored
    on processing node [(i + c) mod num_proc_nodes]. The rotation by
    relation index balances load exactly as in Sections 4.2-4.4 of the
    paper: degree 1 places relation [i] entirely at node [i mod n];
    degree [n] spreads every relation over all nodes. *)

type t

val create : Params.database -> t

(** Total number of files (relations x partitions). *)
val num_files : t -> int

(** File id of a relation's partition. *)
val file_id : Params.database -> relation:int -> partition:int -> int

(** Processing node holding the given file. *)
val node_of : t -> file:int -> Ids.node_ref

(** Distinct nodes holding partitions of [relation], in ascending
    partition order (the cohort activation order for sequential
    execution). *)
val nodes_of_relation : t -> relation:int -> Ids.node_ref list

(** Files of [relation] stored at processing node [node], ascending. *)
val files_at : t -> relation:int -> node:int -> int list

(** Node holding copy [k] of [file], [0 <= k < replication]; copy 0 is
    the primary. *)
val copy_node : t -> file:int -> int -> int

(** Nodes holding copies of [file], primary first ([Care88]
    read-one/write-all replication; a single-element list when
    replication is 1). *)
val copy_nodes : t -> file:int -> int list
