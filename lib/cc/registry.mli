(** Construction of a node's concurrency control manager by algorithm. *)

val make :
  Ddbm_model.Params.cc_algorithm ->
  Ddbm_model.Cc_intf.hooks ->
  Ddbm_model.Cc_intf.node_cc

(** Every registered algorithm, in a stable order. *)
val all : Ddbm_model.Params.cc_algorithm list
