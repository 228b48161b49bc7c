(** Construction of a node's concurrency control manager by algorithm. *)

(** [broken_lock_conversion] arms the lock table's chaos switch
    ({!Lock_table.create}); the algorithms without a lock table ignore
    it. *)
val make :
  ?broken_lock_conversion:bool ->
  Ddbm_model.Params.cc_algorithm ->
  Ddbm_model.Cc_intf.hooks ->
  Ddbm_model.Cc_intf.node_cc

(** Every registered algorithm, in a stable order. *)
val all : Ddbm_model.Params.cc_algorithm list
