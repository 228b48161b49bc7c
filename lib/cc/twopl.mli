(** Distributed two-phase locking (Section 2.2 of the paper): dynamic
    lock acquisition with read-to-write conversion, block-time local
    deadlock detection (youngest victim), locks held to commit/abort.
    Global deadlocks are handled by {!Snoop}. *)

(** [detect_local hooks locks requester] is block-time local deadlock
    detection: while a cycle through [requester] remains in [locks],
    request the abort of its youngest member (shared with 2PL-D). *)
val detect_local :
  Ddbm_model.Cc_intf.hooks -> Lock_table.t -> Ddbm_model.Txn.t -> unit

(** [algorithm] relabels the manager for the O2PL variant, which shares
    this lock-manager implementation (its deferred replica write locks
    are a transaction-manager behaviour). *)
val make :
  ?algorithm:Ddbm_model.Params.cc_algorithm ->
  Ddbm_model.Cc_intf.hooks ->
  Ddbm_model.Cc_intf.node_cc
