(** Lock-based concurrency control over one {!Lock_table}: 2PL and O2PL
    (Section 2.2 of the paper) and 2PL with deferred write locks, which
    detect local deadlocks at block time and leave global ones to
    {!Snoop}; wound-wait (Section 2.3) and wait-die, which prevent
    deadlocks by startup timestamp. *)

(** Whether the algorithm's deadlocks are detected rather than prevented
    (2PL, O2PL and 2PL-D), so that it needs the Snoop global deadlock
    detector. *)
val needs_snoop : Ddbm_model.Params.cc_algorithm -> bool

(** [make algorithm hooks] builds a node's manager for a lock-based
    [algorithm], choosing its blocking policy once. Raises
    [Invalid_argument] for NO_DC, BTO and OPT. *)
val make :
  Ddbm_model.Params.cc_algorithm ->
  Ddbm_model.Cc_intf.hooks ->
  Ddbm_model.Cc_intf.node_cc
