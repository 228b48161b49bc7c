(** Static access plan of a transaction, chosen by the source at submission
    time and reused verbatim on every restart (the paper "reruns the
    transaction"). *)

type page_op = { page : Ids.Page.t; update : bool }

type cohort_plan = {
  node : int;  (** processing node index *)
  ops : page_op list;  (** primary-copy page accesses in execution order *)
  apply_ops : Ids.Page.t list;
      (** replica copies of pages updated by other cohorts that live at
          this node: this cohort must obtain write permission for them
          (at access time or at prepare time, depending on the algorithm)
          and install them at commit. Empty without replication. *)
}

type t = {
  relation : int;
  cohorts : cohort_plan list;  (** in activation order (for sequential) *)
}

(** The cohort writes: it updates a primary copy or installs a replica. *)
val updates : cohort_plan -> bool

val num_cohorts : t -> int
val total_reads : t -> int
val total_writes : t -> int

(** Replica applications across all cohorts (0 without replication). *)
val total_replica_applies : t -> int

val pp : Format.formatter -> t -> unit
