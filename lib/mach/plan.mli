(** Static access plan of a transaction, chosen by the source at submission
    time and reused verbatim on every restart (the paper "reruns the
    transaction").

    A plan lives as long as its transaction, restarts included, so it
    survives minor collections and is promoted. It is kept small and
    free of inner pointers: a cohort's accesses are one array of
    immediate {!op}s, each a page packed with its update flag. A plan of
    the paper's 8-node, 64-page transactions retains 131 words.

    Plans are not recycled: under faults a cohort can outlive its
    coordinator and still read its plan. *)

(** One primary-copy page access: its page and whether it is updated. *)
type op = private int

val op : Ids.Page.t -> update:bool -> op
val page : op -> Ids.Page.t
val update : op -> bool

type cohort_plan = {
  node : int;  (** processing node index *)
  ops : op array;  (** primary-copy page accesses in execution order *)
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

(** Primary-copy updates of the cohort. *)
val num_updates : cohort_plan -> int

val num_cohorts : t -> int
val total_reads : t -> int
val total_writes : t -> int

(** Replica applications across all cohorts (0 without replication). *)
val total_replica_applies : t -> int

val pp : Format.formatter -> t -> unit
