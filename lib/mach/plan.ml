(** Static access plan of a transaction, chosen by the source at submission
    time and reused verbatim on every restart (the paper "reruns the
    transaction"). *)

(* The page above the update flag. Pages leave the top bits of the
   native int clear, so an op is never negative. *)
type op = int

let op page ~update = ((page : Ids.Page.t :> int) lsl 1) lor Bool.to_int update
let page op = Ids.Page.of_int (op lsr 1)
let update op = op land 1 = 1

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

let num_updates c =
  Array.fold_left (fun n op -> if update op then n + 1 else n) 0 c.ops

let updates c = c.apply_ops <> [] || Array.exists update c.ops
let num_cohorts t = List.length t.cohorts

let total_reads t =
  List.fold_left (fun acc c -> acc + Array.length c.ops) 0 t.cohorts

let total_writes t = List.fold_left (fun acc c -> acc + num_updates c) 0 t.cohorts

(** Replica applications across all cohorts (0 without replication). *)
let total_replica_applies t =
  List.fold_left (fun acc c -> acc + List.length c.apply_ops) 0 t.cohorts

let pp fmt t =
  Format.fprintf fmt "relation %d: %d cohorts, %d reads, %d writes" t.relation
    (num_cohorts t) (total_reads t) (total_writes t)
