(** Typed lifecycle events of the simulated machine.

    Events carry the transaction, node and page identifiers needed to
    reconstruct a per-transaction timeline ({!Ddbm.Timeline}) or to
    export a trace for Perfetto. The machine builds and emits an event only
    while a {!Tracer.t} is attached, behind an [if traced t] guard at each
    emission site, so an untraced run allocates nothing for events. *)

type lock_mode = Read | Write

val lock_mode_name : lock_mode -> string

(** One row of the time-series sampler, for a processing node.
    Utilizations are means over the sampling interval just ended; queue
    lengths are instantaneous. *)
type node_sample = {
  cpu_util : float;
  disk_util : float;  (** mean over the node's disks *)
  cpu_queue : int;  (** jobs in the processor-sharing class *)
  disk_queue : int;  (** operations waiting or in service, all disks *)
}

type sample = {
  active : int;  (** transactions currently in the system *)
  host_cpu_util : float;
  nodes : node_sample array;
}

type t =
  | Submit of { tid : int }  (** terminal submitted a new transaction *)
  | Attempt_start of { tid : int; attempt : int }
  | Setup_done of { tid : int; attempt : int }
      (** coordinator process startup finished; work phase begins *)
  | Cohort_load of { tid : int; attempt : int; node : int }
      (** load-cohort message sent to [node] *)
  | Cohort_start of { tid : int; attempt : int; node : int }
      (** cohort process running at [node] *)
  | Lock_request of {
      tid : int;
      attempt : int;
      node : int;
      page : Ids.Page.t;
      mode : lock_mode;
    }
  | Lock_grant of {
      tid : int;
      attempt : int;
      node : int;
      page : Ids.Page.t;
      mode : lock_mode;
      waited : float;  (** CC blocking time; 0 when granted immediately *)
    }
  | Lock_release of { tid : int; attempt : int; node : int }
      (** all CC footprint at [node] released (commit or abort) *)
  | Disk_access of {
      tid : int;
      attempt : int;
      node : int;
      write : bool;
      dur : float;  (** queueing + service *)
    }
  | Cpu_slice of { tid : int; attempt : int; node : int; dur : float }
      (** page-processing CPU, wall time under processor sharing *)
  | Msg_send of { src : Ids.node_ref; dst : Ids.node_ref }
  | Msg_recv of { src : Ids.node_ref; dst : Ids.node_ref }
  | Work_done of { tid : int; attempt : int; node : int }
      (** coordinator received [node]'s Work_done *)
  | Prepare of { tid : int; attempt : int }
      (** coordinator broadcast Do_prepare; 2PC begins *)
  | Vote of { tid : int; attempt : int; node : int; yes : bool }
  | Decision of { tid : int; attempt : int; commit : bool }
  | Committed of { tid : int; attempt : int; response : float }
  | Aborted of { tid : int; attempt : int; reason : Txn.abort_reason }
  | Wound of {
      tid : int;
      attempt : int;
      from_node : int;
      reason : Txn.abort_reason;
    }  (** a CC manager or the Snoop demanded this transaction's abort *)
  | Restart_wait of { tid : int; attempt : int; delay : float }
  | Snoop_round of { node : int; edges : int; victims : int }
  | Node_crashed of { node : Ids.node_ref }
  | Node_recovered of { node : Ids.node_ref }
  | Msg_dropped of { src : Ids.node_ref; dst : Ids.node_ref }
      (** the fault plan's network judge dropped a protocol message *)
  | Timeout_fired of {
      tid : int;
      attempt : int;
      at_node : Ids.node_ref;
      round : int;
    }
      (** a 2PC participant's receive timed out; [round] counts the
          consecutive timeouts behind the capped backoff *)
  | Txn_orphaned of { tid : int; attempt : int; node : int }
      (** a cohort's CC footprint was cleaned up out-of-band (node crash
          or an exhausted abort-retry budget) *)
  | Log_forced of { tid : int; attempt : int; node : int; dur : float }
      (** a cohort's WAL force completed at [node] after [dur] seconds
          of log-disk queueing + service; forces before the attempt's
          Decision are prepare forces, later ones commit forces *)
  | Cohort_resurrected of { tid : int; attempt : int; node : int; backup : int }
      (** [node] crashed but this cohort's shipped write-set let the
          coordinator fail over to [backup] instead of dooming it *)
  | Recovery_started of { node : int }
      (** crash recovery (analysis + redo over the durable log) began *)
  | Recovery_completed of { node : int; duration : float; redone : int }
      (** recovery finished after [duration] seconds, having resolved
          [redone] in-doubt transactions to commit and redone their
          durable updates *)
  | Recovery_chain_started of { node : int; chain : int; txns : int }
      (** a redo worker began replaying dependency chain [chain]
          ([txns] transactions) of [node]'s recovery *)
  | Recovery_chain_completed of {
      node : int;
      chain : int;
      txns : int;
      duration : float;
    }  (** chain [chain] finished replaying after [duration] seconds *)
  | Sample of sample

val name : t -> string

(** Flat field listing for serialization; {!Sample} payloads are handled
    by exporters directly (they are the only nested events). *)
type field = I of int | F of float | S of string | B of bool

val fields : t -> (string * field) list
val pp : Format.formatter -> t -> unit
