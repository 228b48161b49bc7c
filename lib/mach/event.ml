(** Typed lifecycle events of the simulated machine.

    Events carry the transaction, node and page identifiers needed to
    reconstruct a per-transaction timeline ({!Ddbm.Timeline}) or to
    export a trace for Perfetto. The machine builds and emits an event only
    while a {!Tracer.t} is attached, behind an [if traced t] guard at each
    emission site, so an untraced run allocates nothing for events. *)

open Ids

type lock_mode = Read | Write

let lock_mode_name = function Read -> "read" | Write -> "write"

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
      page : Page.t;
      mode : lock_mode;
    }
  | Lock_grant of {
      tid : int;
      attempt : int;
      node : int;
      page : Page.t;
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
  | Msg_send of { src : node_ref; dst : node_ref }
  | Msg_recv of { src : node_ref; dst : node_ref }
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
  | Node_crashed of { node : node_ref }
  | Node_recovered of { node : node_ref }
  | Msg_dropped of { src : node_ref; dst : node_ref }
      (** the fault plan's network judge dropped a protocol message *)
  | Timeout_fired of { tid : int; attempt : int; at_node : node_ref; round : int }
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

let name = function
  | Submit _ -> "submit"
  | Attempt_start _ -> "attempt-start"
  | Setup_done _ -> "setup-done"
  | Cohort_load _ -> "cohort-load"
  | Cohort_start _ -> "cohort-start"
  | Lock_request _ -> "lock-request"
  | Lock_grant _ -> "lock-grant"
  | Lock_release _ -> "lock-release"
  | Disk_access _ -> "disk"
  | Cpu_slice _ -> "cpu"
  | Msg_send _ -> "msg-send"
  | Msg_recv _ -> "msg-recv"
  | Work_done _ -> "work-done"
  | Prepare _ -> "prepare"
  | Vote _ -> "vote"
  | Decision _ -> "decision"
  | Committed _ -> "committed"
  | Aborted _ -> "aborted"
  | Wound _ -> "wound"
  | Restart_wait _ -> "restart-wait"
  | Snoop_round _ -> "snoop-round"
  | Node_crashed _ -> "node-crashed"
  | Node_recovered _ -> "node-recovered"
  | Msg_dropped _ -> "msg-dropped"
  | Timeout_fired _ -> "timeout-fired"
  | Txn_orphaned _ -> "txn-orphaned"
  | Log_forced _ -> "log-forced"
  | Cohort_resurrected _ -> "cohort-resurrected"
  | Recovery_started _ -> "recovery-started"
  | Recovery_completed _ -> "recovery-completed"
  | Recovery_chain_started _ -> "recovery-chain-started"
  | Recovery_chain_completed _ -> "recovery-chain-completed"
  | Sample _ -> "sample"

(** Flat field listing for serialization; {!Sample} payloads are handled
    by exporters directly (they are the only nested events). *)
type field = I of int | F of float | S of string | B of bool

let fields ev : (string * field) list =
  let page p = S (Format.asprintf "%a" Page.pp p) in
  let node_ref r = S (Format.asprintf "%a" pp_node_ref r) in
  let reason r = S (Txn.abort_reason_name r) in
  match ev with
  | Submit { tid } -> [ ("tid", I tid) ]
  | Attempt_start { tid; attempt } | Setup_done { tid; attempt } ->
      [ ("tid", I tid); ("attempt", I attempt) ]
  | Cohort_load { tid; attempt; node }
  | Cohort_start { tid; attempt; node }
  | Lock_release { tid; attempt; node }
  | Work_done { tid; attempt; node } ->
      [ ("tid", I tid); ("attempt", I attempt); ("node", I node) ]
  | Lock_request { tid; attempt; node; page = p; mode } ->
      [
        ("tid", I tid);
        ("attempt", I attempt);
        ("node", I node);
        ("page", page p);
        ("mode", S (lock_mode_name mode));
      ]
  | Lock_grant { tid; attempt; node; page = p; mode; waited } ->
      [
        ("tid", I tid);
        ("attempt", I attempt);
        ("node", I node);
        ("page", page p);
        ("mode", S (lock_mode_name mode));
        ("waited", F waited);
      ]
  | Disk_access { tid; attempt; node; write; dur } ->
      [
        ("tid", I tid);
        ("attempt", I attempt);
        ("node", I node);
        ("write", B write);
        ("dur", F dur);
      ]
  | Cpu_slice { tid; attempt; node; dur } ->
      [
        ("tid", I tid);
        ("attempt", I attempt);
        ("node", I node);
        ("dur", F dur);
      ]
  | Msg_send { src; dst } | Msg_recv { src; dst } ->
      [ ("src", node_ref src); ("dst", node_ref dst) ]
  | Prepare { tid; attempt } -> [ ("tid", I tid); ("attempt", I attempt) ]
  | Vote { tid; attempt; node; yes } ->
      [
        ("tid", I tid); ("attempt", I attempt); ("node", I node); ("yes", B yes);
      ]
  | Decision { tid; attempt; commit } ->
      [ ("tid", I tid); ("attempt", I attempt); ("commit", B commit) ]
  | Committed { tid; attempt; response } ->
      [ ("tid", I tid); ("attempt", I attempt); ("response", F response) ]
  | Aborted { tid; attempt; reason = r } ->
      [ ("tid", I tid); ("attempt", I attempt); ("reason", reason r) ]
  | Wound { tid; attempt; from_node; reason = r } ->
      [
        ("tid", I tid);
        ("attempt", I attempt);
        ("from_node", I from_node);
        ("reason", reason r);
      ]
  | Restart_wait { tid; attempt; delay } ->
      [ ("tid", I tid); ("attempt", I attempt); ("delay", F delay) ]
  | Snoop_round { node; edges; victims } ->
      [ ("node", I node); ("edges", I edges); ("victims", I victims) ]
  | Node_crashed { node } -> [ ("node", node_ref node) ]
  | Node_recovered { node } -> [ ("node", node_ref node) ]
  | Msg_dropped { src; dst } ->
      [ ("src", node_ref src); ("dst", node_ref dst) ]
  | Timeout_fired { tid; attempt; at_node; round } ->
      [
        ("tid", I tid);
        ("attempt", I attempt);
        ("at_node", node_ref at_node);
        ("round", I round);
      ]
  | Txn_orphaned { tid; attempt; node } ->
      [ ("tid", I tid); ("attempt", I attempt); ("node", I node) ]
  | Log_forced { tid; attempt; node; dur } ->
      [
        ("tid", I tid);
        ("attempt", I attempt);
        ("node", I node);
        ("dur", F dur);
      ]
  | Cohort_resurrected { tid; attempt; node; backup } ->
      [
        ("tid", I tid);
        ("attempt", I attempt);
        ("node", I node);
        ("backup", I backup);
      ]
  | Recovery_started { node } -> [ ("node", I node) ]
  | Recovery_completed { node; duration; redone } ->
      [ ("node", I node); ("duration", F duration); ("redone", I redone) ]
  | Recovery_chain_started { node; chain; txns } ->
      [ ("node", I node); ("chain", I chain); ("txns", I txns) ]
  | Recovery_chain_completed { node; chain; txns; duration } ->
      [
        ("node", I node);
        ("chain", I chain);
        ("txns", I txns);
        ("duration", F duration);
      ]
  | Sample { active; host_cpu_util; nodes } ->
      [
        ("active", I active);
        ("host_cpu", F host_cpu_util);
        ("nodes", I (Array.length nodes));
      ]

let pp fmt ev =
  Format.fprintf fmt "%s" (name ev);
  List.iter
    (fun (k, v) ->
      match v with
      | I i -> Format.fprintf fmt " %s=%d" k i
      | F f -> Format.fprintf fmt " %s=%.6f" k f
      | S s -> Format.fprintf fmt " %s=%s" k s
      | B b -> Format.fprintf fmt " %s=%b" k b)
    (fields ev)
