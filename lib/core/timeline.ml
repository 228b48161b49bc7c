(** Per-transaction timeline reconstruction from the typed event stream.

    A timeline is a {!Ddbm_model.Tracer} sink that folds lifecycle
    events ({!Ddbm_model.Event}) back into the response-time
    decomposition of every committed transaction, using only the
    information carried by the events. The machine computes the same
    decomposition directly while running ({!Sim_result.decomp}); because
    both paths fold the identical measured deltas through
    {!Ddbm_model.Decomp.assemble} in the same order, their results agree
    bit for bit — the conformance suite uses this as a cross-check that
    the event stream is complete and correctly timed. *)

open Ddbm_model

(** One committed transaction, reconstructed. *)
type committed = {
  tid : int;
  attempt : int;  (** the committing attempt *)
  commit_time : float;
  response : float;  (** origination to commit *)
  decomp : Decomp.t;
}

(* Work-phase resource accumulator of one cohort (mirrors
   [Messages.cohort_usage]). *)
type acc = {
  mutable a_blocked : float;
  mutable a_disk : float;
  mutable a_cpu : float;
  mutable a_log : float;  (** pre-decision (prepare) log forces *)
}

(* State of an in-flight attempt. *)
type attempt_state = {
  attempt : int;
  start_time : float;
  mutable setup_end : float;
  mutable work_end : float;  (** time of the last Work_done *)
  mutable last_work_node : int;
  mutable last_vote_node : int;
      (** node of the last accepted yes vote: its prepare force is the
          decision-gating log write of the decomposition *)
  mutable in_2pc : bool;  (** Prepare seen: stop accruing work-phase usage *)
  mutable decided : bool;
      (** Decision seen: later log forces are commit forces, not part of
          the [log] component *)
  accs : (int, acc) Hashtbl.t;  (** node -> accumulator *)
}

type t = {
  sequential : bool;
      (** sequential execution pattern: the work-phase critical path is
          the sum over all cohorts instead of the last Work_done's *)
  submits : (int, float) Hashtbl.t;  (** tid -> submission time *)
  inflight : (int, attempt_state) Hashtbl.t;
  mutable committed_rev : committed list;  (** newest first *)
}

let create ~sequential =
  {
    sequential;
    submits = Hashtbl.create 256;
    inflight = Hashtbl.create 256;
    committed_rev = [];
  }

(** Convenience: derive the execution pattern from the run parameters. *)
let of_params (params : Params.t) =
  create
    ~sequential:
      (match params.Params.workload.Params.exec_pattern with
      | Params.Sequential -> true
      | Params.Parallel -> false)

let acc_of st node =
  match Hashtbl.find_opt st.accs node with
  | Some a -> a
  | None ->
      let a = { a_blocked = 0.; a_disk = 0.; a_cpu = 0.; a_log = 0. } in
      Hashtbl.replace st.accs node a;
      a

(* Critical-path resources, mirroring the machine's computation exactly
   (same fold, same order) so the floats match bit for bit. *)
let critical_path t st =
  if t.sequential then
    Hashtbl.fold (fun node a acc -> (node, a) :: acc) st.accs []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.fold_left
         (fun (b, d, c) (_, a) ->
           (b +. a.a_blocked, d +. a.a_disk, c +. a.a_cpu))
         (0., 0., 0.)
  else
    match Hashtbl.find_opt st.accs st.last_work_node with
    | Some a -> (a.a_blocked, a.a_disk, a.a_cpu)
    | None -> (0., 0., 0.)

(** The sink to attach with [Tracer.attach]. *)
let sink t : Tracer.sink =
 fun ~time ev ->
  match ev with
  | Event.Submit { tid } -> Hashtbl.replace t.submits tid time
  | Event.Attempt_start { tid; attempt } ->
      Hashtbl.replace t.inflight tid
        {
          attempt;
          start_time = time;
          setup_end = time;
          work_end = time;
          last_work_node = -1;
          last_vote_node = -1;
          in_2pc = false;
          decided = false;
          accs = Hashtbl.create 8;
        }
  | Event.Setup_done { tid; _ } ->
      Option.iter
        (fun st -> st.setup_end <- time)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Lock_grant { tid; node; waited; _ } ->
      Option.iter
        (fun st ->
          if not st.in_2pc then
            let a = acc_of st node in
            a.a_blocked <- a.a_blocked +. waited)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Disk_access { tid; node; write; dur; _ } ->
      Option.iter
        (fun st ->
          if (not st.in_2pc) && not write then
            let a = acc_of st node in
            a.a_disk <- a.a_disk +. dur)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Cpu_slice { tid; node; dur; _ } ->
      Option.iter
        (fun st ->
          if not st.in_2pc then
            let a = acc_of st node in
            a.a_cpu <- a.a_cpu +. dur)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Work_done { tid; node; _ } ->
      Option.iter
        (fun st ->
          st.last_work_node <- node;
          st.work_end <- time)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Prepare { tid; _ } ->
      Option.iter
        (fun st -> st.in_2pc <- true)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Log_forced { tid; node; dur; _ } ->
      Option.iter
        (fun st ->
          if not st.decided then
            let a = acc_of st node in
            a.a_log <- a.a_log +. dur)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Vote { tid; node; yes; _ } ->
      Option.iter
        (fun st -> if yes then st.last_vote_node <- node)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Decision { tid; _ } ->
      Option.iter
        (fun st -> st.decided <- true)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Committed { tid; attempt; response } ->
      Option.iter
        (fun st ->
          let origin =
            Option.value ~default:st.start_time
              (Hashtbl.find_opt t.submits tid)
          in
          let blocked, disk, cpu = critical_path t st in
          (* the decision-gating log force: the prepare force of the last
             accepted yes vote's cohort (mirrors the machine exactly) *)
          let log =
            match Hashtbl.find_opt st.accs st.last_vote_node with
            | Some a -> a.a_log
            | None -> 0.
          in
          let decomp =
            Decomp.assemble
              ~restart:(st.start_time -. origin)
              ~setup:(st.setup_end -. st.start_time)
              ~exec:(st.work_end -. st.setup_end)
              ~blocked ~disk ~cpu ~log
              ~commit:(time -. st.work_end)
          in
          t.committed_rev <-
            { tid; attempt; commit_time = time; response; decomp }
            :: t.committed_rev;
          Hashtbl.remove t.inflight tid;
          Hashtbl.remove t.submits tid)
        (Hashtbl.find_opt t.inflight tid)
  | Event.Aborted { tid; _ } ->
      (* the submit time survives: restarts count from origination *)
      Hashtbl.remove t.inflight tid
  | Event.Cohort_load _ | Event.Cohort_start _ | Event.Lock_request _
  | Event.Lock_release _ | Event.Page_read _ | Event.Page_installed _
  | Event.Msg_send _ | Event.Msg_recv _ | Event.Wound _ | Event.Restart_wait _
  | Event.Snoop_round _ | Event.Node_crashed _ | Event.Node_recovered _
  | Event.Msg_dropped _ | Event.Timeout_fired _ | Event.Txn_orphaned _
  | Event.Cohort_resurrected _ | Event.Recovery_started _
  | Event.Recovery_completed _ | Event.Recovery_chain_started _
  | Event.Recovery_chain_completed _ | Event.Sample _ ->
      ()

(** Committed transactions reconstructed so far, oldest first. *)
let committed t = List.rev t.committed_rev
