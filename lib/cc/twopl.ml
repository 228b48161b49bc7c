(** Distributed two-phase locking (Section 2.2).

    Cohorts take read locks as they read and convert them to write locks on
    update. Locks are held until commit or abort. Whenever a cohort blocks,
    a local deadlock detection pass searches depth-first from the
    requester along this node's waits-for edges. The edges are not
    collected into a graph first: the search asks the lock table, per
    visited attempt, for the blockers of that attempt's queued requests,
    so a block costs the paths leaving the requester, not a scan of every
    locked page. Global deadlocks are left to the Snoop detector (see
    {!Snoop}). The victim is the transaction with the most recent initial
    startup time in the cycle; its abort is routed to its coordinator via
    [hooks.request_abort]. *)

open Ddbm_model

type t = {
  hooks : Cc_intf.hooks;
  locks : Lock_table.t;
  requester : Txn.t ref;
      (** the attempt inside [Lock_table.request], which runs [on_block]
          before it returns or parks *)
  on_block : Txn.t list -> unit;  (** built once, for every request *)
}

(* Victimize until no cycle through the requester remains. request_abort
   marks victims doomed synchronously, which the search treats as broken
   edges, so the recursion terminates. *)
let rec detect_local (hooks : Cc_intf.hooks) locks (requester : Txn.t) =
  match Lock_table.find_cycle_through locks requester with
  | None -> ()
  | Some cycle ->
      let victim = Wfg.youngest cycle in
      hooks.Cc_intf.request_abort victim Txn.Local_deadlock;
      if not (Txn.same_attempt victim requester) then
        detect_local hooks locks requester

let acquire t txn page mode =
  t.hooks.Cc_intf.charge_cc_request ();
  t.requester := txn;
  Lock_table.request t.locks txn page mode ~on_block:t.on_block

(** [make hooks] builds the node manager; [algorithm] relabels it for the
    O2PL variant, which shares this implementation (the 2PL/O2PL
    difference — when remote replica copies are write-locked — lives in
    the transaction manager, not the lock manager). *)
let make ?(algorithm = Params.Twopl) (hooks : Cc_intf.hooks) :
    Cc_intf.node_cc =
  let blocking = Desim.Stats.Tally.create () in
  let locks = Lock_table.create hooks.Cc_intf.eng ~blocking in
  let requester = ref (Txn.placeholder ()) in
  let t =
    {
      hooks;
      locks;
      requester;
      on_block = (fun _ -> detect_local hooks locks !requester);
    }
  in
  {
    algorithm;
    cc_read = (fun txn page -> acquire t txn page Lock_table.S);
    cc_write = (fun txn page -> acquire t txn page Lock_table.X);
    cc_prepare = (fun txn -> not txn.Txn.doomed);
    cc_installed = (fun txn -> Lock_table.exclusive_pages t.locks txn);
    cc_commit =
      (fun txn ->
        Lock_table.release_all t.locks txn ~reject:(Txn.Aborted Txn.Peer_abort));
    cc_abort =
      (fun txn ->
        Lock_table.release_all t.locks txn ~reject:(Txn.Aborted Txn.Peer_abort));
    cc_edges = (fun () -> Lock_table.edges t.locks);
    cc_blocking = blocking;
  }
