(** Wait-die locking — the other timestamp-based deadlock prevention
    policy of [Rose78], added as an extension (the paper evaluates only
    its wound-wait sibling).

    When a request conflicts: an older requester is allowed to wait, a
    younger requester "dies" — it aborts itself immediately (before ever
    enqueuing) and retries later with its original timestamp, so it
    eventually becomes the oldest and cannot starve. Deadlocks are
    impossible because every wait edge points from an older to a younger
    transaction. *)

open Ddbm_model

type t = {
  hooks : Cc_intf.hooks;
  locks : Lock_table.t;
  requester : Txn.t ref;
      (** the attempt inside [Lock_table.request], which runs [pre_block]
          before it returns or parks *)
  pre_block : (Txn.t list -> unit) option;  (** built once *)
}

let die_if_younger (requester : Txn.t) blockers =
  let must_die =
    List.exists
      (fun (blocker : Txn.t) ->
        (not blocker.Txn.doomed) && Txn.older blocker requester)
      blockers
  in
  if must_die then raise (Txn.Aborted Txn.Died)

let no_policy (_ : Txn.t list) = ()

let acquire t txn page mode =
  t.hooks.Cc_intf.charge_cc_request ();
  t.requester := txn;
  Lock_table.request ?pre_block:t.pre_block t.locks txn page mode
    ~on_block:no_policy

let make (hooks : Cc_intf.hooks) : Cc_intf.node_cc =
  let blocking = Desim.Stats.Tally.create () in
  let requester = ref (Txn.placeholder ()) in
  let t =
    {
      hooks;
      locks = Lock_table.create hooks.Cc_intf.eng ~blocking;
      requester;
      pre_block = Some (fun blockers -> die_if_younger !requester blockers);
    }
  in
  {
    algorithm = Params.Wait_die;
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
