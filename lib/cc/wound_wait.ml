(** Distributed wound-wait locking (Section 2.3, [Rose78]).

    Locking is identical to 2PL, but deadlocks are prevented with
    timestamps: when a cohort of transaction [T] must wait and any of its
    blockers is younger than [T] (later initial startup time), the younger
    transaction is wounded — an abort request is sent to its coordinator,
    which ignores the wound if the victim is already in the second phase of
    its commit protocol. Younger transactions simply wait for older ones.

    Restarted transactions keep their original startup timestamp, so a
    transaction always eventually becomes the oldest and cannot starve. *)

open Ddbm_model

type t = {
  hooks : Cc_intf.hooks;
  locks : Lock_table.t;
  requester : Txn.t ref;
      (** the attempt inside [Lock_table.request], which runs [on_block]
          before it returns or parks *)
  on_block : Txn.t list -> unit;  (** built once, for every request *)
}

let wound_younger (hooks : Cc_intf.hooks) (requester : Txn.t) blockers =
  List.iter
    (fun (blocker : Txn.t) ->
      if Txn.older requester blocker && not blocker.Txn.doomed then
        hooks.Cc_intf.request_abort blocker Txn.Wounded)
    blockers

let acquire t txn page mode =
  t.hooks.Cc_intf.charge_cc_request ();
  t.requester := txn;
  Lock_table.request t.locks txn page mode ~on_block:t.on_block

let make (hooks : Cc_intf.hooks) : Cc_intf.node_cc =
  let blocking = Desim.Stats.Tally.create () in
  let requester = ref (Txn.placeholder ()) in
  let t =
    {
      hooks;
      locks = Lock_table.create hooks.Cc_intf.eng ~blocking;
      requester;
      on_block = (fun blockers -> wound_younger hooks !requester blockers);
    }
  in
  {
    algorithm = Params.Wound_wait;
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
