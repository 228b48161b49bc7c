(** Two-phase locking with deferred write locks — the improvement of
    [Care89] that the paper's footnote 13 credits with restoring 2PL's
    dominance over the optimistic algorithm even with expensive messages:
    cohorts take only read locks while executing and upgrade the pages
    they updated during the *first phase of the commit protocol* (here:
    inside the prepare processing), shortening the exclusive-lock window
    to the commit protocol itself.

    Conversion conflicts at prepare time can deadlock; they are covered
    by the same block-time local detection and Snoop machinery as plain
    2PL. A conversion rejected by an abort makes prepare vote "no". *)

open Ddbm_model
open Ids

type t = {
  hooks : Cc_intf.hooks;
  locks : Lock_table.t;
  write_sets : Page.t list ref Txn.Table.t;
  requester : Txn.t ref;
      (** the attempt inside [Lock_table.request], which runs [on_block]
          before it returns or parks *)
  on_block : Txn.t list -> unit;  (** built once, for every request *)
}

let lock t txn page mode =
  t.requester := txn;
  Lock_table.request t.locks txn page mode ~on_block:t.on_block

let cc_read t txn page =
  t.hooks.Cc_intf.charge_cc_request ();
  lock t txn page Lock_table.S

(* The write is only noted; the exclusive lock comes at prepare time. *)
let cc_write t (txn : Txn.t) page =
  t.hooks.Cc_intf.charge_cc_request ();
  match Txn.Table.find_opt t.write_sets txn with
  | Some pages -> pages := page :: !pages
  | None -> Txn.Table.add t.write_sets txn (ref [ page ])

let cc_prepare t (txn : Txn.t) =
  if txn.Txn.doomed then false
  else begin
    let pages =
      match Txn.Table.find_opt t.write_sets txn with
      | Some pages -> !pages
      | None -> []
    in
    try
      List.iter (fun page -> lock t txn page Lock_table.X) pages;
      not txn.Txn.doomed
    with Txn.Aborted _ -> false
  end

let finish t txn =
  Txn.Table.remove t.write_sets txn;
  Lock_table.release_all t.locks txn ~reject:(Txn.Aborted Txn.Peer_abort)

let make (hooks : Cc_intf.hooks) : Cc_intf.node_cc =
  let blocking = Desim.Stats.Tally.create () in
  let locks = Lock_table.create hooks.Cc_intf.eng ~blocking in
  let requester = ref (Txn.placeholder ()) in
  let t =
    {
      hooks;
      locks;
      write_sets = Txn.Table.create 64;
      requester;
      on_block = (fun _ -> Twopl.detect_local hooks locks !requester);
    }
  in
  {
    algorithm = Params.Twopl_defer;
    cc_read = (fun txn page -> cc_read t txn page);
    cc_write = (fun txn page -> cc_write t txn page);
    cc_prepare = (fun txn -> cc_prepare t txn);
    cc_installed = (fun txn -> Lock_table.exclusive_pages t.locks txn);
    cc_commit = (fun txn -> finish t txn);
    cc_abort = (fun txn -> finish t txn);
    cc_edges = (fun () -> Lock_table.edges t.locks);
    cc_blocking = blocking;
  }
