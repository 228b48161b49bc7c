(** Lock-based concurrency control: one manager over one {!Lock_table}
    for the algorithms that differ only in what a request that must wait
    does, which [make] decides once. Locks are taken as pages are read,
    converted to write locks on update, and held until commit or abort.

    - 2PL and O2PL (Section 2.2), 2PL-D: local deadlock detection at
      block time. The search runs depth-first from the requester, asking
      the lock table for the blockers of each visited attempt's queued
      requests, so a block costs the paths leaving the requester, not a
      scan of every locked page. The youngest transaction in the cycle
      (latest initial startup) is the victim; global deadlocks are left
      to {!Snoop}. O2PL's deferred replica write locks live in the
      transaction manager. 2PL-D ([Care89], the paper's footnote 13) only
      notes writes while executing and upgrades them to exclusive locks
      inside prepare, so exclusive locks are held for the commit protocol
      only; a conversion rejected by an abort votes "no".
    - Wound-wait (Section 2.3, [Rose78]): an older requester wounds each
      younger blocker — its coordinator aborts it unless it is already in
      the second phase of commit; a younger requester waits.
    - Wait-die ([Rose78], an extension): an older requester waits; a
      younger one dies before it is queued, so every wait edge points
      from older to younger and no deadlock can form.

    Restarts keep their original startup timestamp, so under wound-wait
    and wait-die every transaction eventually is the oldest and cannot
    starve. *)

open Ddbm_model

(* Local detection sees only this node's cycles; the algorithms that
   detect deadlocks rather than prevent them need Snoop for the rest. *)
let needs_snoop = function
  | Params.Twopl | Params.Twopl_defer | Params.O2pl -> true
  | Params.No_dc | Params.Wound_wait | Params.Bto | Params.Opt
  | Params.Wait_die ->
      false

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

let wound_younger (hooks : Cc_intf.hooks) (requester : Txn.t) blockers =
  List.iter
    (fun (blocker : Txn.t) ->
      if Txn.older requester blocker && not blocker.Txn.doomed then
        hooks.Cc_intf.request_abort blocker Txn.Wounded)
    blockers

let die_if_younger (requester : Txn.t) blockers =
  let must_die =
    List.exists
      (fun (blocker : Txn.t) ->
        (not blocker.Txn.doomed) && Txn.older blocker requester)
      blockers
  in
  if must_die then raise (Txn.Aborted Txn.Died)

let make algorithm (hooks : Cc_intf.hooks) : Cc_intf.node_cc =
  let blocking = Desim.Stats.Tally.create () in
  let locks = Lock_table.create hooks.Cc_intf.eng ~blocking in
  (* the attempt inside [Lock_table.request], which runs the policy
     callbacks before it returns or parks; they are built once, here *)
  let requester = ref (Txn.placeholder ()) in
  let pre_block, on_block =
    match algorithm with
    | Params.Twopl | Params.O2pl | Params.Twopl_defer ->
        (None, fun _ -> detect_local hooks locks !requester)
    | Params.Wound_wait ->
        (None, fun blockers -> wound_younger hooks !requester blockers)
    | Params.Wait_die ->
        (Some (fun blockers -> die_if_younger !requester blockers), ignore)
    | Params.No_dc | Params.Bto | Params.Opt ->
        invalid_arg
          ("Locking.make: " ^ Params.cc_algorithm_name algorithm
         ^ " is not lock-based")
  in
  let lock txn page mode =
    requester := txn;
    Lock_table.request ?pre_block locks txn page mode ~on_block
  in
  let acquire txn page mode =
    hooks.Cc_intf.charge_cc_request ();
    lock txn page mode
  in
  let release txn =
    Lock_table.release_all locks txn ~reject:(Txn.Aborted Txn.Peer_abort)
  in
  let manager =
    {
      Cc_intf.algorithm;
      cc_read = (fun txn page -> acquire txn page Lock_table.S);
      cc_write = (fun txn page -> acquire txn page Lock_table.X);
      cc_prepare = (fun txn -> not txn.Txn.doomed);
      cc_installed = (fun txn -> Lock_table.exclusive_pages locks txn);
      cc_commit = release;
      cc_abort = release;
      cc_edges = (fun () -> Lock_table.edges locks);
      cc_blocking = blocking;
    }
  in
  if algorithm <> Params.Twopl_defer then manager
  else begin
    let write_sets = Txn.Table.create 64 in
    let finish txn =
      Txn.Table.remove write_sets txn;
      release txn
    in
    {
      manager with
      (* the write is only noted; the exclusive lock comes at prepare *)
      cc_write =
        (fun txn page ->
          hooks.Cc_intf.charge_cc_request ();
          match Txn.Table.find_opt write_sets txn with
          | Some pages -> pages := page :: !pages
          | None -> Txn.Table.add write_sets txn (ref [ page ]));
      cc_prepare =
        (fun txn ->
          if txn.Txn.doomed then false
          else
            let pages =
              match Txn.Table.find_opt write_sets txn with
              | Some pages -> !pages
              | None -> []
            in
            try
              List.iter (fun page -> lock txn page Lock_table.X) pages;
              not txn.Txn.doomed
            with Txn.Aborted _ -> false);
      cc_commit = finish;
      cc_abort = finish;
    }
  end
