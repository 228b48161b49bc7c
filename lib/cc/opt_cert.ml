(** Distributed timestamp-based optimistic concurrency control — the first
    (simpler) certification algorithm of [Sinh85] (Section 2.5).

    Cohorts read and write freely against local workspaces, remembering the
    version (write timestamp) of every item read. When all cohorts have
    reported back, the coordinator assigns the transaction a globally
    unique timestamp, carried on the "prepare to commit" message; each
    cohort then certifies its reads and writes in a critical section:

    - a read is certified iff (i) the version read is still current and
      (ii) no conflicting write with an earlier certification timestamp is
      locally certified but uncommitted (the transaction would have had to
      see it);
    - a write is certified iff (i) no read with a later timestamp has been
      certified and committed and (ii) no later read is locally certified.

    Conflicts are resolved purely by aborting the certifying transaction. *)

open Desim
open Ddbm_model
open Ids

type cert = { c_ts : Timestamp.t; c_txn : Txn.t }

type page_state = {
  mutable rts : Timestamp.t option;  (** max certified-and-committed read *)
  mutable wts : Timestamp.t option;  (** current installed version *)
  mutable cert_reads : cert list;  (** locally certified, uncommitted *)
  mutable cert_writes : cert list;
}

type workspace = {
  mutable reads : (Page.t * Timestamp.t option) list;
      (** page, version observed at read time *)
  mutable writes : Page.t list;
}

type t = {
  hooks : Cc_intf.hooks;
  pages : page_state Page_table.t;
  workspaces : workspace Txn.Table.t;
}

let create hooks =
  { hooks; pages = Page_table.create 512; workspaces = Txn.Table.create 64 }

let state_of t page =
  match Page_table.find_opt t.pages page with
  | Some s -> s
  | None ->
      let s = { rts = None; wts = None; cert_reads = []; cert_writes = [] } in
      Page_table.add t.pages page s;
      s

let workspace_of t txn =
  match Txn.Table.find_opt t.workspaces txn with
  | Some w -> w
  | None ->
      let w = { reads = []; writes = [] } in
      Txn.Table.add t.workspaces txn w;
      w

let cc_read t txn page =
  t.hooks.Cc_intf.charge_cc_request ();
  let ws = workspace_of t txn in
  let state = state_of t page in
  ws.reads <- (page, state.wts) :: ws.reads

let cc_write t txn page =
  t.hooks.Cc_intf.charge_cc_request ();
  let ws = workspace_of t txn in
  ws.writes <- page :: ws.writes

let version_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Timestamp.equal x y
  | None, Some _ | Some _, None -> false

let certify t txn =
  match txn.Txn.commit_ts with
  | None -> invalid_arg "Opt_cert.certify: commit timestamp not assigned"
  | Some ts ->
      let ws = workspace_of t txn in
      let read_ok (page, version) =
        let state = state_of t page in
        version_equal state.wts version
        && not
             (List.exists
                (fun c ->
                  (not (Txn.same_attempt c.c_txn txn))
                  && Timestamp.compare c.c_ts ts < 0)
                state.cert_writes)
      in
      let write_ok page =
        let state = state_of t page in
        (match state.rts with
        | Some r -> Timestamp.compare r ts <= 0
        | None -> true)
        && not
             (List.exists
                (fun c ->
                  (not (Txn.same_attempt c.c_txn txn))
                  && Timestamp.compare c.c_ts ts > 0)
                state.cert_reads)
      in
      if List.for_all read_ok ws.reads && List.for_all write_ok ws.writes
      then begin
        let cert = { c_ts = ts; c_txn = txn } in
        List.iter
          (fun (page, _) ->
            let state = state_of t page in
            state.cert_reads <- cert :: state.cert_reads)
          ws.reads;
        List.iter
          (fun page ->
            let state = state_of t page in
            state.cert_writes <- cert :: state.cert_writes)
          ws.writes;
        true
      end
      else false

let drop_certs t txn =
  let not_mine c = not (Txn.same_attempt c.c_txn txn) in
  let ws = workspace_of t txn in
  let scrub page =
    match Page_table.find_opt t.pages page with
    | None -> ()
    | Some state ->
        state.cert_reads <- List.filter not_mine state.cert_reads;
        state.cert_writes <- List.filter not_mine state.cert_writes
  in
  List.iter (fun (page, _) -> scrub page) ws.reads;
  List.iter scrub ws.writes

let cc_commit t txn =
  (match txn.Txn.commit_ts with
  | None -> invalid_arg "Opt_cert.commit: commit timestamp not assigned"
  | Some ts ->
      let ws = workspace_of t txn in
      List.iter
        (fun (page, _) ->
          let state = state_of t page in
          state.rts <-
            Some
              (match state.rts with
              | Some r -> Timestamp.max r ts
              | None -> ts))
        ws.reads;
      List.iter
        (fun page ->
          let state = state_of t page in
          state.wts <-
            Some
              (match state.wts with
              | Some w -> Timestamp.max w ts
              | None -> ts))
        ws.writes);
  drop_certs t txn;
  Txn.Table.remove t.workspaces txn

let cc_abort t txn =
  drop_certs t txn;
  Txn.Table.remove t.workspaces txn

(* Writes that will actually move the installed version forward: commits
   with a certification timestamp older than the current version are
   dropped Thomas-style by the max() install. *)
let cc_installed t txn =
  match txn.Txn.commit_ts with
  | None -> []
  | Some ts ->
      let ws = workspace_of t txn in
      List.filter
        (fun page ->
          match (state_of t page).wts with
          | Some w -> Timestamp.compare ts w > 0
          | None -> true)
        ws.writes

let make (hooks : Cc_intf.hooks) : Cc_intf.node_cc =
  let t = create hooks in
  {
    algorithm = Params.Opt;
    cc_read = (fun txn page -> cc_read t txn page);
    cc_write = (fun txn page -> cc_write t txn page);
    cc_prepare =
      (fun txn -> if txn.Txn.doomed then false else certify t txn);
    cc_installed = (fun txn -> cc_installed t txn);
    cc_commit = (fun txn -> cc_commit t txn);
    cc_abort = (fun txn -> cc_abort t txn);
    cc_edges = (fun () -> []);
    cc_blocking = Stats.Tally.create ();
  }
