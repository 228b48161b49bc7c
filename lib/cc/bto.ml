(** Basic timestamp ordering (Section 2.4, [Bern80b, Bern81]).

    Every page carries a read timestamp and a write timestamp. Accesses
    must occur in timestamp order or the requester aborts, except that
    write-write conflicts apply the Thomas write rule. Writers keep their
    updates in a private workspace until commit: granted writes queue in
    timestamp order without blocking the writer and are installed as the
    writers commit; accepted reads that would see a pending (uncommitted)
    earlier write block until that write becomes visible at commit time.

    Restarted transactions draw a fresh timestamp (otherwise an aborted
    transaction's ever-older timestamp would doom it forever). *)

open Desim
open Ddbm_model
open Ids

type pending_write = {
  pw_txn : Txn.t;
  pw_ts : Timestamp.t;
  mutable pw_committed : bool;
}

type waiting_read = {
  wr_txn : Txn.t;
  wr_ts : Timestamp.t;
  wr_resolver : Engine.resolver;
  wr_enqueued : float;
}

type page_state = {
  mutable rts : Timestamp.t option;
  mutable wts : Timestamp.t option;
  mutable pending : pending_write list;  (** ascending timestamp order *)
  mutable waiting : waiting_read list;  (** ascending timestamp order *)
}

type t = {
  hooks : Cc_intf.hooks;
  blocking : Stats.Tally.t;
  pages : page_state Page_table.t;
  footprint : Page.t list ref Txn.Table.t;
}

let create hooks ~blocking =
  {
    hooks;
    blocking;
    pages = Page_table.create 512;
    footprint = Txn.Table.create 64;
  }

let state_of t page =
  match Page_table.find_opt t.pages page with
  | Some s -> s
  | None ->
      let s = { rts = None; wts = None; pending = []; waiting = [] } in
      Page_table.add t.pages page s;
      s

let note_footprint t txn page =
  match Txn.Table.find_opt t.footprint txn with
  | Some pages ->
      if not (List.exists (Page.equal page) !pages) then pages := page :: !pages
  | None -> Txn.Table.add t.footprint txn (ref [ page ])

let ts_lt a b = Timestamp.compare a b < 0
let opt_gt opt ts = match opt with Some o -> ts_lt ts o | None -> false

(** An uncommitted-or-uninstalled pending write older than [ts] forces a
    reader at [ts] to wait. *)
let must_wait state ts =
  List.exists (fun pw -> ts_lt pw.pw_ts ts) state.pending

(** Install committed pending writes in timestamp order from the head, then
    wake now-eligible readers. *)
let settle t state =
  let rec install () =
    match state.pending with
    | pw :: rest when pw.pw_committed ->
        state.wts <-
          Some
            (match state.wts with
            | Some w -> Timestamp.max w pw.pw_ts
            | None -> pw.pw_ts);
        state.pending <- rest;
        install ()
    | _ -> ()
  in
  install ();
  let ready, still =
    List.partition (fun wr -> not (must_wait state wr.wr_ts)) state.waiting
  in
  state.waiting <- still;
  List.iter
    (fun wr ->
      state.rts <-
        Some
          (match state.rts with
          | Some r -> Timestamp.max r wr.wr_ts
          | None -> wr.wr_ts);
      Stats.Tally.add t.blocking (Engine.now t.hooks.Cc_intf.eng -. wr.wr_enqueued);
      Engine.resolve wr.wr_resolver)
    ready

let insert_sorted_pending state pw =
  let rec go = function
    | [] -> [ pw ]
    | p :: rest ->
        if ts_lt pw.pw_ts p.pw_ts then pw :: p :: rest else p :: go rest
  in
  state.pending <- go state.pending

let insert_sorted_waiting state wr =
  let rec go = function
    | [] -> [ wr ]
    | w :: rest ->
        if ts_lt wr.wr_ts w.wr_ts then wr :: w :: rest else w :: go rest
  in
  state.waiting <- go state.waiting

let cc_read t (txn : Txn.t) page =
  t.hooks.Cc_intf.charge_cc_request ();
  let ts = txn.Txn.cc_ts in
  let state = state_of t page in
  if opt_gt state.wts ts then raise (Txn.Aborted Txn.Bto_conflict);
  note_footprint t txn page;
  if must_wait state ts then
    Engine.suspend (fun (r : Engine.resolver) ->
        insert_sorted_waiting state
          {
            wr_txn = txn;
            wr_ts = ts;
            wr_resolver = r;
            wr_enqueued = Engine.now t.hooks.Cc_intf.eng;
          })
  else
    state.rts <-
      Some
        (match state.rts with
        | Some r -> Timestamp.max r ts
        | None -> ts)

let cc_write t (txn : Txn.t) page =
  t.hooks.Cc_intf.charge_cc_request ();
  let ts = txn.Txn.cc_ts in
  let state = state_of t page in
  if opt_gt state.rts ts then raise (Txn.Aborted Txn.Bto_conflict);
  if opt_gt state.wts ts then
    (* Thomas write rule: a logically overwritten write is simply dropped *)
    ()
  else begin
    note_footprint t txn page;
    insert_sorted_pending state
      { pw_txn = txn; pw_ts = ts; pw_committed = false }
  end

let for_footprint t txn f =
  match Txn.Table.find_opt t.footprint txn with
  | None -> ()
  | Some pages -> List.iter f !pages

(* Pages with a pending write of [txn]: exactly the installs its commit
   will perform (Thomas-rule dropped writes never became pending). *)
let cc_installed t txn =
  let acc = ref [] in
  for_footprint t txn (fun page ->
      match Page_table.find_opt t.pages page with
      | None -> ()
      | Some state ->
          if
            List.exists (fun pw -> Txn.same_attempt pw.pw_txn txn) state.pending
          then acc := page :: !acc);
  !acc

let cc_commit t txn =
  for_footprint t txn (fun page ->
      match Page_table.find_opt t.pages page with
      | None -> ()
      | Some state ->
          List.iter
            (fun pw ->
              if Txn.same_attempt pw.pw_txn txn then pw.pw_committed <- true)
            state.pending;
          settle t state);
  Txn.Table.remove t.footprint txn

let cc_abort t txn =
  for_footprint t txn (fun page ->
      match Page_table.find_opt t.pages page with
      | None -> ()
      | Some state ->
          state.pending <-
            List.filter
              (fun pw -> not (Txn.same_attempt pw.pw_txn txn))
              state.pending;
          let mine, rest =
            List.partition
              (fun wr -> Txn.same_attempt wr.wr_txn txn)
              state.waiting
          in
          state.waiting <- rest;
          List.iter
            (fun wr ->
              Engine.reject wr.wr_resolver (Txn.Aborted Txn.Peer_abort))
            mine;
          settle t state);
  Txn.Table.remove t.footprint txn

(** Readers blocked behind pending writes wait for those writers: these are
    genuine waits-for edges and are reported for completeness (the Snoop
    detector only runs under 2PL, but tests exercise this). *)
let edges t =
  Page_table.fold
    (fun _ state acc ->
      List.fold_left
        (fun acc wr ->
          List.fold_left
            (fun acc pw ->
              if ts_lt pw.pw_ts wr.wr_ts then
                { Cc_intf.waiter = wr.wr_txn; holder = pw.pw_txn } :: acc
              else acc)
            acc state.pending)
        acc state.waiting)
    t.pages []
  |> List.sort Cc_intf.compare_edge

let make (hooks : Cc_intf.hooks) : Cc_intf.node_cc =
  let blocking = Stats.Tally.create () in
  let t = create hooks ~blocking in
  {
    algorithm = Params.Bto;
    cc_read = (fun txn page -> cc_read t txn page);
    cc_write = (fun txn page -> cc_write t txn page);
    cc_prepare = (fun txn -> not txn.Txn.doomed);
    cc_installed = (fun txn -> cc_installed t txn);
    cc_commit = (fun txn -> cc_commit t txn);
    cc_abort = (fun txn -> cc_abort t txn);
    cc_edges = (fun () -> edges t);
    cc_blocking = blocking;
  }
