(* A deterministic walk through distributed deadlock handling, driving the
   concurrency control layer directly (no workload generator):

   1. Two transactions write-lock one page each on different "nodes", then
      request each other's page: a global deadlock that no single node can
      see.
   2. The rotating Snoop detector unions the per-node waits-for graphs,
      finds the cycle, and aborts the youngest transaction.
   3. Under wound-wait the same pattern never deadlocks: the older
      transaction wounds the younger one at request time.

   Run with:  dune exec examples/deadlock_demo.exe *)

open Desim
open Ddbm_model
open Ddbm_cc

let section title = Format.printf "@.=== %s ===@." title

let mk_hooks eng clock on_abort =
  {
    Cc_intf.eng;
    clock;
    charge_cc_request = (fun () -> ());
    request_abort =
      (fun txn reason ->
        if (not txn.Txn.doomed) && not (Txn.in_second_phase txn) then begin
          txn.Txn.doomed <- true;
          on_abort txn reason
        end);
  }

let mk_txn clock ~tid ~time =
  let ts = Timestamp.Clock.make clock ~time in
  {
    Txn.tid;
    attempt = 1;
    origin_time = time;
    attempt_time = time;
    startup_ts = ts;
    cc_ts = ts;
    commit_ts = None;
    plan = { Plan.relation = 0; cohorts = [] };
    phase = Txn.Working;
    doomed = false;
  }

let page index = Ids.Page.make ~file:0 ~index

let global_deadlock_demo () =
  section "2PL: global deadlock resolved by the Snoop";
  let eng = Engine.create () in
  let clock = Timestamp.Clock.create () in
  let aborted = Queue.create () in
  let hooks =
    mk_hooks eng clock (fun txn reason ->
        Queue.push (txn, reason) aborted;
        Format.printf "  t=%.3fs  Snoop aborts T%d (%s)@." (Engine.now eng)
          txn.Txn.tid
          (Txn.abort_reason_name reason))
  in
  (* two "nodes", each with its own 2PL manager *)
  let node0 = Locking.make Params.Twopl hooks
  and node1 = Locking.make Params.Twopl hooks in
  let t1 = mk_txn clock ~tid:1 ~time:0.0 in
  let t2 = mk_txn clock ~tid:2 ~time:0.1 in
  (* cohort processes: lock the local page, then reach for the remote one *)
  Engine.spawn eng (fun () ->
      node0.Cc_intf.cc_read t1 (page 0);
      node0.Cc_intf.cc_write t1 (page 0);
      Format.printf "  t=%.3fs  T1 holds page0 at node0@." (Engine.now eng);
      Engine.wait 0.2;
      Format.printf "  t=%.3fs  T1 requests page1 at node1...@." (Engine.now eng);
      (try
         node1.Cc_intf.cc_read t1 (page 1);
         Format.printf "  t=%.3fs  T1 granted page1@." (Engine.now eng)
       with Txn.Aborted _ -> Format.printf "  T1 aborted@."));
  Engine.spawn eng (fun () ->
      node1.Cc_intf.cc_read t2 (page 1);
      node1.Cc_intf.cc_write t2 (page 1);
      Format.printf "  t=%.3fs  T2 holds page1 at node1@." (Engine.now eng);
      Engine.wait 0.2;
      Format.printf "  t=%.3fs  T2 requests page0 at node0...@." (Engine.now eng);
      (try
         node0.Cc_intf.cc_read t2 (page 0);
         Format.printf "  t=%.3fs  T2 granted page0@." (Engine.now eng)
       with Txn.Aborted _ ->
         Format.printf "  t=%.3fs  T2's blocked request rejected: it aborts \
                        and releases@." (Engine.now eng)));
  (* a miniature Snoop: every second, union both nodes' waits-for graphs *)
  let cpus = Array.init 2 (fun _ -> Cpu.create eng ~rate:1_000_000.) in
  let net =
    Net.create ~eng ~inst_per_msg:1_000. ~cpu_of:(function
      | Ids.Proc i -> cpus.(i)
      | Ids.Host -> cpus.(0))
  in
  let edges_of = function
    | 0 -> node0.Cc_intf.cc_edges ()
    | _ -> node1.Cc_intf.cc_edges ()
  in
  let snoop =
    Snoop.create eng ~net ~num_nodes:2 ~detection_interval:1.0 ~edges_of
      ~request_abort:(fun ~from_node:_ txn reason ->
        hooks.Cc_intf.request_abort txn reason;
        (* deliver the abort: reject the victim's blocked requests *)
        node0.Cc_intf.cc_abort txn;
        node1.Cc_intf.cc_abort txn)
  in
  Snoop.start snoop;
  Engine.run ~until:3. eng;
  Format.printf "  => %d transaction(s) aborted; T1 proceeded@."
    (Queue.length aborted)

let wound_wait_demo () =
  section "Wound-wait: the same pattern cannot deadlock";
  let eng = Engine.create () in
  let clock = Timestamp.Clock.create () in
  let hooks =
    mk_hooks eng clock (fun txn reason ->
        Format.printf "  t=%.3fs  T%d is wounded (%s)@." (Engine.now eng)
          txn.Txn.tid
          (Txn.abort_reason_name reason))
  in
  let node0 = Locking.make Params.Wound_wait hooks
  and node1 = Locking.make Params.Wound_wait hooks in
  let t1 = mk_txn clock ~tid:1 ~time:0.0 (* older *) in
  let t2 = mk_txn clock ~tid:2 ~time:0.1 (* younger *) in
  Engine.spawn eng (fun () ->
      node0.Cc_intf.cc_read t1 (page 0);
      node0.Cc_intf.cc_write t1 (page 0);
      Engine.wait 0.2;
      Format.printf "  t=%.3fs  older T1 requests T2's page...@."
        (Engine.now eng);
      try
        node1.Cc_intf.cc_read t1 (page 1);
        Format.printf "  t=%.3fs  T1 granted after the wound completes@."
          (Engine.now eng)
      with Txn.Aborted _ -> assert false);
  Engine.spawn eng (fun () ->
      node1.Cc_intf.cc_read t2 (page 1);
      node1.Cc_intf.cc_write t2 (page 1);
      Engine.wait 0.2;
      Format.printf "  t=%.3fs  younger T2 requests T1's page: it waits@."
        (Engine.now eng);
      try node0.Cc_intf.cc_read t2 (page 0)
      with Txn.Aborted _ ->
        Format.printf "  t=%.3fs  T2's wait is cancelled by its own abort@."
          (Engine.now eng));
  (* doom propagation: when T2 is wounded, abort it at both nodes *)
  Engine.spawn eng (fun () ->
      let rec watch () =
        Engine.wait 0.05;
        if t2.Txn.doomed then begin
          node0.Cc_intf.cc_abort t2;
          node1.Cc_intf.cc_abort t2
        end
        else watch ()
      in
      watch ());
  Engine.run ~until:3. eng

let () =
  Format.printf "Distributed deadlock handling demo@.";
  global_deadlock_demo ();
  wound_wait_demo ();
  Format.printf "@.Done.@."
