(* Snoop global deadlock detector tests: cross-node cycle detection,
   victim selection, rotation, and message accounting. *)

open Desim
open Ddbm_cc
open Ddbm_model

type fixture = {
  h : Cc_harness.t;
  net : Net.t;
  node_edges : Cc_intf.edge list array;
  victims : (Txn.t * Txn.abort_reason) list ref;
  snoop : Snoop.t;
}

let mk ?(num_nodes = 3) ?(inst_per_msg = 1_000.) () =
  let h = Cc_harness.make () in
  let eng = h.Cc_harness.eng in
  let cpus =
    Array.init num_nodes (fun _ -> Cpu.create eng ~rate:1_000_000.)
  in
  let host_cpu = Cpu.create eng ~rate:10_000_000. in
  let cpu_of = function
    | Ids.Host -> host_cpu
    | Ids.Proc i -> cpus.(i)
  in
  let net = Net.create ~eng ~inst_per_msg ~cpu_of in
  let node_edges = Array.make num_nodes [] in
  let victims = ref [] in
  let snoop =
    Snoop.create eng ~net ~num_nodes ~detection_interval:1.0
      ~edges_of:(fun i -> node_edges.(i))
      ~request_abort:(fun ~from_node:_ txn reason ->
        if not txn.Txn.doomed then begin
          txn.Txn.doomed <- true;
          victims := (txn, reason) :: !victims
        end)
  in
  { h; net; node_edges; victims; snoop }

let test_cross_node_cycle () =
  let f = mk () in
  let t0 = Cc_harness.txn f.h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn f.h ~tid:1 ~time:1. () in
  (* t0 waits for t1 at node 0; t1 waits for t0 at node 2 *)
  f.node_edges.(0) <- [ { Cc_intf.waiter = t0; holder = t1 } ];
  f.node_edges.(2) <- [ { Cc_intf.waiter = t1; holder = t0 } ];
  Engine.spawn f.h.Cc_harness.eng (fun () ->
      Snoop.detection_round f.snoop ~snoop_node:0);
  Cc_harness.settle f.h;
  (match !(f.victims) with
  | [ (victim, Txn.Global_deadlock) ] ->
      Alcotest.(check int) "youngest victimized" 1 victim.Txn.tid
  | _ -> Alcotest.fail "expected exactly one global-deadlock victim");
  Alcotest.(check bool) "messages exchanged" true (Net.messages_sent f.net > 0)

let test_no_cycle_no_victim () =
  let f = mk () in
  let t0 = Cc_harness.txn f.h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn f.h ~tid:1 ~time:1. () in
  f.node_edges.(0) <- [ { Cc_intf.waiter = t0; holder = t1 } ];
  Engine.spawn f.h.Cc_harness.eng (fun () ->
      Snoop.detection_round f.snoop ~snoop_node:1);
  Cc_harness.settle f.h;
  Alcotest.(check int) "no victims" 0 (List.length !(f.victims))

let test_local_cycle_found_globally () =
  (* the Snoop also sees single-node cycles that escaped local detection *)
  let f = mk () in
  let t0 = Cc_harness.txn f.h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn f.h ~tid:1 ~time:1. () in
  f.node_edges.(1) <-
    [
      { Cc_intf.waiter = t0; holder = t1 };
      { Cc_intf.waiter = t1; holder = t0 };
    ];
  Engine.spawn f.h.Cc_harness.eng (fun () ->
      Snoop.detection_round f.snoop ~snoop_node:0);
  Cc_harness.settle f.h;
  Alcotest.(check int) "one victim" 1 (List.length !(f.victims))

let test_rotation_runs_rounds () =
  let f = mk ~num_nodes:2 () in
  Snoop.start f.snoop;
  Engine.run ~until:5.5 f.h.Cc_harness.eng;
  (* with a 1 s dwell per node, about 5 rounds fit in 5.5 s *)
  let rounds = Snoop.rounds f.snoop in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d in [4,6]" rounds)
    true
    (rounds >= 4 && rounds <= 6)

let test_doomed_not_revictimized () =
  let f = mk () in
  let t0 = Cc_harness.txn f.h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn f.h ~tid:1 ~time:1. () in
  t1.Txn.doomed <- true;
  f.node_edges.(0) <- [ { Cc_intf.waiter = t0; holder = t1 } ];
  f.node_edges.(1) <- [ { Cc_intf.waiter = t1; holder = t0 } ];
  Engine.spawn f.h.Cc_harness.eng (fun () ->
      Snoop.detection_round f.snoop ~snoop_node:0);
  Cc_harness.settle f.h;
  Alcotest.(check int) "already-doomed cycle ignored" 0
    (List.length !(f.victims))

let test_message_cost_charged () =
  let f = mk ~num_nodes:3 ~inst_per_msg:1_000. () in
  Engine.spawn f.h.Cc_harness.eng (fun () ->
      Snoop.detection_round f.snoop ~snoop_node:0);
  Cc_harness.settle f.h;
  (* 2 remote nodes x (request + reply) = 4 messages *)
  Alcotest.(check int) "four messages" 4 (Net.messages_sent f.net);
  (* each message costs 1 ms at 1 MIPS on each end; collection needs two
     sequential hops *)
  Alcotest.(check bool) "took simulated time" true
    (Engine.now f.h.Cc_harness.eng >= 0.002)

(* A small contended 2PL run: 4 nodes, 32 terminals with no think time,
   30-page files, every page read updated (so conversion deadlocks
   form at one node). Its aborts are local and Snoop (global) deadlock
   victims; the digests count them, this test pins which they are. *)
let contended_params =
  let d = Params.default in
  {
    d with
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 4;
        partitioning_degree = 4;
        file_size = 30;
      };
    workload =
      {
        d.Params.workload with
        Params.think_time = 0.;
        num_terminals = 32;
        write_prob = 1.0;
      };
    cc = { d.Params.cc with Params.algorithm = Params.Twopl };
    run =
      {
        Params.seed = 5;
        warmup = 0.;
        measure = 10.;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
  }

(* Every abort of the run, in order, as [tid.attempt reason]. *)
let run_aborts () =
  let m = Ddbm.Machine.create contended_params in
  let aborts = ref [] in
  Tracer.attach (Ddbm.Machine.enable_events m) (fun ~time:_ ev ->
      match ev with
      | Event.Aborted { tid; attempt; reason } ->
          aborts :=
            Printf.sprintf "%d.%d %s" tid attempt (Txn.abort_reason_name reason)
            :: !aborts
      | _ -> ());
  ignore (Ddbm.Machine.execute m : Ddbm.Sim_result.t);
  List.rev !aborts

(* The aborts of [contended_params] as the closure-driven search and the
   restarting Snoop scan chose them: 41 Snoop and 15 local victims. *)
let pinned_aborts =
  [
    "29.1 global-deadlock"; "23.1 global-deadlock"; "22.1 global-deadlock";
    "19.1 global-deadlock"; "15.1 global-deadlock"; "7.1 global-deadlock";
    "2.1 global-deadlock"; "6.1 global-deadlock"; "14.1 global-deadlock";
    "21.1 global-deadlock"; "1.1 global-deadlock"; "30.1 global-deadlock";
    "11.1 global-deadlock"; "3.1 local-deadlock"; "26.1 global-deadlock";
    "27.1 global-deadlock"; "13.1 global-deadlock"; "25.1 global-deadlock";
    "31.1 global-deadlock"; "5.1 global-deadlock"; "15.2 local-deadlock";
    "18.1 local-deadlock"; "10.1 global-deadlock"; "9.1 local-deadlock";
    "22.2 local-deadlock"; "3.2 local-deadlock"; "23.2 local-deadlock";
    "15.3 local-deadlock"; "32.1 global-deadlock"; "34.1 global-deadlock";
    "33.1 global-deadlock"; "2.2 global-deadlock"; "31.2 local-deadlock";
    "30.2 local-deadlock"; "35.1 local-deadlock"; "7.2 local-deadlock";
    "14.2 global-deadlock"; "11.2 global-deadlock"; "37.1 global-deadlock";
    "38.1 global-deadlock"; "39.1 global-deadlock"; "27.2 global-deadlock";
    "36.1 global-deadlock"; "26.2 global-deadlock"; "40.1 global-deadlock";
    "41.1 global-deadlock"; "10.2 local-deadlock"; "33.2 global-deadlock";
    "42.1 global-deadlock"; "35.2 local-deadlock"; "31.3 global-deadlock";
    "43.1 global-deadlock"; "15.4 local-deadlock"; "46.1 global-deadlock";
    "34.2 global-deadlock"; "45.1 global-deadlock"
  ]

let test_run_victims_pinned () =
  Alcotest.(check (list string)) "aborts in order" pinned_aborts (run_aborts ())

let suite =
  [
    Alcotest.test_case "cross-node cycle" `Quick test_cross_node_cycle;
    Alcotest.test_case "no cycle, no victim" `Quick test_no_cycle_no_victim;
    Alcotest.test_case "local cycle found globally" `Quick
      test_local_cycle_found_globally;
    Alcotest.test_case "rotation runs rounds" `Quick test_rotation_runs_rounds;
    Alcotest.test_case "doomed not re-victimized" `Quick
      test_doomed_not_revictimized;
    Alcotest.test_case "message cost charged" `Quick test_message_cost_charged;
    Alcotest.test_case "whole-run deadlock victims pinned" `Quick
      test_run_victims_pinned;
  ]
