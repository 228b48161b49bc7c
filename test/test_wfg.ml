open Ddbm_cc
open Ddbm_model

let mk_cycle_graph h txns edges =
  let g = Wfg.create () in
  List.iter
    (fun (w, ho) ->
      Wfg.add_edge g ~waiter:(List.nth txns w) ~holder:(List.nth txns ho))
    edges;
  ignore h;
  g

let test_two_cycle () =
  let h = Cc_harness.make () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let g = mk_cycle_graph h [ t0; t1 ] [ (0, 1); (1, 0) ] in
  match Wfg.find_cycle_through g t0 with
  | Some cycle ->
      Alcotest.(check int) "cycle length" 2 (List.length cycle);
      let victim = Wfg.youngest cycle in
      Alcotest.(check int) "youngest is t1" 1 victim.Txn.tid
  | None -> Alcotest.fail "cycle not found"

let test_no_cycle () =
  let h = Cc_harness.make () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let g = mk_cycle_graph h [ t0; t1; t2 ] [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "acyclic" true
    (Wfg.find_cycle_through g t0 = None)

let test_three_cycle_via_middle () =
  let h = Cc_harness.make () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let g = mk_cycle_graph h [ t0; t1; t2 ] [ (0, 1); (1, 2); (2, 0) ] in
  (match Wfg.find_cycle_through g t1 with
  | Some cycle -> Alcotest.(check int) "3-cycle" 3 (List.length cycle)
  | None -> Alcotest.fail "cycle not found");
  let victims = Wfg.break_all_cycles g in
  Alcotest.(check int) "one victim" 1 (List.length victims);
  Alcotest.(check int) "victim is youngest (t2)" 2 (List.hd victims).Txn.tid

let test_doomed_breaks_cycle () =
  let h = Cc_harness.make () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  t1.Txn.doomed <- true;
  let g = mk_cycle_graph h [ t0; t1 ] [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "doomed vertex breaks cycle" true
    (Wfg.find_cycle_through g t0 = None);
  Alcotest.(check int) "no victims" 0 (List.length (Wfg.break_all_cycles g))

let test_self_edges_ignored () =
  let h = Cc_harness.make () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let g = Wfg.create () in
  Wfg.add_edge g ~waiter:t0 ~holder:t0;
  Alcotest.(check bool) "self edge dropped" true
    (Wfg.find_cycle_through g t0 = None)

let test_two_disjoint_cycles () =
  let h = Cc_harness.make () in
  let txns = List.init 4 (fun i -> Cc_harness.txn h ~tid:i ~time:(float_of_int i) ()) in
  let g = mk_cycle_graph h txns [ (0, 1); (1, 0); (2, 3); (3, 2) ] in
  let victims = Wfg.break_all_cycles g in
  Alcotest.(check int) "two victims" 2 (List.length victims);
  let tids = List.sort Int.compare (List.map (fun (t : Txn.t) -> t.Txn.tid) victims) in
  Alcotest.(check (list int)) "youngest of each" [ 1; 3 ] tids

let test_of_edges () =
  let h = Cc_harness.make () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let g =
    Wfg.of_edges
      [
        { Cc_intf.waiter = t0; holder = t1 };
        { Cc_intf.waiter = t1; holder = t0 };
      ]
  in
  Alcotest.(check bool) "cycle from edge list" true
    (Wfg.find_cycle_through g t0 <> None)

let prop_break_all_yields_acyclic =
  QCheck.Test.make ~name:"break_all_cycles leaves graph acyclic" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) (pair (int_range 0 9) (int_range 0 9)))
    (fun edge_specs ->
      let h = Cc_harness.make () in
      let txns =
        Array.init 10 (fun i -> Cc_harness.txn h ~tid:i ~time:(float_of_int i) ())
      in
      let g = Wfg.create () in
      List.iter
        (fun (w, ho) -> Wfg.add_edge g ~waiter:txns.(w) ~holder:txns.(ho))
        edge_specs;
      let victims = Wfg.break_all_cycles g in
      (* mark victims doomed and verify no cycle remains *)
      List.iter (fun (v : Txn.t) -> v.Txn.doomed <- true) victims;
      Array.for_all
        (fun t ->
          Wfg.find_cycle_through g t = None)
        txns)

let suite =
  [
    Alcotest.test_case "2-cycle + youngest victim" `Quick test_two_cycle;
    Alcotest.test_case "no cycle" `Quick test_no_cycle;
    Alcotest.test_case "3-cycle via middle" `Quick test_three_cycle_via_middle;
    Alcotest.test_case "doomed breaks cycle" `Quick test_doomed_breaks_cycle;
    Alcotest.test_case "self edges ignored" `Quick test_self_edges_ignored;
    Alcotest.test_case "disjoint cycles" `Quick test_two_disjoint_cycles;
    Alcotest.test_case "of_edges" `Quick test_of_edges;
    QCheck_alcotest.to_alcotest prop_break_all_yields_acyclic;
  ]
