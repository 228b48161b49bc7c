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

(* The deadlock properties' case count: DDBM_DEADLOCK_CASES, else 300. *)
let deadlock_cases () =
  match Sys.getenv_opt "DDBM_DEADLOCK_CASES" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

module Ref = Lock_table_ref.Wfg

(* A Snoop round's waits-for graph: [n] attempts, some of them second
   attempts sharing their first attempt's startup timestamp (so cycles
   can hold equally young members), some doomed before the round; and
   edges spread over [nodes] nodes, each node's list sorted as
   [Lock_table.edges] sorts it, the lists concatenated in reply order. *)
type round = {
  n : int;
  second : int list;  (** attempts that restart the one before them *)
  doomed : int list;
  nodes : (int * int) list list;  (** per node, unsorted *)
}

let pp_round r =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "n=%d second=[%s] doomed=[%s] nodes=%s" r.n (ints r.second)
    (ints r.doomed)
    (String.concat " | "
       (List.map
          (fun es ->
            String.concat " "
              (List.map (fun (w, h) -> Printf.sprintf "%d->%d" w h) es))
          r.nodes))

let gen_round =
  QCheck.Gen.(
    int_range 10 40 >>= fun n ->
    let attempt = int_range 0 (n - 1) in
    int_range 1 4 >>= fun k ->
    int_range 0 80 >>= fun m ->
    map3
      (fun second doomed edges ->
        let nodes =
          List.init k (fun j ->
              List.filteri (fun i _ -> i mod k = j) edges)
        in
        { n; second; doomed; nodes })
      (list_size (int_range 0 (n / 4)) attempt)
      (list_size (int_range 0 3) attempt)
      (list_repeat m (pair attempt attempt)))

let round_txns h r =
  let txns = Array.make r.n (Txn.placeholder ()) in
  for i = 0 to r.n - 1 do
    txns.(i) <-
      (if i > 0 && List.mem i r.second then
         { (txns.(i - 1)) with Txn.attempt = txns.(i - 1).Txn.attempt + 1 }
       else Cc_harness.txn h ~tid:i ~time:(float_of_int (i mod 7)) ())
  done;
  List.iter (fun i -> txns.(i).Txn.doomed <- true) r.doomed;
  txns

let round_edges txns r =
  List.concat_map
    (fun es ->
      List.map (fun (w, h) -> { Cc_intf.waiter = txns.(w); holder = txns.(h) }) es
      |> List.sort Cc_intf.compare_edge)
    r.nodes

let attempts = List.map (fun (t : Txn.t) -> (t.Txn.tid, t.Txn.attempt))

let arb_round = QCheck.make ~print:pp_round gen_round

(* The forward scan victimizes what the reference, which restarts from
   the first vertex after every victim, victimizes, in the same order. *)
let prop_victims_match_restart_scan =
  QCheck.Test.make ~name:"break_all_cycles victims match the restart scan"
    ~count:(deadlock_cases ()) arb_round (fun r ->
      let h = Cc_harness.make () in
      let edges = round_edges (round_txns h r) r in
      attempts (Wfg.break_all_cycles (Wfg.of_edges edges))
      = attempts (Ref.break_all_cycles (Ref.of_edges edges)))

(* From every attempt, the stamp-marked search finds the cycle the
   closure-driven reference search finds. *)
let prop_cycles_match_reference =
  QCheck.Test.make ~name:"find_cycle_through matches the reference search"
    ~count:(deadlock_cases ()) arb_round (fun r ->
      let h = Cc_harness.make () in
      let txns = round_txns h r in
      let edges = round_edges txns r in
      let g = Wfg.of_edges edges and reference = Ref.of_edges edges in
      Array.for_all
        (fun t ->
          Option.map attempts (Wfg.find_cycle_through g t)
          = Option.map attempts (Ref.find_cycle_through reference t))
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
    QCheck_alcotest.to_alcotest prop_victims_match_restart_scan;
    QCheck_alcotest.to_alcotest prop_cycles_match_reference;
  ]
