(* Replicated-data tests: copy placement, plan construction with replica
   application duties, end-to-end replicated runs (including the O2PL
   message saving), and serializability under replication. *)

open Ddbm_model

let db ?(nodes = 8) ?(degree = 8) ?(replication = 1) () =
  {
    Params.default.Params.database with
    Params.num_proc_nodes = nodes;
    partitioning_degree = degree;
    replication;
  }

let test_copy_nodes_distinct () =
  let c = Catalog.create (db ~replication:3 ()) in
  for file = 0 to Catalog.num_files c - 1 do
    let copies = Catalog.copy_nodes c ~file in
    Alcotest.(check int) "three copies" 3 (List.length copies);
    Alcotest.(check int) "distinct nodes" 3
      (List.length (List.sort_uniq Int.compare copies));
    (* primary first *)
    match (Catalog.node_of c ~file, copies) with
    | Ids.Proc p, first :: _ -> Alcotest.(check int) "primary first" p first
    | _ -> Alcotest.fail "host cannot hold copies"
  done

let test_no_replication_single_copy () =
  let c = Catalog.create (db ()) in
  Alcotest.(check int) "one copy" 1
    (List.length (Catalog.copy_nodes c ~file:5))

let test_replication_validated () =
  let params =
    { Params.default with Params.database = db ~nodes:2 ~degree:2 ~replication:3 () }
  in
  match Params.validate params with
  | Ok () -> Alcotest.fail "replication > nodes must be rejected"
  | Error _ -> ()

let mk_workload ~replication =
  let params =
    { Params.default with Params.database = db ~replication () }
  in
  let catalog = Catalog.create params.Params.database in
  (catalog, Workload.create params catalog (Desim.Rng.create 17))

let test_plan_apply_ops_cover_copies () =
  let catalog, w = mk_workload ~replication:2 in
  for terminal = 0 to 31 do
    let plan = Workload.generate_plan w ~terminal in
    (* every update must appear as an apply op at every non-primary copy *)
    let applies =
      List.concat_map
        (fun (c : Plan.cohort_plan) ->
          List.map (fun p -> (c.Plan.node, p)) c.Plan.apply_ops)
        plan.Plan.cohorts
    in
    List.iter
      (fun (c : Plan.cohort_plan) ->
        Array.iter
          (fun op ->
            if Plan.update op then
              List.iter
                (fun copy_node ->
                  if copy_node <> c.Plan.node then
                    Alcotest.(check bool)
                      "copy site has the apply op" true
                      (List.exists
                         (fun (n, p) ->
                           n = copy_node && Ids.Page.equal p (Plan.page op))
                         applies))
                (Catalog.copy_nodes catalog ~file:(Ids.Page.file (Plan.page op))))
          c.Plan.ops)
      plan.Plan.cohorts;
    (* and apply counts match: each update has (replication - 1) applies *)
    Alcotest.(check int) "apply count"
      (Plan.total_writes plan)
      (Plan.total_replica_applies plan)
  done

let test_plan_no_applies_without_replication () =
  let _, w = mk_workload ~replication:1 in
  let plan = Workload.generate_plan w ~terminal:7 in
  Alcotest.(check int) "no applies" 0 (Plan.total_replica_applies plan)

let replicated_params ?(algorithm = Params.Twopl) ?(replication = 2)
    ?(inst_per_msg = 1000.) () =
  let d = Params.default in
  {
    Params.database =
      { (db ~nodes:4 ~degree:4 ~replication ()) with Params.file_size = 80 };
    workload =
      { d.Params.workload with Params.think_time = 1.; num_terminals = 32 };
    resources = { d.Params.resources with Params.inst_per_msg };
    cc = { d.Params.cc with Params.algorithm };
    run =
      { Params.seed = 9; warmup = 10.; measure = 50.;
        restart_delay_floor = 0.5; fresh_restart_plan = false };
      durability = Params.default_durability;
      faults = Fault_plan.zero;
      arrivals = Arrival.zero;
  }

let test_replicated_runs_all_algorithms () =
  List.iter
    (fun algorithm ->
      let r = Ddbm.Machine.run (replicated_params ~algorithm ()) in
      Alcotest.(check bool)
        (Params.cc_algorithm_name algorithm ^ " commits under replication")
        true
        (r.Ddbm.Sim_result.commits > 0))
    [
      Params.No_dc; Params.Twopl; Params.O2pl; Params.Wound_wait; Params.Bto;
      Params.Opt; Params.Wait_die; Params.Twopl_defer;
    ]

let test_o2pl_saves_messages () =
  let msgs algorithm =
    (Ddbm.Machine.run (replicated_params ~algorithm ~replication:3 ()))
      .Ddbm.Sim_result.messages
  in
  let m2pl = msgs Params.Twopl and mo2pl = msgs Params.O2pl in
  Alcotest.(check bool)
    (Printf.sprintf "O2PL (%d) sends far fewer messages than 2PL (%d)" mo2pl
       m2pl)
    true
    (float_of_int mo2pl < 0.75 *. float_of_int m2pl)

let test_replication_increases_messages_for_2pl () =
  let msgs replication =
    (Ddbm.Machine.run (replicated_params ~algorithm:Params.Twopl ~replication ()))
      .Ddbm.Sim_result.messages
  in
  Alcotest.(check bool) "write-all messages" true (msgs 3 > msgs 1)

let test_replicated_histories_serializable () =
  List.iter
    (fun algorithm ->
      let machine = Ddbm.Machine.create (replicated_params ~algorithm ()) in
      let audit = Ddbm.Machine.enable_audit machine in
      let result = Ddbm.Machine.execute machine in
      Alcotest.(check bool) "commits" true (result.Ddbm.Sim_result.commits > 0);
      match Ddbm.Audit.check audit with
      | Ok _ -> ()
      | Error msg ->
          Alcotest.fail (Params.cc_algorithm_name algorithm ^ ": " ^ msg))
    [ Params.Twopl; Params.O2pl; Params.Bto; Params.Opt; Params.Wound_wait ]

let suite =
  [
    Alcotest.test_case "copy nodes distinct" `Quick test_copy_nodes_distinct;
    Alcotest.test_case "single copy without replication" `Quick
      test_no_replication_single_copy;
    Alcotest.test_case "replication validated" `Quick test_replication_validated;
    Alcotest.test_case "plan applies cover copies" `Quick
      test_plan_apply_ops_cover_copies;
    Alcotest.test_case "no applies without replication" `Quick
      test_plan_no_applies_without_replication;
    Alcotest.test_case "all algorithms run replicated" `Slow
      test_replicated_runs_all_algorithms;
    Alcotest.test_case "O2PL saves messages" `Slow test_o2pl_saves_messages;
    Alcotest.test_case "write-all message growth" `Slow
      test_replication_increases_messages_for_2pl;
    Alcotest.test_case "replicated histories serializable" `Slow
      test_replicated_histories_serializable;
  ]
