(* Tests for the machine-model substrate: ids, timestamps, parameters,
   catalog layouts, plans, workload generation. *)

open Ddbm_model

let mk_ts time uniq = { Timestamp.time; uniq }

let test_timestamp_order () =
  Alcotest.(check bool) "time dominates" true
    (Timestamp.compare (mk_ts 1. 5) (mk_ts 2. 0) < 0);
  Alcotest.(check bool) "uniq breaks ties" true
    (Timestamp.compare (mk_ts 1. 0) (mk_ts 1. 1) < 0);
  Alcotest.(check bool) "equal" true (Timestamp.equal (mk_ts 1. 1) (mk_ts 1. 1))

let test_clock_unique () =
  let clock = Timestamp.Clock.create () in
  let a = Timestamp.Clock.make clock ~time:5. in
  let b = Timestamp.Clock.make clock ~time:5. in
  Alcotest.(check bool) "same time, distinct" false (Timestamp.equal a b);
  Alcotest.(check bool) "allocation order" true (Timestamp.compare a b < 0)

let test_params_default_valid () =
  match Params.validate Params.default with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let invalid cases =
  List.iter
    (fun (name, params) ->
      match Params.validate params with
      | Ok () -> Alcotest.fail (name ^ ": expected validation error")
      | Error _ -> ())
    cases

let test_params_validation_rejects () =
  let d = Params.default in
  invalid
    [
      ( "zero nodes",
        {
          d with
          Params.database = { d.Params.database with Params.num_proc_nodes = 0 };
        } );
      ( "degree > nodes",
        {
          d with
          Params.database =
            {
              d.Params.database with
              Params.num_proc_nodes = 4;
              partitioning_degree = 8;
            };
        } );
      ( "degree does not divide partitions",
        {
          d with
          Params.database =
            { d.Params.database with Params.partitioning_degree = 3 };
        } );
      ( "negative think",
        {
          d with
          Params.workload = { d.Params.workload with Params.think_time = -1. };
        } );
      ( "bad write prob",
        {
          d with
          Params.workload = { d.Params.workload with Params.write_prob = 1.5 };
        } );
      ( "disk times inverted",
        {
          d with
          Params.resources =
            {
              d.Params.resources with
              Params.min_disk_time = 0.05;
              max_disk_time = 0.01;
            };
        } );
    ]

let db ~nodes ~degree =
  {
    Params.default.Params.database with
    Params.num_proc_nodes = nodes;
    partitioning_degree = degree;
  }

let test_catalog_one_node () =
  let c = Catalog.create (db ~nodes:1 ~degree:1) in
  for f = 0 to Catalog.num_files c - 1 do
    Alcotest.(check bool) "all files at node 0" true
      (match Catalog.node_of c ~file:f with
      | Ids.Proc 0 -> true
      | Ids.Proc _ | Ids.Host -> false)
  done

let test_catalog_full_decluster () =
  let c = Catalog.create (db ~nodes:8 ~degree:8) in
  (* every relation spans all 8 nodes, one partition per node *)
  for relation = 0 to 7 do
    let nodes = Catalog.nodes_of_relation c ~relation in
    Alcotest.(check int)
      (Printf.sprintf "relation %d spans 8 nodes" relation)
      8 (List.length nodes)
  done

let test_catalog_one_way_on_8 () =
  let c = Catalog.create (db ~nodes:8 ~degree:1) in
  for relation = 0 to 7 do
    match Catalog.nodes_of_relation c ~relation with
    | [ Ids.Proc n ] ->
        Alcotest.(check int) "relation i at node i" relation n
    | _ -> Alcotest.fail "1-way relation must live at exactly one node"
  done

let test_catalog_balanced_load () =
  (* with the rotation, every node stores the same number of files for
     every degree *)
  List.iter
    (fun degree ->
      let c = Catalog.create (db ~nodes:8 ~degree) in
      let counts = Array.make 8 0 in
      for f = 0 to Catalog.num_files c - 1 do
        match Catalog.node_of c ~file:f with
        | Ids.Proc n -> counts.(n) <- counts.(n) + 1
        | Ids.Host -> Alcotest.fail "file at host"
      done;
      Array.iter
        (fun n ->
          Alcotest.(check int)
            (Printf.sprintf "degree %d balanced" degree)
            8 n)
        counts)
    [ 1; 2; 4; 8 ]

let test_catalog_balanced_on_16_nodes () =
  (* more nodes than relations (footnote 7's 16-node machine): the
     placement must still use and balance every node *)
  let c =
    Catalog.create
      {
        (db ~nodes:16 ~degree:8) with
        Params.num_proc_nodes = 16;
        partitioning_degree = 8;
      }
  in
  let counts = Array.make 16 0 in
  for f = 0 to Catalog.num_files c - 1 do
    match Catalog.node_of c ~file:f with
    | Ids.Proc n -> counts.(n) <- counts.(n) + 1
    | Ids.Host -> Alcotest.fail "file at host"
  done;
  Array.iteri
    (fun n count ->
      Alcotest.(check int) (Printf.sprintf "node %d balanced" n) 4 count)
    counts

let test_catalog_degree_chunks () =
  let c = Catalog.create (db ~nodes:8 ~degree:4) in
  (* relation 0: chunks of 2 partitions on 4 distinct nodes *)
  let nodes = Catalog.nodes_of_relation c ~relation:0 in
  Alcotest.(check int) "4 nodes" 4 (List.length nodes);
  List.iter
    (fun node_ref ->
      match node_ref with
      | Ids.Proc n ->
          Alcotest.(check int)
            "two files per node"
            2
            (List.length (Catalog.files_at c ~relation:0 ~node:n))
      | Ids.Host -> Alcotest.fail "host cannot hold files")
    nodes

let mk_workload ?(nodes = 8) ?(degree = 8) () =
  let params =
    {
      Params.default with
      Params.database = db ~nodes ~degree;
    }
  in
  let catalog = Catalog.create params.Params.database in
  Workload.create params catalog (Desim.Rng.create 7)

let test_plan_structure () =
  let w = mk_workload () in
  for terminal = 0 to 127 do
    let plan = Workload.generate_plan w ~terminal in
    let expected_relation = terminal / 16 in
    Alcotest.(check int) "terminal group" expected_relation plan.Plan.relation;
    Alcotest.(check int) "8 cohorts" 8 (Plan.num_cohorts plan)
  done

let test_plan_page_counts () =
  let w = mk_workload () in
  for terminal = 0 to 40 do
    let plan = Workload.generate_plan w ~terminal in
    List.iter
      (fun (c : Plan.cohort_plan) ->
        let n = Array.length c.Plan.ops in
        (* one partition per cohort at degree 8: 4..12 pages *)
        if n < 4 || n > 12 then
          Alcotest.fail (Printf.sprintf "cohort has %d pages" n))
      plan.Plan.cohorts
  done

let test_plan_pages_distinct () =
  let w = mk_workload () in
  let plan = Workload.generate_plan w ~terminal:3 in
  List.iter
    (fun (c : Plan.cohort_plan) ->
      let pages = List.map Plan.page (Array.to_list c.Plan.ops) in
      let sorted = List.sort_uniq Ids.Page.compare pages in
      Alcotest.(check int) "no duplicate pages" (List.length pages)
        (List.length sorted))
    plan.Plan.cohorts

let test_plan_write_fraction () =
  let w = mk_workload () in
  let reads = ref 0 and writes = ref 0 in
  for terminal = 0 to 127 do
    for _ = 1 to 20 do
      let plan = Workload.generate_plan w ~terminal in
      reads := !reads + Plan.total_reads plan;
      writes := !writes + Plan.total_writes plan
    done
  done;
  let frac = float_of_int !writes /. float_of_int !reads in
  Alcotest.(check bool)
    (Printf.sprintf "write fraction %.3f near 0.25" frac)
    true
    (abs_float (frac -. 0.25) < 0.02)

let test_plan_mean_size () =
  let w = mk_workload () in
  let total = ref 0 and n = ref 0 in
  for terminal = 0 to 127 do
    for _ = 1 to 20 do
      let plan = Workload.generate_plan w ~terminal in
      total := !total + Plan.total_reads plan;
      incr n
    done
  done;
  let mean = float_of_int !total /. float_of_int !n in
  Alcotest.(check bool)
    (Printf.sprintf "mean reads %.1f near 64" mean)
    true
    (abs_float (mean -. 64.) < 2.)

let test_plan_sequential_degree1 () =
  let w = mk_workload ~degree:1 () in
  let plan = Workload.generate_plan w ~terminal:17 in
  Alcotest.(check int) "single cohort" 1 (Plan.num_cohorts plan);
  let c = List.hd plan.Plan.cohorts in
  Alcotest.(check int) "cohort at relation's node" 1 c.Plan.node

let test_txn_seniority () =
  let clock = Timestamp.Clock.create () in
  let mk tid time =
    {
      Txn.tid;
      attempt = 1;
      origin_time = time;
      attempt_time = time;
      startup_ts = Timestamp.Clock.make clock ~time;
      cc_ts = Timestamp.Clock.make clock ~time;
      commit_ts = None;
      plan = { Plan.relation = 0; cohorts = [] };
      phase = Txn.Working;
      doomed = false;
    }
  in
  let a = mk 1 1.0 and b = mk 2 2.0 in
  Alcotest.(check bool) "a older than b" true (Txn.older a b);
  Alcotest.(check bool) "b not older than a" false (Txn.older b a);
  Alcotest.(check bool) "not older than self" false (Txn.older a a)

let test_txn_phase () =
  let clock = Timestamp.Clock.create () in
  let ts = Timestamp.Clock.make clock ~time:0. in
  let txn =
    {
      Txn.tid = 1;
      attempt = 1;
      origin_time = 0.;
      attempt_time = 0.;
      startup_ts = ts;
      cc_ts = ts;
      commit_ts = None;
      plan = { Plan.relation = 0; cohorts = [] };
      phase = Txn.Working;
      doomed = false;
    }
  in
  Alcotest.(check bool) "working not 2nd phase" false (Txn.in_second_phase txn);
  txn.Txn.phase <- Txn.Decided_commit;
  Alcotest.(check bool) "decided commit is 2nd phase" true
    (Txn.in_second_phase txn)

let prop_catalog_node_in_range =
  QCheck.Test.make ~name:"catalog nodes in range" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 0 2))
    (fun (nodes, degree_exp) ->
      let degree = Stdlib.min nodes (1 lsl degree_exp) in
      if 8 mod degree <> 0 then true
      else begin
        let c = Catalog.create (db ~nodes ~degree) in
        let ok = ref true in
        for f = 0 to Catalog.num_files c - 1 do
          match Catalog.node_of c ~file:f with
          | Ids.Proc n -> if n < 0 || n >= nodes then ok := false
          | Ids.Host -> ok := false
        done;
        !ok
      end)

(* --- page identity ------------------------------------------------- *)

(* Pages are packed integers. On random in-range (file, index) pairs,
   small and up to the limits: the accessors invert [make], [compare] is
   the lexicographic order of the pairs, [hash] keeps the formula the
   page tables' bucket order depends on, and a plan op carries its page
   and update flag. *)
let gen_coord limit =
  QCheck.Gen.(oneof [ int_bound 200; int_range (limit - 200) (limit - 1) ])

let gen_page =
  QCheck.Gen.pair
    (gen_coord Ids.Page.file_limit)
    (gen_coord Ids.Page.index_limit)

let sign n = Int.compare n 0

let lexicographic (f, i) (g, j) =
  match Int.compare f g with 0 -> Int.compare i j | c -> c

let prop_page_identity =
  QCheck.Test.make ~name:"page make/accessors/compare/hash" ~count:2000
    QCheck.(
      make
        ~print:(fun ((f, i), (g, j), u) ->
          Printf.sprintf "(%d, %d) (%d, %d) %b" f i g j u)
        Gen.(triple gen_page gen_page bool))
    (fun (((f, i) as a), ((g, j) as b), update) ->
      let p = Ids.Page.make ~file:f ~index:i
      and q = Ids.Page.make ~file:g ~index:j in
      let op = Plan.op p ~update in
      Ids.Page.file p = f
      && Ids.Page.index p = i
      && Ids.Page.equal (Ids.Page.of_int (p :> int)) p
      && sign (Ids.Page.compare p q) = sign (lexicographic a b)
      && Ids.Page.equal p q = (lexicographic a b = 0)
      && Ids.Page.hash p = (f * 1_000_003) + i
      && Ids.Page.equal (Plan.page op) p
      && Plan.update op = update)

(* An argument out of range: negative, or at the limit or above. *)
let gen_out_of_range limit =
  QCheck.Gen.(oneof [ int_range (-1_000) (-1); int_range limit (limit + 1_000) ])

let raises_invalid f =
  match f () with
  | (_ : Ids.Page.t) -> false
  | exception Invalid_argument _ -> true

let prop_page_range_checked =
  QCheck.Test.make ~name:"page make rejects out-of-range arguments"
    ~count:1000
    QCheck.(
      make
        ~print:(fun ((f, i), (g, j)) ->
          Printf.sprintf "(%d, %d) (%d, %d)" f i g j)
        Gen.(
          pair
            (pair (gen_out_of_range Ids.Page.file_limit)
               (gen_coord Ids.Page.index_limit))
            (pair (gen_coord Ids.Page.file_limit)
               (gen_out_of_range Ids.Page.index_limit))))
    (fun ((f, i), (g, j)) ->
      raises_invalid (fun () -> Ids.Page.make ~file:f ~index:i)
      && raises_invalid (fun () -> Ids.Page.make ~file:g ~index:j)
      && raises_invalid (fun () -> Ids.Page.make ~file:f ~index:j)
      && raises_invalid (fun () -> Ids.Page.of_int (-1 - abs i)))

let suite =
  [
    Alcotest.test_case "timestamp order" `Quick test_timestamp_order;
    Alcotest.test_case "clock uniqueness" `Quick test_clock_unique;
    Alcotest.test_case "default params valid" `Quick test_params_default_valid;
    Alcotest.test_case "validation rejects" `Quick test_params_validation_rejects;
    Alcotest.test_case "catalog 1-node" `Quick test_catalog_one_node;
    Alcotest.test_case "catalog 8-way" `Quick test_catalog_full_decluster;
    Alcotest.test_case "catalog 1-way on 8" `Quick test_catalog_one_way_on_8;
    Alcotest.test_case "catalog balanced" `Quick test_catalog_balanced_load;
    Alcotest.test_case "catalog 4-way chunks" `Quick test_catalog_degree_chunks;
    Alcotest.test_case "catalog balanced on 16 nodes" `Quick
      test_catalog_balanced_on_16_nodes;
    Alcotest.test_case "plan structure" `Quick test_plan_structure;
    Alcotest.test_case "plan page counts" `Quick test_plan_page_counts;
    Alcotest.test_case "plan pages distinct" `Quick test_plan_pages_distinct;
    Alcotest.test_case "plan write fraction" `Slow test_plan_write_fraction;
    Alcotest.test_case "plan mean size" `Slow test_plan_mean_size;
    Alcotest.test_case "plan degree-1" `Quick test_plan_sequential_degree1;
    Alcotest.test_case "txn seniority" `Quick test_txn_seniority;
    Alcotest.test_case "txn phase" `Quick test_txn_phase;
    QCheck_alcotest.to_alcotest prop_catalog_node_in_range;
    QCheck_alcotest.to_alcotest prop_page_identity;
    QCheck_alcotest.to_alcotest prop_page_range_checked;
  ]
