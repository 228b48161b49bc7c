(* Property tests for the workload source: on random configurations,
   generated plans must respect the partitioning bounds (cohorts only at
   nodes holding the terminal's relation, accesses only to files stored
   there), page ranges (indices inside the file, counts inside the
   footnote-12 window), ascending distinct page order, replication
   discipline for apply_ops, and per-terminal common-random-numbers
   determinism. *)

open Ddbm_model

let make_workload params =
  let catalog = Catalog.create params.Params.database in
  let rng = Desim.Rng.create params.Params.run.Params.seed in
  (catalog, Workload.create params catalog rng)

let proc_nodes catalog ~relation =
  List.filter_map
    (function Ids.Proc n -> Some n | Ids.Host -> None)
    (Catalog.nodes_of_relation catalog ~relation)

(* Check one plan thoroughly; returns an error description or None. *)
let plan_errors params catalog ~terminal ~relation (plan : Plan.t) =
  let d = params.Params.database and w = params.Params.workload in
  let err = ref [] in
  let add fmt = Printf.ksprintf (fun s -> err := s :: !err) fmt in
  if plan.Plan.relation <> relation then
    add "terminal %d: plan relation %d <> %d" terminal plan.Plan.relation
      relation;
  let primary_nodes = proc_nodes catalog ~relation in
  (* primary cohorts (nonempty ops) must sit exactly at the relation's
     nodes; update-only cohorts may appear elsewhere under replication *)
  let cohort_nodes =
    List.filter_map
      (fun (c : Plan.cohort_plan) ->
        if Array.length c.Plan.ops > 0 then Some c.Plan.node else None)
      plan.Plan.cohorts
  in
  if List.sort Int.compare cohort_nodes <> List.sort Int.compare primary_nodes then
    add "terminal %d: primary cohorts at nodes [%s], expected [%s]" terminal
      (String.concat ";" (List.map string_of_int cohort_nodes))
      (String.concat ";" (List.map string_of_int primary_nodes));
  let lo_count = Stdlib.max 1 (w.Params.pages_per_partition / 2) in
  let hi_count =
    Stdlib.min (3 * w.Params.pages_per_partition / 2) d.Params.file_size
  in
  List.iter
    (fun (c : Plan.cohort_plan) ->
      let files_here =
        Catalog.files_at catalog ~relation ~node:c.Plan.node
      in
      (* group the cohort's ops by file, preserving op order *)
      let by_file = Hashtbl.create 4 in
      Array.iter
        (fun op ->
          let f = Ids.Page.file (Plan.page op) in
          if not (List.mem f files_here) then
            add "terminal %d node %d: access to file %d not stored there"
              terminal c.Plan.node f;
          let idx = Ids.Page.index (Plan.page op) in
          if idx < 0 || idx >= d.Params.file_size then
            add "terminal %d: page index %d outside [0,%d)" terminal idx
              d.Params.file_size;
          Hashtbl.replace by_file f
            (idx :: Option.value ~default:[] (Hashtbl.find_opt by_file f)))
        c.Plan.ops;
      (* every file of this node's share is visited, with an in-window
         count of ascending distinct pages *)
      List.iter
        (fun f ->
          match Hashtbl.find_opt by_file f with
          | None -> add "terminal %d node %d: file %d never accessed" terminal c.Plan.node f
          | Some rev_indices ->
              let indices = List.rev rev_indices in
              let k = List.length indices in
              if k < lo_count || k > hi_count then
                add "terminal %d file %d: %d pages outside [%d,%d]" terminal f
                  k lo_count hi_count;
              let rec ascending = function
                | a :: (b :: _ as rest) -> a < b && ascending rest
                | _ -> true
              in
              if not (ascending indices) then
                add "terminal %d file %d: pages not ascending-distinct"
                  terminal f)
        files_here;
      if d.Params.replication = 1 && c.Plan.apply_ops <> [] then
        add "terminal %d node %d: apply_ops without replication" terminal
          c.Plan.node;
      (* an apply site must hold a copy of the file and never be the
         page's own primary cohort *)
      List.iter
        (fun (p : Ids.Page.t) ->
          let copies = Catalog.copy_nodes catalog ~file:(Ids.Page.file p) in
          if not (List.mem c.Plan.node copies) then
            add "terminal %d node %d: applies page of file %d without a copy"
              terminal c.Plan.node (Ids.Page.file p))
        c.Plan.apply_ops)
    plan.Plan.cohorts;
  (* under replication, every updated page must be applied at every other
     copy site *)
  if d.Params.replication > 1 then
    List.iter
      (fun (c : Plan.cohort_plan) ->
        Array.iter
          (fun op ->
            if Plan.update op then
              let page = Plan.page op in
              let copies =
                Catalog.copy_nodes catalog ~file:(Ids.Page.file page)
              in
              List.iter
                (fun copy ->
                  if copy <> c.Plan.node then
                    let applied =
                      List.exists
                        (fun (c' : Plan.cohort_plan) ->
                          c'.Plan.node = copy
                          && List.mem page c'.Plan.apply_ops)
                        plan.Plan.cohorts
                    in
                    if not applied then
                      add
                        "terminal %d: update of file %d page %d not applied \
                         at copy node %d"
                        terminal (Ids.Page.file page) (Ids.Page.index page)
                        copy)
                copies)
          c.Plan.ops)
      plan.Plan.cohorts;
  List.rev !err

let prop_plans_well_formed =
  QCheck.Test.make ~name:"plans respect partitioning bounds and page ranges"
    ~count:100 Ddbm_check.Config_gen.arbitrary (fun params ->
      let catalog, workload = make_workload params in
      let terminals = params.Params.workload.Params.num_terminals in
      let errors = ref [] in
      for terminal = 0 to terminals - 1 do
        let relation = Workload.relation_of_terminal workload ~terminal in
        (* several plans per terminal to exercise the stream *)
        for _ = 1 to 3 do
          let plan = Workload.generate_plan workload ~terminal in
          errors := plan_errors params catalog ~terminal ~relation plan @ !errors
        done
      done;
      match !errors with
      | [] -> true
      | errs -> QCheck.Test.fail_report (String.concat "\n" errs))

let prop_streams_deterministic_per_terminal =
  QCheck.Test.make
    ~name:"per-terminal plan streams are a pure function of the seed"
    ~count:50 Ddbm_check.Config_gen.arbitrary (fun params ->
      let _, w1 = make_workload params in
      let _, w2 = make_workload params in
      Workload.enable_fingerprints w1;
      Workload.enable_fingerprints w2;
      let terminals = params.Params.workload.Params.num_terminals in
      (* generate in different per-terminal interleavings: the streams
         must not influence each other *)
      for terminal = 0 to terminals - 1 do
        for _ = 1 to 2 do
          ignore (Workload.generate_plan w1 ~terminal)
        done
      done;
      for round = 1 to 2 do
        ignore round;
        for terminal = terminals - 1 downto 0 do
          ignore (Workload.generate_plan w2 ~terminal)
        done
      done;
      Workload.fingerprints w1 = Workload.fingerprints w2)

let test_page_count_window () =
  let params = Params.default in
  let _, w = make_workload params in
  let rng = Desim.Rng.create 42 in
  let mean = params.Params.workload.Params.pages_per_partition in
  let lo = Stdlib.max 1 (mean / 2) and hi = 3 * mean / 2 in
  for _ = 1 to 1_000 do
    let k = Workload.draw_page_count w rng in
    if k < lo || k > hi then
      Alcotest.failf "page count %d outside [%d,%d]" k lo hi
  done

let test_fingerprint_sensitive_to_structure () =
  let p1 = Ids.Page.make ~file:0 ~index:1 in
  let base =
    {
      Plan.relation = 0;
      cohorts =
        [ { Plan.node = 0; ops = [| Plan.op p1 ~update:false |]; apply_ops = [] } ];
    }
  in
  let updated =
    {
      Plan.relation = 0;
      cohorts =
        [ { Plan.node = 0; ops = [| Plan.op p1 ~update:true |]; apply_ops = [] } ];
    }
  in
  Alcotest.(check bool) "update flag changes the fingerprint" false
    (Workload.plan_fingerprint base = Workload.plan_fingerprint updated);
  Alcotest.(check int) "fingerprint is stable"
    (Workload.plan_fingerprint base)
    (Workload.plan_fingerprint base)

(* The plan streams of two fixed machines, pinned: the paper's contention
   regime (8 nodes, 8-way partitioning, FileSize 120, 64 terminals, seed
   1) and the same machine with three copies of every file. A plan
   stream is the pages each partition samples and then, in page order,
   their update flags; any change to the draws or their order moves
   these fingerprints, and with them every simulated outcome. *)
let pin_params ~replication =
  let d = Params.default in
  {
    d with
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 8;
        partitioning_degree = 8;
        file_size = 120;
        replication;
      };
    workload = { d.Params.workload with Params.num_terminals = 64 };
    run = { d.Params.run with Params.seed = 1 };
  }

let pinned_terminals = [ 0; 9; 37; 63 ]

let stream_of params =
  let _, w = make_workload params in
  Workload.enable_fingerprints w;
  List.iter
    (fun terminal ->
      for _ = 1 to 3 do
        ignore (Workload.generate_plan w ~terminal : Plan.t)
      done)
    pinned_terminals;
  let fps = Workload.fingerprints w in
  List.map (fun terminal -> fps.(terminal)) pinned_terminals

let test_plan_stream_pinned ~replication expected () =
  Alcotest.(check (list (list int)))
    "fingerprints of terminals 0, 9, 37 and 63, three plans each" expected
    (stream_of (pin_params ~replication))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_plans_well_formed;
    QCheck_alcotest.to_alcotest prop_streams_deterministic_per_terminal;
    Alcotest.test_case "page counts stay in the footnote-12 window" `Quick
      test_page_count_window;
    Alcotest.test_case "fingerprint reflects plan structure" `Quick
      test_fingerprint_sensitive_to_structure;
    Alcotest.test_case "plan stream pinned, paper's 8 nodes" `Quick
      (test_plan_stream_pinned ~replication:1
         [
           [ 3559184752815385870; 3664353829435668091; 2866853018653997142 ];
           [ 1875421884744715858; 772334663545537875; 2842866797603667840 ];
           [ 1603564840141142975; 2641130899634603497; 2672873589333193951 ];
           [ 3721446680633696463; 3375349112283494647; 1887935547169002776 ];
         ]);
    Alcotest.test_case "plan stream pinned, three copies" `Quick
      (test_plan_stream_pinned ~replication:3
         [
           [ 1392122163843419942; 987212469081315117; 4593097679501650012 ];
           [ 994903702256325136; 3343845160610352067; 2296339476506025378 ];
           [ 3522947222423141873; 1701437397975110449; 279850366726201801 ];
           [ 2537870329010581181; 2169515186277135687; 914538336894489532 ];
         ]);
  ]
