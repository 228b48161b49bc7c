(* Machine-level telemetry tests: tail quantiles in Sim_result, the typed
   metric registry and its Prometheus/JSON exposition, and the guarantee
   that histogram observers never perturb the simulation. *)

open Ddbm_model

let small_params ?(algorithm = Params.Twopl) ?(seed = 11) () =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 4;
        partitioning_degree = 4;
        file_size = 100;
      };
    workload =
      {
        d.Params.workload with
        Params.think_time = 1.;
        num_terminals = 32;
        exec_pattern = Params.Parallel;
      };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm };
    run =
      {
        Params.seed;
        warmup = 10.;
        measure = 40.;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
    durability = Params.default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

(* --- tail quantiles surface in Sim_result --------------------------- *)

let test_tail_quantiles_ordered () =
  let r = Ddbm.Machine.run (small_params ()) in
  let open Ddbm.Sim_result in
  Alcotest.(check bool) "p99 populated" true (r.response_p99 > 0.);
  Alcotest.(check bool) "p999 populated" true (r.response_p999 > 0.);
  Alcotest.(check bool) "p99 >= exact p95" true (r.response_p99 >= r.response_p95);
  Alcotest.(check bool) "p999 >= p99" true (r.response_p999 >= r.response_p99);
  (* the histogram quantile over-reports by at most one bucket width *)
  Alcotest.(check bool)
    "p99 within an order of magnitude of the mean" true
    (r.response_p99 < r.mean_response *. 100.)

let test_csv_has_tail_columns () =
  let header = Ddbm.Sim_result.csv_header in
  List.iter
    (fun col ->
      Alcotest.(check bool)
        (Printf.sprintf "csv header has %s" col)
        true
        (List.exists (String.equal col) (String.split_on_char ',' header)))
    [ "response_p99"; "response_p999" ];
  let r = Ddbm.Machine.run (small_params ()) in
  let row = Ddbm.Sim_result.to_csv_row r in
  Alcotest.(check int)
    "row arity matches header"
    (List.length (String.split_on_char ',' header))
    (List.length (String.split_on_char ',' row))

(* --- registry exposition -------------------------------------------- *)

let run_registry () =
  let m = Ddbm.Machine.create (small_params ()) in
  let _ = Ddbm.Machine.execute m in
  Ddbm.Machine.registry m

let test_prometheus_exposition () =
  let text = Metric.to_prometheus (run_registry ()) in
  let has needle = Astring_contains.contains text needle in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" needle) true
        (has needle))
    [
      "# TYPE ddbm_commits_total counter";
      "# TYPE ddbm_response_seconds summary";
      "ddbm_response_seconds{quantile=\"0.99\"}";
      "ddbm_response_seconds{quantile=\"0.999\"}";
      "ddbm_response_seconds_count";
      "component=\"t_cpu\"";
      "component=\"t_2pc\"";
      "ddbm_node_cpu_utilization{node=\"0\"}";
      "ddbm_node_disk_queue{node=\"3\"}";
      "ddbm_log_force_seconds";
    ]

let test_json_exposition () =
  let json = Metric.to_json (run_registry ()) in
  (match Test_observability.Json_check.validate json with
  | () -> ()
  | exception Test_observability.Json_check.Bad msg ->
      Alcotest.failf "metrics JSON invalid: %s\n%s" msg json);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json has %S" needle) true
        (Astring_contains.contains json needle))
    [ "\"p999\""; "\"ddbm_response_seconds\""; "\"buckets\"" ]

(* --- histograms are pure observers ---------------------------------- *)

let test_histograms_off_bit_identical () =
  let params = small_params () in
  let with_h = Ddbm.Machine.run params in
  let m = Ddbm.Machine.create ~histograms:false params in
  let without = Ddbm.Machine.execute m in
  Alcotest.(check (float 0.)) "p99 reads 0 when off" 0.
    without.Ddbm.Sim_result.response_p99;
  Alcotest.(check bool)
    "results identical modulo tail fields" true
    (Ddbm.Sim_result.equal
       { with_h with Ddbm.Sim_result.response_p99 = 0.; response_p999 = 0. }
       without)

let test_per_algorithm_quantiles () =
  (* the tail metrics populate for an optimistic run too, where restarts
     dominate the tail *)
  let r = Ddbm.Machine.run (small_params ~algorithm:Params.Opt ()) in
  Alcotest.(check bool) "opt p999 populated" true
    (r.Ddbm.Sim_result.response_p999 > 0.)

(* --- byte-identity goldens ------------------------------------------ *)

(* MUST match [Gen_golden.golden_runs]; regenerate the goldens with
   [dune exec test/gen_golden.exe] after an intentional change. *)
let golden_runs =
  let d = Params.default in
  let ok = function Ok x -> x | Error msg -> failwith msg in
  let closed =
    {
      d with
      Params.database =
        {
          d.Params.database with
          Params.num_proc_nodes = 4;
          partitioning_degree = 4;
          file_size = 60;
        };
      workload =
        { d.Params.workload with Params.think_time = 0.; num_terminals = 16 };
      run = { d.Params.run with Params.seed = 5; warmup = 1.; measure = 6. };
    }
  in
  let open_wal =
    {
      closed with
      Params.durability =
        { Params.default_durability with Params.log_disk = true; replicas = 1 };
      faults =
        ok
          (Fault_plan.of_spec
             "crash=1@3+1,timeout=0.5,timeout-cap=2,retries=5,fault-seed=9");
      arrivals = ok (Arrival.of_spec "qps=25,cap=6,mpl=6");
      run = { closed.Params.run with Params.seed = 6 };
    }
  in
  [ closed; open_wal ]

let read_golden name =
  (* cwd is test/ under `dune runtest`, the project root under
     `dune exec test/test_main.exe` *)
  let path =
    if Sys.file_exists ("golden/" ^ name) then "golden/" ^ name
    else "test/golden/" ^ name
  in
  In_channel.with_open_bin path In_channel.input_all

(* A JSON exposition document as its sorted list of family objects
   (families are the only objects carrying a "name" key). *)
let json_families doc =
  let prefix = "{\"families\":[{\"name\":" and suffix = "]}]}" in
  let body =
    String.sub doc (String.length prefix)
      (String.length doc - String.length prefix - String.length suffix)
  in
  let sep = "]},{\"name\":" in
  let n = String.length sep in
  let buf = Buffer.create (String.length body) in
  let i = ref 0 in
  while !i < String.length body do
    if !i + n <= String.length body && String.sub body !i n = sep then begin
      Buffer.add_char buf '\n';
      i := !i + n
    end
    else begin
      Buffer.add_char buf body.[!i];
      incr i
    end
  done;
  List.sort String.compare (String.split_on_char '\n' (Buffer.contents buf))

let test_golden_outputs () =
  let runs =
    List.map
      (fun params ->
        let m = Ddbm.Machine.create params in
        let r = Ddbm.Machine.execute m in
        (r, Ddbm.Machine.registry m))
      golden_runs
  in
  Alcotest.(check string) "CSV header and rows byte-identical"
    (read_golden "result_small.csv")
    (String.concat ""
       (List.map
          (fun line -> line ^ "\n")
          (Ddbm.Sim_result.csv_header
          :: List.map (fun (r, _) -> Ddbm.Sim_result.to_csv_row r) runs)));
  (* the registry fixes its family order; the lines must be the same *)
  let sorted_lines s = List.sort String.compare (String.split_on_char '\n' s) in
  Alcotest.(check (list string)) "Prometheus lines equal as a sorted set"
    (sorted_lines (read_golden "registry_small.prom"))
    (sorted_lines
       (String.concat ""
          (List.map (fun (_, reg) -> Metric.to_prometheus reg) runs)));
  Alcotest.(check (list (list string))) "JSON families equal as sorted sets"
    (List.map json_families
       (List.filter (fun line -> String.length line > 0)
          (String.split_on_char '\n' (read_golden "registry_small.json"))))
    (List.map (fun (_, reg) -> json_families (Metric.to_json reg)) runs)

let suite =
  [
    Alcotest.test_case "golden CSV and exposition" `Quick test_golden_outputs;
    Alcotest.test_case "tail quantiles ordered" `Quick
      test_tail_quantiles_ordered;
    Alcotest.test_case "csv tail columns" `Quick test_csv_has_tail_columns;
    Alcotest.test_case "prometheus exposition" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "json exposition" `Quick test_json_exposition;
    Alcotest.test_case "histograms off is bit-identical" `Quick
      test_histograms_off_bit_identical;
    Alcotest.test_case "opt tail populated" `Quick test_per_algorithm_quantiles;
  ]
