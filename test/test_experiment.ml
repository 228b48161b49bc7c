(* Tests for the experiment driver and figure plumbing: config-to-params
   mapping, run caching, window scaling, and table/CSV rendering. *)

open Ddbm_model

let test_params_of_config_mapping () =
  let c =
    {
      Ddbm.Experiment.algorithm = Params.Bto;
      nodes = 4;
      degree = 2;
      file_size = 1200;
      think = 12.;
      inst_per_startup = 0.;
      inst_per_msg = 4000.;
      exec_pattern = Params.Sequential;
      terminals = 64;
      pages_per_partition = 4;
      replication = 2;
      write_prob = 0.5;
      detection_interval = 2.0;
    }
  in
  let p = Ddbm.Experiment.params_of_config ~profile:Ddbm.Experiment.Quick c in
  Alcotest.(check bool) "algorithm" true (p.Params.cc.Params.algorithm = Params.Bto);
  Alcotest.(check int) "nodes" 4 p.Params.database.Params.num_proc_nodes;
  Alcotest.(check int) "degree" 2 p.Params.database.Params.partitioning_degree;
  Alcotest.(check int) "file size" 1200 p.Params.database.Params.file_size;
  Alcotest.(check (float 0.)) "think" 12. p.Params.workload.Params.think_time;
  Alcotest.(check (float 0.)) "startup" 0.
    p.Params.resources.Params.inst_per_startup;
  Alcotest.(check (float 0.)) "msg" 4000. p.Params.resources.Params.inst_per_msg;
  Alcotest.(check int) "terminals" 64 p.Params.workload.Params.num_terminals;
  Alcotest.(check int) "pages" 4 p.Params.workload.Params.pages_per_partition;
  Alcotest.(check int) "replication" 2 p.Params.database.Params.replication;
  Alcotest.(check (float 0.)) "write prob" 0.5
    p.Params.workload.Params.write_prob;
  Alcotest.(check (float 0.)) "detection interval" 2.0
    p.Params.cc.Params.detection_interval;
  Alcotest.(check bool) "sequential" true
    (p.Params.workload.Params.exec_pattern = Params.Sequential);
  match Params.validate p with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_window_scaling_with_machine_size () =
  let p_of nodes =
    Ddbm.Experiment.params_of_config ~profile:Ddbm.Experiment.Quick
      { Ddbm.Experiment.base_config with Ddbm.Experiment.nodes; degree = 1 }
  in
  let small = p_of 1 and big = p_of 8 in
  Alcotest.(check bool) "1-node windows ~8x longer" true
    (small.Params.run.Params.measure > 7. *. big.Params.run.Params.measure)

let test_profiles_ordered () =
  let measure profile =
    (Ddbm.Experiment.params_of_config ~profile Ddbm.Experiment.base_config)
      .Params.run.Params.measure
  in
  Alcotest.(check bool) "quick < standard < full" true
    (measure Ddbm.Experiment.Quick < measure Ddbm.Experiment.Standard
    && measure Ddbm.Experiment.Standard < measure Ddbm.Experiment.Full)

let tiny_config =
  {
    Ddbm.Experiment.base_config with
    Ddbm.Experiment.algorithm = Params.No_dc;
    nodes = 2;
    degree = 2;
    terminals = 8;
    think = 1.;
  }

let tiny_params =
  let p =
    Ddbm.Experiment.params_of_config ~profile:Ddbm.Experiment.Quick tiny_config
  in
  { p with Params.run = { p.Params.run with Params.warmup = 5.; measure = 20. } }

let test_cache_reuses_runs () =
  let cache = Ddbm.Experiment.create_cache () in
  let a = Ddbm.Experiment.run cache tiny_params in
  let b = Ddbm.Experiment.run cache tiny_params in
  Alcotest.(check int) "one run" 1 cache.Ddbm.Experiment.runs;
  Alcotest.(check int) "one hit" 1 cache.Ddbm.Experiment.hits;
  Alcotest.(check bool) "identical result" true (a == b)

let test_cache_distinguishes_configs () =
  let cache = Ddbm.Experiment.create_cache () in
  let p2 =
    { tiny_params with
      Params.workload =
        { tiny_params.Params.workload with Params.think_time = 2. } }
  in
  ignore (Ddbm.Experiment.run cache tiny_params);
  ignore (Ddbm.Experiment.run cache p2);
  Alcotest.(check int) "two distinct runs" 2 cache.Ddbm.Experiment.runs

let test_replicate_summary () =
  let cache = Ddbm.Experiment.create_cache () in
  let s =
    Ddbm.Experiment.replicate cache ~profile:Ddbm.Experiment.Quick
      ~seeds:[ 1; 2; 3 ] tiny_config
  in
  Alcotest.(check int) "replicates" 3 s.Ddbm.Experiment.replicates;
  Alcotest.(check bool) "throughput positive" true
    (s.Ddbm.Experiment.mean_throughput > 0.);
  Alcotest.(check bool) "ci nonnegative" true
    (s.Ddbm.Experiment.ci_throughput >= 0.);
  Alcotest.(check int) "three runs" 3 cache.Ddbm.Experiment.runs

let sample_figure =
  {
    Ddbm.Figure.id = "figX";
    title = "sample";
    xlabel = "x";
    ylabel = "y";
    series =
      [
        {
          Ddbm.Figure.label = "a";
          points =
            [ { Ddbm.Figure.x = 0.; y = 1.5 }; { Ddbm.Figure.x = 1.; y = 2.5 } ];
        };
        {
          Ddbm.Figure.label = "b";
          points =
            [ { Ddbm.Figure.x = 0.; y = 10. }; { Ddbm.Figure.x = 1.; y = 20. } ];
        };
      ];
  }

let test_figure_table_renders () =
  let table = Ddbm.Figure.to_table sample_figure in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "table contains %S" needle)
        true
        (Astring_contains.contains table needle))
    [ "figX"; "a"; "b"; "1.5"; "20" ]

let test_figure_csv_shape () =
  let csv = Ddbm.Figure.to_csv sample_figure in
  let lines =
    String.split_on_char '\n' (String.trim csv)
  in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "x,a,b" (List.hd lines);
  Alcotest.(check string) "row 0" "0,1.5,10" (List.nth lines 1)

let test_figures_registry_complete () =
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " registered") true
        (Ddbm.Figures.find id <> None))
    [
      "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9";
      "fig10"; "fig11"; "fig12"; "fig13"; "fig14"; "fig15"; "fig16"; "fig17";
      "fig4n"; "fig5n"; "fig16s"; "fig17s"; "abl-exec"; "abl-snoop";
      "abl-txsize"; "abl-writeprob"; "abl-mpl"; "abl-restart"; "ext-algos"; "fig16n"; "ext-repl";
      "abl-logging"; "tail-mpl"; "saturation";
    ];
  Alcotest.(check (option Alcotest.reject)) "unknown id" None
    (Option.map ignore (Ddbm.Figures.find "fig99"))

(* Each figure's work-list, read off its declaration without simulating.
   The counts are those the dry pass over placeholder results found
   before figures were declared as data. *)
let test_figure_point_counts () =
  let profile = Ddbm.Experiment.Quick in
  let expected =
    List.map (fun id -> (id, 20))
      [ "fig2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig4n"; "fig5n";
        "fig16n"; "fig8"; "fig9"; "fig14"; "fig15"; "fig16"; "fig17";
        "fig16s"; "fig17s" ]
    @ [
        ("fig10", 10); ("fig11", 10); ("fig12", 8); ("fig13", 8);
        ("abl-exec", 12); ("abl-snoop", 5); ("abl-txsize", 12);
        ("abl-writeprob", 20); ("abl-mpl", 25); ("tail-mpl", 10);
        ("saturation", 12); ("abl-restart", 8); ("ext-algos", 10);
        ("ext-repl", 20); ("abl-logging", 8);
      ]
  in
  let count (fig : Ddbm.Figures.t) =
    List.length (Ddbm.Figures.points ~profile ~thinks:[ 0.; 8. ] fig)
  in
  let by_id = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  Alcotest.(check (list (pair string int)))
    "points per figure at thinks 0,8" (by_id expected)
    (by_id
       (List.map (fun (fig : Ddbm.Figures.t) -> (fig.id, count fig))
          Ddbm.Figures.all));
  let suite =
    Ddbm.Experiment.distinct
      (List.concat_map
         (Ddbm.Figures.points ~profile
            ~thinks:Ddbm.Experiment.default_think_times)
         Ddbm.Figures.all)
  in
  Alcotest.(check int) "distinct points of the suite" 551 (List.length suite)

(* The dry-pass entry point kept for callers that hold only a
   generator: on a fresh cache it returns exactly the figure's declared
   points, and simulating inside it is an error. *)
let test_collect_misses_shim () =
  let profile = Ddbm.Experiment.Quick and thinks = [ 0.; 8. ] in
  let fig =
    List.find
      (fun (f : Ddbm.Figures.t) -> String.equal f.id "abl-snoop")
      Ddbm.Figures.all
  in
  let gen = Option.get (Ddbm.Figures.find "abl-snoop") in
  let cache = Ddbm.Experiment.create_cache () in
  let misses =
    Ddbm.Experiment.collect_misses cache (fun c ->
        ignore (gen c ~profile ~thinks : Ddbm.Figure.t))
  in
  let bytes p = Marshal.to_string p [ Marshal.No_sharing ] in
  Alcotest.(check (list string)) "the declared points, in order"
    (List.map bytes (Ddbm.Figures.points ~profile ~thinks fig))
    (List.map bytes misses);
  Alcotest.check_raises "run inside collect_misses"
    (Invalid_argument "Experiment.run: called inside collect_misses")
    (fun () ->
      ignore
        (Ddbm.Experiment.collect_misses cache (fun c ->
             ignore (Ddbm.Experiment.run c (List.hd misses)))
          : Params.t list));
  Alcotest.(check bool) "collecting ends with the call" true
    (Option.is_none cache.Ddbm.Experiment.collecting)

let suite =
  [
    Alcotest.test_case "config mapping" `Quick test_params_of_config_mapping;
    Alcotest.test_case "window scaling" `Quick
      test_window_scaling_with_machine_size;
    Alcotest.test_case "profiles ordered" `Quick test_profiles_ordered;
    Alcotest.test_case "cache reuses runs" `Slow test_cache_reuses_runs;
    Alcotest.test_case "cache distinguishes configs" `Slow
      test_cache_distinguishes_configs;
    Alcotest.test_case "replicate summary" `Slow test_replicate_summary;
    Alcotest.test_case "figure table renders" `Quick test_figure_table_renders;
    Alcotest.test_case "figure csv shape" `Quick test_figure_csv_shape;
    Alcotest.test_case "figures registry" `Quick test_figures_registry_complete;
    Alcotest.test_case "figure point counts" `Quick test_figure_point_counts;
    Alcotest.test_case "collect_misses shim" `Quick test_collect_misses_shim;
  ]
