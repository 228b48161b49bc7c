(* Differential determinism of parallel execution: every per-seed
   Sim_result produced through the pool must be bit-identical to serial
   execution, and the pinned golden trace must be byte-exact when the
   traced run executes inside a worker domain. *)

open Ddbm_model

(* Env-capped so CI can dial coverage up (the default keeps the local
   runtest fast). *)
let config_count () =
  match Sys.getenv_opt "DDBM_PARALLEL_CONFIGS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 6)
  | None -> 6

(* Deterministically generated configuration set: the explicitly seeded
   state makes the points reproducible across runs and job counts. *)
let gen_configs n =
  let rand = Random.State.make [| 0xD1FF |] (* lint: allow ambient *) in
  List.init n (fun _ -> QCheck.Gen.generate1 ~rand Ddbm_check.Config_gen.gen)

let test_serial_vs_jobs () =
  let points = gen_configs (config_count ()) in
  let serial = List.map Ddbm.Machine.run points in
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs () in
      let parallel = Par.Pool.map pool Ddbm.Machine.run points in
      List.iteri
        (fun i (a, b) ->
          match Ddbm.Sim_result.diff a b with
          | [] -> ()
          | diffs ->
              Alcotest.failf
                "config %d (seed %d) diverged at jobs=%d:\n%s" i
                b.Ddbm.Sim_result.params.Params.run.Params.seed jobs
                (String.concat "\n" diffs))
        (List.combine serial parallel))
    [ 2; 4; 8 ]

let test_replicates_serial_vs_jobs () =
  (* same config, many seeds — the shape of every figure sweep *)
  let params seed =
    Ddbm.Experiment.params_of_config ~profile:Ddbm.Experiment.Quick ~seed
      {
        Ddbm.Experiment.base_config with
        Ddbm.Experiment.think = 8.;
        terminals = 32;
        nodes = 4;
        degree = 4;
      }
  in
  let points = List.init 8 (fun i -> params (i + 1)) in
  let serial = List.map Ddbm.Machine.run points in
  let pool = Par.Pool.create ~jobs:4 () in
  let parallel = Par.Pool.map pool Ddbm.Machine.run points in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d bit-identical" (i + 1))
        true
        (Ddbm.Sim_result.equal a b))
    (List.combine serial parallel)

let test_prefilled_cache_matches_serial () =
  (* the figure path: a pool-prefilled cache must hold exactly the
     results a serial cache computes, and the figure's declared points
     must cover every result its render reads *)
  let thinks = [ 0.; 8. ] in
  let gens =
    List.filter_map
      (fun id -> Option.map (fun g -> (id, g)) (Ddbm.Figures.find id))
      [ "fig2" ]
  in
  let profile = Ddbm.Experiment.Quick in
  let serial_cache = Ddbm.Experiment.create_cache () in
  List.iter
    (fun (_, g) -> ignore (g serial_cache ~profile ~thinks : Ddbm.Figure.t))
    gens;
  let par_cache = Ddbm.Experiment.create_cache () in
  let pool = Par.Pool.create ~jobs:4 () in
  let runs = Ddbm.Figures.prefill_cache par_cache pool ~profile ~thinks gens in
  Alcotest.(check int)
    "prefill runs everything the serial pass ran" serial_cache.Ddbm.Experiment.runs
    runs;
  List.iter
    (fun (_, g) -> ignore (g par_cache ~profile ~thinks : Ddbm.Figure.t))
    gens;
  Alcotest.(check int)
    "rendering after the prefill simulates nothing more" runs
    par_cache.Ddbm.Experiment.runs;
  (* per-entry assertions only, no order dependence *)
  Hashtbl.iter (* lint: allow hashtbl-order *)
    (fun params r ->
      match Hashtbl.find_opt par_cache.Ddbm.Experiment.table params with
      | None -> Alcotest.fail "parallel cache is missing a serial run"
      | Some r' ->
          Alcotest.(check bool)
            "cached result bit-identical" true
            (Ddbm.Sim_result.equal r r'))
    serial_cache.Ddbm.Experiment.table

let test_golden_trace_parallel () =
  (* byte-equality of the pinned Chrome trace when the traced run
     executes inside a worker domain (two tasks, jobs=2: one runs on the
     spawned domain) *)
  let path =
    if Sys.file_exists "golden/trace_tiny.json" then "golden/trace_tiny.json"
    else "test/golden/trace_tiny.json"
  in
  let ic = open_in_bin path in
  let expected = In_channel.input_all ic in
  close_in ic;
  let pool = Par.Pool.create ~jobs:2 () in
  let traces =
    Par.Pool.map pool
      (fun () -> Test_observability.golden_chrome ())
      [ (); () ]
  in
  List.iteri
    (fun i actual ->
      if not (String.equal expected actual) then
        Alcotest.failf
          "golden trace task %d diverged under parallel execution (expected \
           %d bytes, got %d)"
          i (String.length expected) (String.length actual))
    traces

let suite =
  [
    Alcotest.test_case "qcheck configs: serial vs jobs 2/4/8" `Slow
      test_serial_vs_jobs;
    Alcotest.test_case "replicate sweep: serial vs jobs 4" `Slow
      test_replicates_serial_vs_jobs;
    Alcotest.test_case "prefilled cache matches serial cache" `Slow
      test_prefilled_cache_matches_serial;
    Alcotest.test_case "golden trace byte-exact under parallel run" `Quick
      test_golden_trace_parallel;
  ]
