(* Machine-size scaling (Section 4.2 of the paper): grow the machine from
   1 to 8 processing nodes while declustering the database across all of
   them, and watch throughput scale under a fixed 128-terminal workload.
   This is the experiment behind Figures 2-5; at high load the speedup of
   the n-node system approaches n (and can transiently exceed it for the
   contention-limited algorithms, because parallelism also relieves data
   contention).

   Run with:  dune exec examples/scaling.exe *)

open Ddbm_model

let run ~algorithm ~nodes ~think =
  let d = Params.default in
  let params =
    {
      d with
      Params.database =
        {
          d.Params.database with
          Params.num_proc_nodes = nodes;
          partitioning_degree = nodes;
        };
      workload = { d.Params.workload with Params.think_time = think };
      cc = { d.Params.cc with Params.algorithm };
      run =
        (* smaller machines respond ~8/nodes times slower under this
           saturated workload, so their windows must grow accordingly to
           reach steady state *)
        (let scale = 8. /. float_of_int nodes in
         { Params.default.Params.run with
           Params.seed = 3; warmup = 40. *. scale; measure = 250. *. scale });
      faults = Fault_plan.zero;
    }
  in
  Ddbm.Machine.run params

let () =
  let think = 2. in
  Format.printf
    "Scaling study: 1/2/4/8 processing nodes, think %.0f s, 128 terminals@.@."
    think;
  List.iter
    (fun algorithm ->
      Format.printf "%s:@." (Params.cc_algorithm_name algorithm);
      let base = run ~algorithm ~nodes:1 ~think in
      List.iter
        (fun nodes ->
          let r = if nodes = 1 then base else run ~algorithm ~nodes ~think in
          Format.printf
            "  %d node%s: tput %6.2f tx/s (speedup %5.2fx), response %7.2f s, \
             disk util %.2f@."
            nodes
            (if nodes = 1 then " " else "s")
            r.Ddbm.Sim_result.throughput
            (r.Ddbm.Sim_result.throughput /. base.Ddbm.Sim_result.throughput)
            r.Ddbm.Sim_result.mean_response r.Ddbm.Sim_result.proc_disk_util)
        [ 1; 2; 4; 8 ];
      Format.printf "@.")
    [ Params.No_dc; Params.Twopl ]
