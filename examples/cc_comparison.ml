(* The paper's headline experiment in miniature: compare the four
   concurrency control algorithms (and the NO_DC contention-free bound)
   on the same 8-node machine at three load levels, and observe

       2PL  >=  BTO  >=  WW  >=  OPT

   in throughput, with abort ratios ordered the other way (Section 4.2).

   Run with:  dune exec examples/cc_comparison.exe *)

open Ddbm_model

let algorithms =
  [ Params.No_dc; Params.Twopl; Params.Bto; Params.Wound_wait; Params.Opt ]

let run ~algorithm ~think =
  let params =
    {
      Params.default with
      Params.workload =
        { Params.default.Params.workload with Params.think_time = think };
      cc = { Params.default.Params.cc with Params.algorithm };
      run =
        { Params.default.Params.run with
          Params.seed = 7; warmup = 30.; measure = 200. };
    }
  in
  Ddbm.Machine.run params

let () =
  Format.printf
    "Concurrency control comparison, 8-node machine, 8-way declustering@.";
  Format.printf "(small database: 8 relations x 8 partitions x 300 pages)@.@.";
  List.iter
    (fun think ->
      Format.printf "--- mean think time %.0f s ---@." think;
      Format.printf "%-6s  %10s  %12s  %11s  %9s@." "algo" "tput tx/s"
        "response s" "abort ratio" "disk util";
      List.iter
        (fun algorithm ->
          let r = run ~algorithm ~think in
          Format.printf "%-6s  %10.2f  %12.2f  %11.3f  %9.2f@."
            (Params.cc_algorithm_name algorithm)
            r.Ddbm.Sim_result.throughput r.Ddbm.Sim_result.mean_response
            r.Ddbm.Sim_result.abort_ratio r.Ddbm.Sim_result.proc_disk_util)
        algorithms;
      Format.printf "@.")
    [ 4.; 8.; 16. ];
  Format.printf
    "Blocking beats restarts under contention: the more an algorithm@.\
     relies on aborts to resolve conflicts (OPT most of all), the more@.\
     work it wastes, exactly as the paper concludes.@."
