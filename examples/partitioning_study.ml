(* Intra-transaction parallelism study (Section 4.3 of the paper): hold
   the machine at 8 nodes and vary only how many nodes each relation is
   declustered across. Degree 1 runs each transaction as a single
   sequential cohort at one node; degree 8 splits it into 8 parallel
   cohorts. Moderate load shows the parallelism payoff; the algorithms
   that resolve conflicts by blocking (2PL) keep more of it than the ones
   that abort (OPT).

   Run with:  dune exec examples/partitioning_study.exe *)

open Ddbm_model

let run ~algorithm ~degree ~think =
  let d = Params.default in
  let params =
    {
      d with
      Params.database =
        { d.Params.database with Params.partitioning_degree = degree };
      workload = { d.Params.workload with Params.think_time = think };
      cc = { d.Params.cc with Params.algorithm };
      run =
        { d.Params.run with Params.seed = 5; warmup = 40.; measure = 250. };
    }
  in
  Ddbm.Machine.run params

let () =
  let think = 8. in
  let degrees = [ 1; 2; 4; 8 ] in
  Format.printf
    "Partitioning study: 8-node machine, think %.0f s, small database@.@."
    think;
  List.iter
    (fun algorithm ->
      Format.printf "%s:@." (Params.cc_algorithm_name algorithm);
      let base = run ~algorithm ~degree:1 ~think in
      List.iter
        (fun degree ->
          let r =
            if degree = 1 then base else run ~algorithm ~degree ~think
          in
          Format.printf
            "  %d-way: response %6.2f s (speedup %.2fx), tput %6.2f tx/s, \
             abort ratio %.3f@."
            degree r.Ddbm.Sim_result.mean_response
            (base.Ddbm.Sim_result.mean_response
            /. r.Ddbm.Sim_result.mean_response)
            r.Ddbm.Sim_result.throughput r.Ddbm.Sim_result.abort_ratio)
        degrees;
      Format.printf "@.")
    [ Params.No_dc; Params.Twopl; Params.Opt ];
  Format.printf
    "Splitting a transaction into k cohorts shortens lock hold times@.\
     (2PL's blocking times drop markedly from 1-way to 8-way), but also@.\
     turns its deadlocks into slower-to-detect distributed ones — note@.\
     the abort-ratio jump as soon as transactions span several nodes.@.\
     OPT gains less from parallelism than NO_DC because it resolves@.\
     every conflict with an end-of-transaction abort, whose cost grows@.\
     with the number of cohorts. See EXPERIMENTS.md for the comparison@.\
     with the paper's Figures 8-13.@."
