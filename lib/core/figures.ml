(** Reproduction of every figure of the paper's evaluation (Section 4).

    Each figure is data: its labels plus, for a profile and think-time
    sweep, its series of cells. A cell names the simulation points it
    reads and a pure function from their results to y, so a figure's
    work-list is read off the declaration ({!points}) and rendering is
    cache lookups. Figure numbers match the paper:

    - Figs 2-7: machine size and parallelism (Section 4.2), 1-node vs
      8-node, small database.
    - Figs 8-13: partitioning impact at fixed 8-node size (Section 4.3),
      1-way vs 8-way declustering, both database sizes.
    - Figs 14-17 (+ the 20K-startup variants described in the text):
      system overheads (Section 4.4), response-time speedup vs
      partitioning degree under different message/startup costs. *)

open Ddbm_model
open Experiment

type cell = { x : float; reads : Params.t list; y : Sim_result.t list -> float }
type series = { label : string; cells : cell list }

type t = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : profile:profile -> thinks:float list -> series list;
}

let algo_label = Params.cc_algorithm_name
let tagged algorithm tag = Printf.sprintf "%s/%s" (algo_label algorithm) tag

(* A curve of [metric] over (x, point) pairs. *)
let curve label metric xps =
  let cell (x, p) = { x; reads = [ p ]; y = (fun rs -> metric (List.hd rs)) } in
  { label; cells = List.map cell xps }

(* A curve of [combine (metric num) (metric den)] over (x, num, den). *)
let ratio_curve label metric combine xpqs =
  let y rs = combine (metric (List.hd rs)) (metric (List.nth rs 1)) in
  let cell (x, num, den) = { x; reads = [ num; den ]; y } in
  { label; cells = List.map cell xpqs }

(* The points of [config] at each think time. *)
let by_think ~profile ~thinks ?(tweak = Fun.id) config =
  List.map
    (fun think ->
      (think, tweak (params_of_config ~profile { config with think })))
    thinks

(* The points of [config x] at each x. *)
let by ~profile xs config =
  List.map (fun x -> (x, params_of_config ~profile (config x))) xs

let throughput (r : Sim_result.t) = r.Sim_result.throughput
let response (r : Sim_result.t) = r.Sim_result.mean_response
let abort_ratio (r : Sim_result.t) = r.Sim_result.abort_ratio
let disk_util (r : Sim_result.t) = r.Sim_result.proc_disk_util
let cpu_util (r : Sim_result.t) = r.Sim_result.proc_cpu_util
let p99 (r : Sim_result.t) = r.Sim_result.response_p99
let safe_div a b = if Float.equal b 0. then Float.nan else a /. b
let inverse_div a b = safe_div b a
let contended = [ Params.Twopl; Params.Bto; Params.Wound_wait; Params.Opt ]
let one_node = { base_config with nodes = 1; degree = 1 }
let n_node n = { base_config with nodes = n; degree = n }
let one_way = { base_config with nodes = 8; degree = 1 }
let eight_way = { base_config with nodes = 8; degree = 8 }

(* ---------------- Section 4.2: machine size and parallelism -------- *)

(* Figs 2/3/6/7: metric vs think time for the 1-node and 8-node systems. *)
let size_comparison ~id ~title ~ylabel metric =
  let series ~profile ~thinks =
    List.concat_map
      (fun (config, tag) ->
        List.map
          (fun algorithm ->
            curve (tagged algorithm tag) metric
              (by_think ~profile ~thinks { config with algorithm }))
          all_algorithms)
      [ (one_node, "1n"); (n_node 8, "8n") ]
  in
  { id; title; xlabel = "think"; ylabel; series }

(* Figs 4/5/8/9 (and the 4- and 16-node variants of the text):
   [combine (metric num) (metric den)] vs think time, per algorithm. *)
let speedup ~id ~title ~ylabel ~num ~den metric combine =
  let series ~profile ~thinks =
    List.map
      (fun algorithm ->
        let at c = params_of_config ~profile { c with algorithm } in
        ratio_curve (algo_label algorithm) metric combine
          (List.map
             (fun think ->
               (think, at { num with think }, at { den with think }))
             thinks))
      all_algorithms
  in
  { id; title; xlabel = "think"; ylabel; series }

let fig2 =
  size_comparison ~id:"fig2" ~title:"Throughput, 1-node vs 8-node (small DB)"
    ~ylabel:"throughput (tx/s)" throughput

let fig3 =
  size_comparison ~id:"fig3"
    ~title:"Response time, 1-node vs 8-node (small DB)"
    ~ylabel:"response time (s)" response

let fig4 =
  speedup ~id:"fig4" ~title:"Throughput speedup, 8-node / 1-node"
    ~ylabel:"throughput speedup" ~num:(n_node 8) ~den:one_node throughput
    safe_div

let fig5 =
  speedup ~id:"fig5" ~title:"Response time speedup, 8-node / 1-node"
    ~ylabel:"response time speedup" ~num:(n_node 8) ~den:one_node response
    inverse_div

let fig6 =
  size_comparison ~id:"fig6" ~title:"Disk utilization, 1-node vs 8-node"
    ~ylabel:"disk utilization" disk_util

let fig7 =
  size_comparison ~id:"fig7" ~title:"CPU utilization, 1-node vs 8-node"
    ~ylabel:"CPU utilization" cpu_util

let fig4n =
  speedup ~id:"fig4n"
    ~title:"Throughput speedup, 4-node / 1-node (Section 4.2 text)"
    ~ylabel:"throughput speedup" ~num:(n_node 4) ~den:one_node throughput
    safe_div

let fig5n =
  speedup ~id:"fig5n"
    ~title:"Response time speedup, 4-node / 1-node (Section 4.2 text)"
    ~ylabel:"response time speedup" ~num:(n_node 4) ~den:one_node response
    inverse_div

(* 16-node configuration (the paper's footnote 7 reports that 16- and
   32-node runs showed similar trends). With 8 partitions per relation,
   each relation spans 8 of the 16 nodes. *)
let fig16n =
  speedup ~id:"fig16n"
    ~title:"Throughput speedup, 16-node / 1-node (footnote 7 check)"
    ~ylabel:"throughput speedup"
    ~num:{ base_config with nodes = 16; degree = 8 }
    ~den:one_node throughput safe_div

(* ---------------- Section 4.3: partitioning impact ----------------- *)

(* Figs 8/9: response-time speedup of 8-way over 1-way partitioning. *)
let partition_speedup ~id ~title file_size =
  speedup ~id ~title ~ylabel:"response time speedup (8-way / 1-way)"
    ~num:{ eight_way with file_size } ~den:{ one_way with file_size } response
    inverse_div

let fig8 =
  partition_speedup ~id:"fig8"
    ~title:"Response time improvement from 8-way partitioning (large DB)" 1200

let fig9 =
  partition_speedup ~id:"fig9"
    ~title:"Response time improvement from 8-way partitioning (small DB)" 300

(* Figs 10/11: percentage response-time degradation relative to NO_DC. *)
let degradation ~id ~title config =
  let series ~profile ~thinks =
    List.map
      (fun algorithm ->
        let at algorithm think =
          params_of_config ~profile { config with algorithm; think }
        in
        ratio_curve (algo_label algorithm) response
          (fun r_alg r_nodc -> 100. *. safe_div (r_alg -. r_nodc) r_nodc)
          (List.map
             (fun think -> (think, at algorithm think, at Params.No_dc think))
             thinks))
      contended
  in
  {
    id;
    title;
    xlabel = "think";
    ylabel = "% response time degradation vs NO_DC";
    series;
  }

let fig10 =
  degradation ~id:"fig10"
    ~title:"Degradation vs NO_DC, 8-way partitioning (small DB)" eight_way

let fig11 =
  degradation ~id:"fig11"
    ~title:"Degradation vs NO_DC, 1-way partitioning (small DB)" one_way

(* Figs 12/13: abort ratios. *)
let abort_ratios ~id ~title config =
  let series ~profile ~thinks =
    List.map
      (fun algorithm ->
        curve (algo_label algorithm) abort_ratio
          (by_think ~profile ~thinks { config with algorithm }))
      contended
  in
  {
    id;
    title;
    xlabel = "think";
    ylabel = "abort ratio (aborts per commit)";
    series;
  }

let fig12 =
  abort_ratios ~id:"fig12" ~title:"Abort ratio, 8-way partitioning (small DB)"
    eight_way

let fig13 =
  abort_ratios ~id:"fig13" ~title:"Abort ratio, 1-way partitioning (small DB)"
    one_way

(* ---------------- Section 4.4: system overheads -------------------- *)

(* Figs 14-17: response-time speedup (relative to 1-way partitioning) as a
   function of partitioning degree, at a fixed think time, under given
   startup/message costs. *)
let overhead_speedup ~id ~title ~think ~inst_per_startup ~inst_per_msg =
  let series ~profile ~thinks:_ =
    List.map
      (fun algorithm ->
        let at degree =
          params_of_config ~profile
            {
              base_config with
              algorithm;
              nodes = 8;
              degree;
              think;
              inst_per_startup;
              inst_per_msg;
            }
        in
        ratio_curve (algo_label algorithm) response safe_div
          (List.map
             (fun degree -> (float_of_int degree, at 1, at degree))
             [ 1; 2; 4; 8 ]))
      all_algorithms
  in
  {
    id;
    title;
    xlabel = "partitioning degree";
    ylabel = "response time speedup vs 1-way";
    series;
  }

let fig14 =
  overhead_speedup ~id:"fig14" ~title:"Speedup vs degree, no overheads, think 0"
    ~think:0. ~inst_per_startup:0. ~inst_per_msg:0.

let fig15 =
  overhead_speedup ~id:"fig15"
    ~title:"Speedup vs degree, no overheads, think 8 s" ~think:8.
    ~inst_per_startup:0. ~inst_per_msg:0.

let fig16 =
  overhead_speedup ~id:"fig16"
    ~title:"Speedup vs degree, 4K-instruction messages, think 0" ~think:0.
    ~inst_per_startup:0. ~inst_per_msg:4_000.

let fig17 =
  overhead_speedup ~id:"fig17"
    ~title:"Speedup vs degree, 4K-instruction messages, think 8 s" ~think:8.
    ~inst_per_startup:0. ~inst_per_msg:4_000.

let fig16s =
  overhead_speedup ~id:"fig16s"
    ~title:"Speedup vs degree, 20K-instruction startup, think 0 (Sec 4.4 text)"
    ~think:0. ~inst_per_startup:20_000. ~inst_per_msg:0.

let fig17s =
  overhead_speedup ~id:"fig17s"
    ~title:
      "Speedup vs degree, 20K-instruction startup, think 8 s (Sec 4.4 text)"
    ~think:8. ~inst_per_startup:20_000. ~inst_per_msg:0.

(* ---------------- Ablations beyond the paper's figures ------------- *)

(* Sequential (RPC-style, Non-Stop SQL) vs parallel (Gamma-style) cohort
   execution, motivated by the paper's introduction. *)
let abl_exec =
  let series ~profile ~thinks =
    List.concat_map
      (fun (exec_pattern, tag) ->
        List.map
          (fun algorithm ->
            curve (tagged algorithm tag) response
              (by_think ~profile ~thinks
                 { eight_way with exec_pattern; algorithm }))
          [ Params.No_dc; Params.Twopl; Params.Opt ])
      [ (Params.Parallel, "par"); (Params.Sequential, "seq") ]
  in
  {
    id = "abl-exec";
    title = "Sequential (RPC) vs parallel cohort execution, 8-way";
    xlabel = "think";
    ylabel = "response time (s)";
    series;
  }

(* Sensitivity of 2PL to the Snoop's DetectionInterval (footnote 2 notes
   that such intervals were critical factors in related studies). *)
let abl_snoop =
  let series ~profile ~thinks:_ =
    let points =
      by ~profile [ 0.25; 0.5; 1.0; 2.0; 4.0 ] (fun detection_interval ->
          {
            eight_way with
            algorithm = Params.Twopl;
            think = 8.;
            detection_interval;
          })
    in
    [ curve "response" response points; curve "abort-ratio" abort_ratio points ]
  in
  {
    id = "abl-snoop";
    title = "2PL sensitivity to the Snoop detection interval (think 8 s)";
    xlabel = "detection interval (s)";
    ylabel = "response time (s) / abort ratio";
    series;
  }

(* Transaction size (the paper also ran 32-read transactions, footnote 9). *)
let abl_txsize =
  let series ~profile ~thinks:_ =
    List.map
      (fun algorithm ->
        curve (algo_label algorithm) abort_ratio
          (List.map
             (fun pages_per_partition ->
               ( float_of_int (8 * pages_per_partition),
                 params_of_config ~profile
                   { eight_way with algorithm; think = 8.; pages_per_partition }
               ))
             [ 4; 8; 16 ]))
      contended
  in
  {
    id = "abl-txsize";
    title = "Contention vs transaction size (total reads), think 8 s";
    xlabel = "reads per transaction";
    ylabel = "abort ratio";
    series;
  }

(* Write probability: from read-only to update-heavy workloads. *)
let abl_writeprob =
  let series ~profile ~thinks:_ =
    List.map
      (fun algorithm ->
        curve (algo_label algorithm) throughput
          (by ~profile [ 0.0; 0.1; 0.25; 0.5 ] (fun write_prob ->
               { eight_way with algorithm; think = 8.; write_prob })))
      all_algorithms
  in
  {
    id = "abl-writeprob";
    title = "Throughput vs write probability, think 8 s";
    xlabel = "write probability";
    ylabel = "throughput (tx/s)";
    series;
  }

(* The terminal populations of the multiprogramming-level figures, at
   zero think time. *)
let by_population ~profile algorithm =
  List.map
    (fun terminals ->
      ( float_of_int terminals,
        params_of_config ~profile
          { eight_way with algorithm; think = 0.; terminals } ))
    [ 16; 32; 64; 128; 192 ]

(* Multiprogramming level: the classic thrashing curve as the terminal
   population grows at zero think time. *)
let abl_mpl =
  let series ~profile ~thinks:_ =
    List.map
      (fun algorithm ->
        curve (algo_label algorithm) throughput
          (by_population ~profile algorithm))
      all_algorithms
  in
  {
    id = "abl-mpl";
    title = "Throughput vs terminal population (think 0): thrashing";
    xlabel = "terminals";
    ylabel = "throughput (tx/s)";
    series;
  }

(* Tail latency vs terminal population: the paper reports only means, so
   its blocking-vs-restart verdict is a mean-response verdict. With the
   deterministic histograms the tails are visible: do 2PL (blocking
   piles up lock queues) and OPT (restarts stretch a minority of
   transactions over many attempts) cross at the same population for
   p99 as for the mean? *)
let tail_mpl =
  let series ~profile ~thinks:_ =
    List.concat_map
      (fun (metric, tag) ->
        List.map
          (fun algorithm ->
            curve (tagged algorithm tag) metric
              (by_population ~profile algorithm))
          [ Params.Twopl; Params.Opt ])
      [ (response, "mean"); (p99, "p99") ]
  in
  {
    id = "tail-mpl";
    title = "Tail latency vs terminal population (think 0): 2PL vs OPT";
    xlabel = "terminals";
    ylabel = "response time (s), mean and p99";
    series;
  }

(* Replicated data (the [Care88] substrate the paper's model includes but
   does not exercise): reproduce footnote 13 — with several copies per
   item and expensive messages, plain 2PL's write-all-at-access messages
   erode its advantage until OPT catches it, while O2PL (write locks on
   remote copies deferred to the commit protocol) restores 2PL's
   dominance. x axis: per-message CPU cost. *)
let ext_replication =
  let series ~profile ~thinks:_ =
    List.map
      (fun algorithm ->
        curve (algo_label algorithm) throughput
          (by ~profile [ 0.; 1_000.; 2_000.; 4_000.; 8_000. ]
             (fun inst_per_msg ->
               {
                 eight_way with
                 algorithm;
                 think = 8.;
                 replication = 3;
                 inst_per_msg;
               })))
      [ Params.Twopl; Params.O2pl; Params.Opt; Params.No_dc ]
  in
  {
    id = "ext-repl";
    title =
      "Replicated data (3 copies): throughput vs message cost (footnote 13)";
    xlabel = "instructions per message";
    ylabel = "throughput (tx/s)";
    series;
  }

(* Logging model: verify the paper's footnote-5 assumption that forcing
   log pages prior to commit is not the bottleneck. *)
let abl_logging =
  let series ~profile ~thinks =
    List.concat_map
      (fun (model_logging, tag) ->
        let tweak (p : Params.t) =
          {
            p with
            Params.resources = { p.Params.resources with Params.model_logging };
          }
        in
        List.map
          (fun algorithm ->
            curve (tagged algorithm tag) throughput
              (by_think ~profile ~thinks ~tweak { eight_way with algorithm }))
          [ Params.No_dc; Params.Twopl ])
      [ (false, "no-log"); (true, "log") ]
  in
  {
    id = "abl-logging";
    title = "Forced log writes at prepare (footnote 5 check), 8-way";
    xlabel = "think";
    ylabel = "throughput (tx/s)";
    series;
  }

(* Extension algorithms: wait-die (the other [Rose78] policy) and 2PL
   with deferred write locks ([Care89], footnote 13) against the paper's
   lock-based schemes, on the Figure 2 configuration. *)
let ext_algos =
  let series ~profile ~thinks =
    List.concat_map
      (fun (metric, tag) ->
        List.map
          (fun algorithm ->
            curve (tagged algorithm tag) metric
              (by_think ~profile ~thinks { eight_way with algorithm }))
          [
            Params.Twopl; Params.Twopl_defer; Params.Wound_wait;
            Params.Wait_die; Params.Opt;
          ])
      [ (throughput, "tput"); (abort_ratio, "abort") ]
  in
  {
    id = "ext-algos";
    title = "Extensions: wait-die and deferred-write-lock 2PL, 8-way";
    xlabel = "think";
    ylabel = "throughput (tx/s) / abort ratio";
    series;
  }

(* Restart policy: rerun the same access plan (the paper's model) vs
   drawing a fresh access set on restart ("fake restarts"). *)
let abl_restart =
  let series ~profile ~thinks =
    List.concat_map
      (fun (fresh_restart_plan, tag) ->
        let tweak (p : Params.t) =
          {
            p with
            Params.run = { p.Params.run with Params.fresh_restart_plan };
          }
        in
        List.map
          (fun algorithm ->
            curve (tagged algorithm tag) response
              (by_think ~profile ~thinks ~tweak { eight_way with algorithm }))
          [ Params.Twopl; Params.Opt ])
      [ (false, "same-plan"); (true, "fresh-plan") ]
  in
  {
    id = "abl-restart";
    title = "Restart policy: rerun same plan vs fresh access set, 8-way";
    xlabel = "think";
    ylabel = "response time (s)";
    series;
  }

(* Open-loop saturation: drive the 8-way machine with constant-QPS
   Poisson arrivals through and past its capacity. The paper's closed
   loop self-limits (128 terminals hold at most 128 transactions in
   flight); the open loop exposes the knee instead — throughput flattens
   at machine capacity while p99 climbs and the admission queue starts
   shedding. 2PL (blocking) vs OPT (restarts), as in the tail figures. *)
let saturation =
  let series ~profile ~thinks:_ =
    let at algorithm qps =
      let p =
        params_of_config ~profile { eight_way with algorithm; think = 0. }
      in
      ( qps,
        {
          p with
          Params.arrivals =
            { Arrival.zero with Arrival.process = Arrival.Qps qps; mpl = 64 };
        } )
    in
    List.concat_map
      (fun (metric, tag) ->
        List.map
          (fun algorithm ->
            curve (tagged algorithm tag) metric
              (List.map (at algorithm) [ 2.; 5.; 10.; 20.; 40.; 80. ]))
          [ Params.Twopl; Params.Opt ])
      [ (throughput, "tput"); (p99, "p99") ]
  in
  {
    id = "saturation";
    title = "Open-loop saturation: throughput and p99 vs offered QPS, 8-way";
    xlabel = "offered arrivals (tx/s)";
    ylabel = "throughput (tx/s) / p99 response (s)";
    series;
  }

(* ---------------- Registry ----------------------------------------- *)

let all =
  [
    fig2; fig3; fig4; fig5; fig6; fig7; fig4n; fig5n; fig16n; fig8; fig9;
    fig10; fig11; fig12; fig13; fig14; fig15; fig16; fig17; fig16s; fig17s;
    abl_exec; abl_snoop; abl_txsize; abl_writeprob; abl_mpl; tail_mpl;
    saturation; abl_restart; ext_algos; ext_replication; abl_logging;
  ]

let points ~profile ~thinks fig =
  Experiment.distinct
    (List.concat_map
       (fun s -> List.concat_map (fun c -> c.reads) s.cells)
       (fig.series ~profile ~thinks))

let frame fig series =
  {
    Figure.id = fig.id;
    title = fig.title;
    xlabel = fig.xlabel;
    ylabel = fig.ylabel;
    series;
  }

let render cache ~profile ~thinks fig =
  let point c = { Figure.x = c.x; y = c.y (List.map (run cache) c.reads) } in
  frame fig
    (List.map
       (fun s -> { Figure.label = s.label; points = List.map point s.cells })
       (fig.series ~profile ~thinks))

type generator =
  Experiment.cache -> profile:Experiment.profile -> thinks:float list ->
  Figure.t

let lookup id = List.find_opt (fun fig -> String.equal fig.id id) all

(* Under {!Experiment.collect_misses} a generator declares its points
   instead of rendering, and returns the figure without series. *)
let find id =
  Option.map
    (fun fig cache ~profile ~thinks ->
      match cache.collecting with
      | None -> render cache ~profile ~thinks fig
      | Some acc ->
          cache.collecting <-
            Some (List.rev_append (points ~profile ~thinks fig) acc);
          frame fig [])
    (lookup id)

let prefill_cache cache pool ~profile ~thinks gens =
  Experiment.prefill cache pool
    (List.concat_map
       (fun (id, _) ->
         match lookup id with
         | Some fig -> points ~profile ~thinks fig
         | None -> invalid_arg ("Figures.prefill_cache: unknown figure " ^ id))
       gens)
