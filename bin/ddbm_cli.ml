(* Command-line front end: run one simulation of the distributed database
   machine and print its metrics, or sweep think times. *)

open Cmdliner
open Ddbm_model

let algorithm_conv =
  let parse s =
    match Params.cc_algorithm_of_string s with
    | Some a -> Ok a
    | None ->
        Error (`Msg (Printf.sprintf "unknown algorithm %S (2pl|ww|bto|opt|no_dc)" s))
  in
  let print fmt a = Format.pp_print_string fmt (Params.cc_algorithm_name a) in
  Arg.conv (parse, print)

let faults_conv =
  let parse s =
    match Fault_plan.of_spec s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  let print fmt p = Format.pp_print_string fmt (Fault_plan.to_spec p) in
  Arg.conv (parse, print)

let arrivals_conv =
  let parse s =
    match Arrival.of_spec s with Ok a -> Ok a | Error e -> Error (`Msg e)
  in
  let print fmt a = Format.pp_print_string fmt (Arrival.to_spec a) in
  Arg.conv (parse, print)

let params_term =
  let open Term.Syntax in
  let+ algorithm =
    Arg.(
      value
      & opt algorithm_conv Params.Twopl
      & info [ "a"; "algorithm" ] ~docv:"ALGO"
          ~doc:
            "Concurrency control algorithm: 2pl, ww, bto, opt, no_dc, or \
             the extensions wd (wait-die), 2pl-d (deferred write locks) \
             and o2pl (deferred replica write locks).")
  and+ nodes =
    Arg.(
      value & opt int 8
      & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of processing nodes.")
  and+ degree =
    Arg.(
      value & opt (some int) None
      & info [ "d"; "degree" ] ~docv:"D"
          ~doc:
            "Partitioning degree (1, 2, 4 or 8): how many nodes each \
             relation is declustered across. Defaults to the node count.")
  and+ think =
    Arg.(
      value & opt float 0.
      & info [ "t"; "think" ] ~docv:"SECONDS" ~doc:"Mean terminal think time.")
  and+ file_size =
    Arg.(
      value & opt int 300
      & info [ "file-size" ] ~docv:"PAGES" ~doc:"Pages per partition file.")
  and+ replication =
    Arg.(
      value & opt int 1
      & info [ "replication" ] ~docv:"COPIES"
          ~doc:"Copies of each file (read-one/write-all; 1 = none).")
  and+ terminals =
    Arg.(
      value & opt int 128
      & info [ "terminals" ] ~docv:"N" ~doc:"Number of terminals at the host.")
  and+ startup =
    Arg.(
      value & opt float 2_000.
      & info [ "startup-cost" ] ~docv:"INSTR"
          ~doc:"CPU instructions to start a process (InstPerStartup).")
  and+ msg_cost =
    Arg.(
      value & opt float 1_000.
      & info [ "msg-cost" ] ~docv:"INSTR"
          ~doc:"CPU instructions per message end (InstPerMsg).")
  and+ sequential =
    Arg.(
      value & flag
      & info [ "sequential" ]
          ~doc:"Execute cohorts sequentially (RPC style) instead of in \
                parallel.")
  and+ logging =
    Arg.(
      value & flag
      & info [ "logging" ]
          ~doc:"Model forced log writes at prepare (off by default, per \
                the paper's footnote 5).")
  and+ log_disk =
    Arg.(
      value & flag
      & info [ "log-disk" ]
          ~doc:"Model a per-node log disk: cohorts append write-ahead-log \
                records and block on FCFS log forces, and recovery \
                replays the durable log after a crash.")
  and+ log_force =
    Arg.(
      value
      & opt (enum [ ("prepare", Params.At_prepare); ("commit", Params.At_commit) ])
          Params.At_prepare
      & info [ "log-force" ] ~docv:"POLICY"
          ~doc:
            "Log force policy with --log-disk: 'prepare' (default) forces \
             only the prepare record before voting; 'commit' additionally \
             forces the commit record before acknowledging.")
  and+ replicas =
    Arg.(
      value & opt int 0
      & info [ "replicas" ] ~docv:"K"
          ~doc:
            "Ship each updating cohort's write-set to $(docv) backup \
             nodes at work-done; when the primary crashes mid-transaction \
             the coordinator fails over to a live backup instead of \
             aborting (0 = off).")
  and+ recovery_jobs =
    Arg.(
      value & opt int 1
      & info [ "recovery-jobs" ] ~docv:"N"
          ~doc:
            "Redo chains replayed concurrently during crash recovery \
             (with --log-disk). 1 (default) is the serial redo pass; with \
             $(docv) > 1 the dependency records logged with each update \
             partition the commit-decided set into independent chains \
             replayed on $(docv) worker fibers. A torn log tail degrades \
             the pass back to serial physical redo.")
  and+ warmup =
    Arg.(
      value & opt float 60.
      & info [ "warmup" ] ~docv:"SECONDS" ~doc:"Warm-up period to discard.")
  and+ measure =
    Arg.(
      value & opt float 600.
      & info [ "measure" ] ~docv:"SECONDS" ~doc:"Measurement window length.")
  and+ seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")
  and+ faults =
    Arg.(
      value
      & opt faults_conv Fault_plan.zero
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault plan, e.g. \
             'loss=0.05,dup=0.01,delay=0.002,crash=0\\@10+5,crash=host\\@30+2,\\
             crash-rate=0.01,mttr=2,timeout=1,timeout-cap=8,retries=4,\\
             fault-seed=7'. Message-loss/duplication/extra-delay \
             probabilities apply to commit-protocol traffic; crash=TGT\\@AT+DUR \
             downs host or procN at time AT for DUR seconds; crash-rate \
             adds Poisson crashes with mean repair time mttr; torn-tail=P \
             tears the WAL's dropped volatile tail at a crash with \
             probability P (recovery degrades to serial physical redo); \
             recrash=P crashes a node again during its own recovery with \
             probability P (recovery is re-entrant). All faults \
             draw from fault-seed only, so runs replay bit-for-bit.")
  and+ arrivals =
    Arg.(
      value
      & opt arrivals_conv Arrival.zero
      & info [ "arrivals" ] ~docv:"SPEC"
          ~doc:
            "Open-loop arrival process + admission control, replacing the \
             closed-loop terminals, e.g. 'qps=50,cap=64,mpl=16' \
             (constant-rate Poisson) or \
             'profile=ramp:0..80/30,hold:80/60,spike:20^300/10'. Profile \
             segments: hold:R/D, ramp:A..B/D, sine:M~A/P/D (diurnal), \
             spike:B^P/D (flash crowd). Admission keys: cap=N (queue \
             capacity), shed=newest|oldest (full-queue policy), \
             deadline=D (drop queued arrivals older than D), mpl=N (max \
             in-flight; 0 = unlimited), retry-base=B/retry-cap=C \
             (capped-exponential restart backoff). Arrivals draw from a \
             dedicated RNG stream, so runs replay bit-for-bit; the \
             default is the paper's closed loop.")
  in
  let degree = Option.value degree ~default:nodes in
  let default = Params.default in
  {
    Params.database =
      {
        default.Params.database with
        Params.num_proc_nodes = nodes;
        partitioning_degree = degree;
        file_size;
        replication;
      };
    workload =
      {
        default.Params.workload with
        Params.think_time = think;
        num_terminals = terminals;
        exec_pattern = (if sequential then Params.Sequential else Params.Parallel);
      };
    resources =
      {
        default.Params.resources with
        Params.inst_per_startup = startup;
        inst_per_msg = msg_cost;
        model_logging = logging;
      };
    cc = { default.Params.cc with Params.algorithm };
    run = { default.Params.run with Params.seed; warmup; measure };
    durability =
      {
        Params.default_durability with
        Params.log_disk;
        log_force;
        replicas;
        recovery_jobs;
      };
    faults;
    arrivals;
  }

(* --- observability ------------------------------------------------- *)

let obs_flags =
  let open Term.Syntax in
  let+ trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the typed event trace to $(docv): Chrome trace_event \
             JSON (openable at ui.perfetto.dev or chrome://tracing) by \
             default, or one JSON object per event when $(docv) ends in \
             .jsonl.")
  and+ sample_interval =
    Arg.(
      value
      & opt (some float) None
      & info [ "sample-interval" ] ~docv:"SECONDS"
          ~doc:
            "Emit a time-series sample (active transactions, per-node \
             CPU/disk utilization, queue lengths) into the trace every \
             $(docv) simulated seconds.")
  and+ metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the end-of-run metric registry — counters, per-node \
             utilization/queue rollups, and tail-latency histograms \
             (p50/p90/p95/p99/p999 for response time, every \
             decomposition component, 2PC in-doubt, WAL force, \
             recovery) — as Prometheus text at $(docv) plus a JSON \
             sibling ($(docv) with a .json extension; pass a .json \
             path to swap the two).")
  in
  (trace_out, sample_interval, metrics_out)

(* [--metrics-out FILE] writes both exposition formats: Prometheus text
   and JSON, at sibling paths derived from FILE's extension. *)
let metrics_paths path =
  if Filename.check_suffix path ".json" then
    (Filename.remove_extension path ^ ".prom", path)
  else (path, Filename.remove_extension path ^ ".json")

let write_metrics m path =
  let reg = Ddbm.Machine.registry m in
  let prom_path, json_path = metrics_paths path in
  let write p s =
    let oc = open_out p in
    output_string oc s;
    close_out oc
  in
  write prom_path (Metric.to_prometheus reg);
  write json_path (Metric.to_json reg);
  (prom_path, json_path)

(* Open the trace file chosen by [--trace-out], pick the exporter by
   extension, attach it to [m]'s typed-event tracer, and return the
   finalizer that terminates and closes the file. *)
let attach_trace_file m ?num_nodes path =
  let tracer = Ddbm.Machine.enable_events m in
  let oc = open_out path in
  let out = output_string oc in
  if Filename.check_suffix path ".jsonl" then begin
    Tracer.attach tracer (Ddbm.Trace_export.jsonl_sink out);
    fun () -> close_out oc
  end
  else begin
    let chrome = Ddbm.Trace_export.Chrome.create ?num_nodes out in
    Tracer.attach tracer (Ddbm.Trace_export.Chrome.sink chrome);
    fun () ->
      Ddbm.Trace_export.Chrome.close chrome;
      close_out oc
  end

(* One run with the observability flags applied; equivalent to
   [Machine.run] when all are off. *)
let run_observed ~trace_out ~sample_interval ~metrics_out (params : Params.t) =
  match (trace_out, sample_interval, metrics_out) with
  | None, None, None -> Ddbm.Machine.run params
  | _ ->
      let m = Ddbm.Machine.create params in
      Option.iter
        (fun interval -> Ddbm.Machine.enable_sampler m ~interval)
        sample_interval;
      let close =
        match trace_out with
        | None -> fun () -> ()
        | Some path ->
            attach_trace_file m
              ~num_nodes:params.Params.database.Params.num_proc_nodes
              path
      in
      let result =
        Fun.protect ~finally:close (fun () -> Ddbm.Machine.execute m)
      in
      Option.iter
        (fun path -> ignore (write_metrics m path : string * string))
        metrics_out;
      result

(* Derive a per-run trace filename: "trace.json" + "-2pl-t4" ->
   "trace-2pl-t4.json". Used when one invocation performs several runs. *)
let with_suffix path suffix =
  match Filename.extension path with
  | "" -> path ^ suffix
  | ext -> Filename.remove_extension path ^ suffix ^ ext

(* --- parallelism --------------------------------------------------- *)

let jobs_term =
  let open Term.Syntax in
  let+ jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for parallel simulation batches (default: the \
             number of cores). Every per-seed result is bit-identical to \
             --jobs 1; only wall-clock time changes.")
  in
  Par.Pool.create ?jobs ()

(* --- commands ------------------------------------------------------ *)

let run_cmd =
  let doc = "Run one simulation and print its metrics." in
  let term =
    let open Term.Syntax in
    let+ params = params_term
    and+ csv =
      Arg.(value & flag & info [ "csv" ] ~doc:"Print a CSV row instead.")
    and+ replicates =
      Arg.(
        value & opt int 1
        & info [ "r"; "replicates" ] ~docv:"N"
            ~doc:"Run N independent replicates (seed, seed+1, ...) and \
                  report mean ± 95% CI across them.")
    and+ trace_out, sample_interval, metrics_out = obs_flags in
    if csv then print_endline Ddbm.Sim_result.csv_header;
    let tput = Desim.Stats.Tally.create () in
    let resp = Desim.Stats.Tally.create () in
    for i = 0 to replicates - 1 do
      let params =
        {
          params with
          Params.run =
            {
              params.Params.run with
              Params.seed = params.Params.run.Params.seed + i;
            };
        }
      in
      let per_replicate out =
        (* one file per replicate *)
        if replicates = 1 then out
        else
          Option.map (fun path -> with_suffix path (Printf.sprintf "-r%d" i)) out
      in
      let trace_out = per_replicate trace_out in
      let metrics_out = per_replicate metrics_out in
      let result = run_observed ~trace_out ~sample_interval ~metrics_out params in
      Desim.Stats.Tally.add tput result.Ddbm.Sim_result.throughput;
      Desim.Stats.Tally.add resp result.Ddbm.Sim_result.mean_response;
      if csv then print_endline (Ddbm.Sim_result.to_csv_row result)
      else begin
        Format.printf "%a@." Ddbm.Sim_result.pp result;
        Format.printf "abort reasons:";
        List.iter
          (fun (name, n) -> Format.printf " %s=%d" name n)
          result.Ddbm.Sim_result.abort_reasons;
        Format.printf
          "@.sim events: %d, simulated %.0f s, wall %.2f s (%.0f events/s, \
           heap high-water %d words)@."
          result.Ddbm.Sim_result.sim_events result.Ddbm.Sim_result.sim_end
          result.Ddbm.Sim_result.wall_seconds
          result.Ddbm.Sim_result.events_per_sec
          result.Ddbm.Sim_result.top_heap_words;
        Option.iter
          (fun path -> Format.printf "trace written to %s@." path)
          trace_out;
        Option.iter
          (fun path ->
            let prom, json = metrics_paths path in
            Format.printf "metrics written to %s and %s@." prom json)
          metrics_out
      end
    done;
    if replicates > 1 && not csv then
      Format.printf
        "@.across %d replicates: throughput %.3f ± %.3f tx/s, response \
         %.3f ± %.3f s@."
        replicates
        (Desim.Stats.Tally.mean tput)
        (Desim.Stats.Tally.ci95 tput)
        (Desim.Stats.Tally.mean resp)
        (Desim.Stats.Tally.ci95 resp)
  in
  Cmd.v (Cmd.info "run" ~doc) term

let sweep_cmd =
  let doc = "Sweep think time for every algorithm; print CSV rows." in
  let term =
    let open Term.Syntax in
    let+ params = params_term
    and+ thinks =
      Arg.(
        value
        & opt (list float) [ 0.; 2.; 4.; 8.; 12.; 24.; 48.; 120. ]
        & info [ "thinks" ] ~docv:"T1,T2,..."
            ~doc:"Think times to sweep (seconds).")
    and+ trace_out, sample_interval, metrics_out = obs_flags
    and+ pool = jobs_term in
    print_endline Ddbm.Sim_result.csv_header;
    (* The sweep points are independent (seed, params) runs, so they fan
       out over the pool; results print in sweep order regardless of job
       count, and per-point trace files (distinct paths) are written by
       whichever worker runs the point. *)
    let points =
      List.concat_map
        (fun algorithm -> List.map (fun think -> (algorithm, think)) thinks)
        [ Params.No_dc; Params.Twopl; Params.Bto; Params.Wound_wait; Params.Opt ]
    in
    let results =
      Par.Pool.map pool
        (fun (algorithm, think) ->
          let params =
            {
              params with
              Params.workload =
                { params.Params.workload with Params.think_time = think };
              cc = { params.Params.cc with Params.algorithm };
            }
          in
          let per_point out =
            (* one file per (algorithm, think time) point *)
            Option.map
              (fun path ->
                with_suffix path
                  (Printf.sprintf "-%s-t%g"
                     (Params.cc_algorithm_name algorithm)
                     think))
              out
          in
          let trace_out = per_point trace_out in
          let metrics_out = per_point metrics_out in
          run_observed ~trace_out ~sample_interval ~metrics_out params)
        points
    in
    List.iter (fun r -> print_endline (Ddbm.Sim_result.to_csv_row r)) results
  in
  Cmd.v (Cmd.info "sweep" ~doc) term

let check_cmd =
  let doc =
    "Run the cross-algorithm conformance sweep: deterministically \
     generated configurations, each checked for serializability, metric \
     invariants, bit-for-bit determinism and workload agreement across \
     every registered algorithm. Configurations fan out over --jobs \
     worker domains; the verdict is independent of job count. Exits 1 \
     on the first failing configuration."
  in
  let term =
    let open Term.Syntax in
    let+ configs =
      Arg.(
        value & opt int 25
        & info [ "configs" ] ~docv:"N"
            ~doc:"Number of generated configurations to check.")
    and+ gen_seed =
      Arg.(
        value & opt int 0xC0DE
        & info [ "gen-seed" ] ~docv:"SEED"
            ~doc:"Seed for the configuration generator.")
    and+ artifact_dir =
      Arg.(
        value
        & opt (some string) None
        & info [ "artifact-dir" ] ~docv:"DIR"
            ~doc:"Write a replay artifact for any failure into $(docv).")
    and+ pool = jobs_term in
    match Ddbm_check.Conformance.sweep ~configs ~gen_seed ?artifact_dir pool with
    | Ok n ->
        Format.printf "conformance: %d configurations clean (jobs=%d)@." n
          (Par.Pool.jobs pool)
    | Error (f, artifact) ->
        Format.eprintf "%s@." (Ddbm_check.Conformance.failure_to_string f);
        Option.iter
          (fun path -> Format.eprintf "replay artifact: %s@." path)
          artifact;
        exit 1
  in
  Cmd.v (Cmd.info "check" ~doc) term

let replay_cmd =
  let doc =
    "Re-execute a conformance failure artifact (seed + params + algorithm, \
     as written by the conformance harness) with the serializability \
     audit, invariant checks, determinism check and a tail of the typed \
     event stream attached. Exits 1 when the failure reproduces."
  in
  let term =
    let open Term.Syntax in
    let+ file =
      Arg.(
        required
        & pos 0 (some non_dir_file) None
        & info [] ~docv:"ARTIFACT" ~doc:"Replay artifact file.")
    and+ trace_events =
      Arg.(
        value & opt int 40
        & info [ "trace-events" ] ~docv:"N"
            ~doc:
              "Print the last N lifecycle events (typed, messages and \
               samples skipped) of a reproduced failure.")
    and+ trace_out, sample_interval, metrics_out = obs_flags in
    (* The determinism check inside the replay runs each machine twice,
       and both runs must be instrumented identically (the sampler
       schedules engine events). The typed-event file sink is attached to
       the first machine only — the repeat would just rewrite identical
       bytes. The first machine is also kept for the end-of-run metric
       registry: by the time replay returns it has been executed. *)
    let closers = ref [] in
    let first = ref true in
    let first_machine = ref None in
    let instrument m =
      if Option.is_none !first_machine then first_machine := Some m;
      Option.iter
        (fun interval -> Ddbm.Machine.enable_sampler m ~interval)
        sample_interval;
      match trace_out with
      | Some path when !first ->
          first := false;
          closers := attach_trace_file m path :: !closers
      | Some _ | None -> ()
    in
    let close_traces () = List.iter (fun f -> f ()) !closers in
    let replayed =
      Fun.protect ~finally:close_traces (fun () ->
          Ddbm_check.Conformance.replay_file ~instrument file)
    in
    match replayed with
    | Error msg ->
        Format.eprintf "%s@." msg;
        exit 2
    | Ok outcome -> (
        let a = outcome.Ddbm_check.Conformance.artifact in
        Format.printf "replaying %s (seed %d): %s@."
          (Params.cc_algorithm_name
             a.Ddbm_check.Replay.params.Params.cc.Params.algorithm)
          a.Ddbm_check.Replay.params.Params.run.Params.seed
          (if a.Ddbm_check.Replay.kind = "" then "(no recorded kind)"
           else a.Ddbm_check.Replay.kind);
        if a.Ddbm_check.Replay.detail <> "" then
          Format.printf "recorded failure: %s@." a.Ddbm_check.Replay.detail;
        (let plan = a.Ddbm_check.Replay.params.Params.faults in
         if not (Fault_plan.is_zero plan) then
           Format.printf "fault plan: %s@." (Fault_plan.to_spec plan));
        (match (metrics_out, !first_machine) with
        | Some path, Some m ->
            let prom, json = write_metrics m path in
            Format.printf "metrics written to %s and %s@." prom json
        | Some path, None ->
            Format.eprintf "no machine was instrumented; %s not written@." path
        | None, _ -> ());
        match outcome.Ddbm_check.Conformance.reproduced with
        | None ->
            Option.iter
              (fun r -> Format.printf "%a@." Ddbm.Sim_result.pp r)
              outcome.Ddbm_check.Conformance.result;
            Format.printf "failure did NOT reproduce: run is conforming@."
        | Some f ->
            Format.printf "failure REPRODUCED:@.%s@."
              (Ddbm_check.Conformance.failure_to_string f);
            let tail = outcome.Ddbm_check.Conformance.trace_tail in
            let n = List.length tail in
            let skipped = Stdlib.max 0 (n - trace_events) in
            if n > 0 then begin
              Format.printf "last %d traced events:@."
                (Stdlib.min n trace_events);
              List.iteri
                (fun i line -> if i >= skipped then Format.printf "  %s@." line)
                tail
            end;
            exit 1)
  in
  Cmd.v (Cmd.info "replay" ~doc) term

let trace_cmd =
  let doc =
    "Run one simulation with full observability: write a typed event \
     trace with time-series samples, reconstruct per-transaction \
     timelines, and print the response-time decomposition."
  in
  let term =
    let open Term.Syntax in
    let+ params = params_term
    and+ out =
      Arg.(
        value & opt string "trace.json"
        & info [ "o"; "out" ] ~docv:"FILE"
            ~doc:
              "Trace output file: Chrome trace_event JSON (open at \
               ui.perfetto.dev) by default, JSON-lines when $(docv) ends \
               in .jsonl.")
    and+ interval =
      Arg.(
        value & opt float 1.
        & info [ "sample-interval" ] ~docv:"SECONDS"
            ~doc:"Time-series sampling interval (simulated seconds).")
    in
    let m = Ddbm.Machine.create params in
    Ddbm.Machine.enable_sampler m ~interval;
    let tracer = Ddbm.Machine.enable_events m in
    let emitted = ref 0 in
    Tracer.attach tracer (fun ~time:_ _ -> incr emitted);
    let timeline = Ddbm.Timeline.of_params params in
    Tracer.attach tracer (Ddbm.Timeline.sink timeline);
    let close =
      attach_trace_file m
        ~num_nodes:params.Params.database.Params.num_proc_nodes out
    in
    let result = Fun.protect ~finally:close (fun () -> Ddbm.Machine.execute m) in
    Format.printf "%a@." Ddbm.Sim_result.pp result;
    Format.printf
      "%d typed events written to %s (%d committed transactions \
       reconstructed)@."
      !emitted out
      (List.length (Ddbm.Timeline.committed timeline));
    Format.printf
      "self-profile: %d sim events, wall %.2f s, %.0f events/s, heap \
       high-water %d words@."
      result.Ddbm.Sim_result.sim_events result.Ddbm.Sim_result.wall_seconds
      result.Ddbm.Sim_result.events_per_sec
      result.Ddbm.Sim_result.top_heap_words
  in
  Cmd.v (Cmd.info "trace" ~doc) term

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  let doc = "Carey & Livny 1989 distributed database machine simulator" in
  let info = Cmd.info "ddbm" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ run_cmd; sweep_cmd; check_cmd; replay_cmd; trace_cmd ]))
