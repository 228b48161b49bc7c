(* Benchmark harness.

   `main.exe [SCENARIO...]` regenerates every table/figure of the paper's
   evaluation section (Figures 2-17 plus the variants described in the
   running text), then runs the observability, fault, recovery, metrics,
   overload and parallel scenarios (or only the named ones). Each writes
   BENCH_<name>.json and exits 1 on a failed check or, under --gate, a
   failed gate. Per-layer costs are timed by benchsuite/. See
   EXPERIMENTS.md for the comparison against the paper. *)

(* Wall-clock timing of the harness itself is the whole point here. *)
(* lint: allow ambient file *)

open Cmdliner
open Ddbm
open Ddbm_model

(* ------------------------------------------------------------------ *)
(* Figure harness                                                      *)

let wall_now = Unix.gettimeofday

let run_figures ~pool ~profile ~ids ~thinks ~csv_dir ~verbose =
  let cache = Experiment.create_cache ~verbose () in
  let started = wall_now () in
  let generators =
    match ids with
    | [] -> Figures.all
    | ids ->
        List.map
          (fun id ->
            match Figures.find id with
            | Some g -> (id, g)
            | None ->
                Printf.eprintf "unknown figure id %S\n" id;
                exit 2)
          ids
  in
  Printf.printf
    "Reproducing %d figures (profile %s; %d think-time points; %d jobs)\n\n%!"
    (List.length generators)
    (Experiment.profile_name profile)
    (List.length thinks) (Par.Pool.jobs pool);
  (* All simulation work happens here, fanned out over the pool; the
     per-figure pass below is then pure cache hits and formatting. *)
  let n_runs = Figures.prefill_cache cache pool ~profile ~thinks generators in
  let prefill_wall = wall_now () -. started in
  List.iter
    (fun (id, generate) ->
      let figure = generate cache ~profile ~thinks in
      print_string (Figure.to_table figure);
      print_newline ();
      match csv_dir with
      | None -> ()
      | Some dir ->
          Out_channel.with_open_text (Filename.concat dir (id ^ ".csv"))
            (fun oc -> output_string oc (Figure.to_csv figure)))
    generators;
  Printf.printf
    "Total: %.1f s wall (%.1f s simulating, %.1f s cpu), %d simulation runs \
     (%d cache hits) at %d jobs\n\
     %!"
    (wall_now () -. started)
    prefill_wall (Sys.time ()) n_runs cache.Experiment.hits
    (Par.Pool.jobs pool)

(* ------------------------------------------------------------------ *)
(* Scenario shape, report and enforcement                              *)

(* [Num (d, x)] prints [x] with [d] decimals: each key keeps its format. *)
type value =
  | Str of string
  | Int of int
  | Bool of bool
  | Num of int * float
  | Obj of (string * value) list

type gate =
  | Pin of float
      (** normalized events/sec, which must stay at or above 0.9 x the
          figure pinned in bench/BENCH_<name>.pin.json *)
  | Overhead of float  (** events/sec overhead in %, at most 5 *)

type outcome = {
  fields : (string * value) list;  (** BENCH_<name>.json, in key order *)
  checks : (string * bool) list;  (** always enforced *)
  gate : gate option;  (** enforced under --gate *)
}

type scenario = { name : string; run : unit -> outcome }

let rec json = function
  | Str s -> "\"" ^ s ^ "\""
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Num (digits, x) -> Printf.sprintf "%.*f" digits x
  | Obj kvs -> "{" ^ String.concat ", " (List.map member kvs) ^ "}"

and member (key, v) = Printf.sprintf "\"%s\": %s" key (json v)

let emit name fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n  %s\n}\n"
        (String.concat ",\n  " (List.map member fields)));
  Printf.printf "== %s ==\n" name;
  List.iter (fun (key, v) -> Printf.printf "%-32s %s\n" key (json v)) fields;
  Printf.printf "written to %s\n%!" path

(* The number on the pin file's "normalized_events_per_calib" line (no
   JSON library is available in this environment). An unreadable pin,
   or one without that line, fails the gate. *)
let read_pin name =
  let path = Printf.sprintf "bench/BENCH_%s.pin.json" name in
  let fail msg =
    Printf.eprintf "BENCH_%s gate: %s\n%!" name msg;
    exit 1
  in
  let number line =
    Scanf.sscanf_opt line " \"normalized_events_per_calib\" : %f" Fun.id
  in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> fail ("cannot read pin " ^ msg)
  | lines -> (
      match List.find_map number lines with
      | Some pinned -> pinned
      | None -> fail ("no normalized_events_per_calib in " ^ path))

(* A failed check always exits 1; the gate is judged only under --gate. *)
let enforce ~gate name o =
  let gate_result =
    match o.gate with
    | Some (Pin normalized) when gate ->
        let pin = read_pin name in
        [
          ( Printf.sprintf "gate: normalized events/sec %.2f >= 0.9 x pin %.2f"
              normalized pin,
            normalized >= pin *. 0.9 );
        ]
    | Some (Overhead pct) when gate ->
        [ (Printf.sprintf "gate: overhead %.2f%% <= 5%%" pct, pct <= 5.0) ]
    | _ -> []
  in
  let results = o.checks @ gate_result in
  List.iter
    (fun (msg, ok) ->
      Printf.printf "%s: %s\n%!" msg (if ok then "ok" else "FAILED");
      if not ok then Printf.eprintf "BENCH_%s FAILED: %s\n%!" name msg)
    results;
  print_newline ();
  if not (List.for_all snd results) then exit 1

(* ------------------------------------------------------------------ *)
(* Shared configuration and measurement                                *)

(* The paper's Section 4 machine every scenario starts from: 8 nodes,
   8-way declustering, FileSize 120, 64 terminals at 1 s think time,
   2PL, 5 s warm-up and 30 s measured. *)
let base seed =
  let d = Params.default in
  {
    d with
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 8;
        partitioning_degree = 8;
        file_size = 120;
      };
    workload =
      { d.Params.workload with Params.think_time = 1.; num_terminals = 64 };
    cc = { d.Params.cc with Params.algorithm = Params.Twopl };
    run = { d.Params.run with Params.seed; warmup = 5.; measure = 30. };
  }

(* A fixed plan or arrival spec, in the CLI's grammar *)
let spec of_spec s = match of_spec s with Ok x -> x | Error msg -> failwith msg

let config_35s = Str "2pl, 8 nodes, 64 terminals, 35 s simulated"

type measured = { best : float; last : Sim_result.t; heap : int }

(* Best of 3 events/sec per side of a comparison, in order, against
   scheduler noise. Sides take turns (A B A B A B) so a burst of host
   noise hits all of them, not one. [heap]: the largest GC high-water. *)
let measure sides =
  let take m (r : Sim_result.t) =
    {
      best = Float.max m.best r.events_per_sec;
      last = r;
      heap = Int.max m.heap r.top_heap_words;
    }
  in
  let run_all () = List.map (fun m -> Machine.execute (m ())) sides in
  let first = List.map (fun r -> take { best = 0.; last = r; heap = 0 } r) in
  let round ms = List.map2 take ms (run_all ()) in
  round (round (first (run_all ())))

let overhead base x = (base -. x) /. base *. 100.

let timed f =
  let t0 = wall_now () in
  let r = f () in
  (r, wall_now () -. t0)

(* Raw events/sec is hardware-dependent, so a pinned number would not
   transfer between a laptop and the CI runner. Gated scenarios
   (BENCH_parallel, BENCH_recovery) therefore pin events/sec
   *normalized by a calibration workload* (a fixed, pure single-core
   heap exercise measured in the same process): the ratio cancels most
   of the machine-speed difference and moves only when the simulator's
   own hot path moves. *)
let calibration_units_per_sec () =
  let iters = 2_000 in
  let sink = ref 0 in
  let t0 = wall_now () in
  for _ = 1 to iters do
    let h = Desim.Heap.create ~cmp:Int.compare in
    for i = 0 to 999 do
      Desim.Heap.push h ((i * 7919) mod 1000)
    done;
    while not (Desim.Heap.is_empty h) do
      match Desim.Heap.pop h with Some v -> sink := !sink + v | None -> ()
    done
  done;
  ignore (Sys.opaque_identity !sink);
  float_of_int iters /. (wall_now () -. t0)

(* The calibration fields of a pinned scenario and its gate. *)
let pinned events_per_sec =
  let calib = calibration_units_per_sec () in
  let normalized = events_per_sec /. calib in
  ( [
      ("calibration_units_per_sec", Num (1, calib));
      ("normalized_events_per_calib", Num (2, normalized));
    ],
    Some (Pin normalized) )

(* Observer overhead: events/sec plain vs traced (a no-op sink) vs
   exported (a Chrome trace plus the 1 s sampler). Observers may not
   change the simulation: the traced run must equal the plain one, and
   the exported run may differ only by the sampler's own tick events. *)
let observability () =
  let instrumented instrument () =
    let m = Machine.create (base 1) in
    instrument m;
    m
  in
  let trace m = Tracer.attach (Machine.enable_events m) (fun ~time:_ _ -> ()) in
  let export m =
    Machine.enable_sampler m ~interval:1.;
    let sink = Buffer.add_string (Buffer.create (1 lsl 20)) in
    let chrome = Trace_export.Chrome.create ~num_nodes:8 sink in
    Tracer.attach (Machine.enable_events m) (Trace_export.Chrome.sink chrome)
  in
  let[@warning "-8"] [ plain; traced; exported ] =
    measure [ instrumented ignore; instrumented trace; instrumented export ]
  in
  (* the 1 s sampler ticks once per simulated second *)
  let untick (r : Sim_result.t) =
    { r with sim_events = r.sim_events - Float.to_int r.sim_end }
  in
  {
    fields =
      [
        ("config", config_35s);
        ("events_per_sec_plain", Num (0, plain.best));
        ("events_per_sec_traced", Num (0, traced.best));
        ("events_per_sec_exported", Num (0, exported.best));
        ("overhead_traced_pct", Num (2, overhead plain.best traced.best));
        ("overhead_exported_pct", Num (2, overhead plain.best exported.best));
        ("top_heap_words_plain", Int plain.heap);
        ("top_heap_words_traced", Int traced.heap);
        ("top_heap_words_exported", Int exported.heap);
      ];
    checks =
      [
        ( "traced run equals the plain run",
          Sim_result.equal plain.last traced.last );
        ( "exported run differs from the plain run only by one event per \
           sampler tick",
          Sim_result.equal plain.last (untick exported.last) );
      ];
    gate = None;
  }

(* Fault-machinery overhead. A zero plan installs no fault runtime at
   all. The armed plan installs it (timeouts, message judge, decision
   log) and injects no fault: its only crash lies far past the horizon.
   It is not quiet, though: its default 1 s protocol timeout is shorter
   than this saturated machine's waits, so at seed 1 it fires 1,999
   timeouts and 1,883 retries (165,142 -> 192,038 events), and its
   overhead prices that timeout/retry traffic, not an idle runtime. The
   lossy plan shows the real degradation and the availability/goodput
   metrics working. *)
let faults () =
  let side faults () = Machine.create { (base 1) with Params.faults } in
  let armed_plan = spec Fault_plan.of_spec "crash=0@1e6+1,fault-seed=1" in
  let lossy_plan =
    spec Fault_plan.of_spec
      "loss=0.05,dup=0.01,delay=0.001,timeout=0.5,timeout-cap=2,retries=6,\
       fault-seed=1"
  in
  let[@warning "-8"] [ off; armed; lossy ] =
    measure [ side Fault_plan.zero; side armed_plan; side lossy_plan ]
  in
  {
    fields =
      [
        ("config", config_35s);
        ("events_per_sec_faults_off", Num (0, off.best));
        ("events_per_sec_armed_quiet", Num (0, armed.best));
        ("events_per_sec_lossy", Num (0, lossy.best));
        ("overhead_armed_pct", Num (2, overhead off.best armed.best));
        ("overhead_lossy_pct", Num (2, overhead off.best lossy.best));
        ("off_throughput", Num (4, off.last.throughput));
        ("lossy_throughput", Num (4, lossy.last.throughput));
        ("lossy_goodput", Num (4, lossy.last.goodput));
        ("lossy_availability", Num (6, lossy.last.availability));
        ("lossy_timeouts", Int lossy.last.timeouts);
        ("lossy_retries", Int lossy.last.retries);
        ("lossy_msgs_dropped", Int lossy.last.msgs_dropped);
        ("armed_timeouts", Int armed.last.timeouts);
        ("armed_retries", Int armed.last.retries);
        ("armed_sim_events", Int armed.last.sim_events);
      ];
    checks = [];
    gate = None;
  }

(* Durability & recovery: under a rate-driven crash plan with the log
   disk on, primary/backup failover (replicas=1) must strictly beat the
   doom-every-resident-cohort baseline (replicas=0) on goodput without
   hurting availability, and neither run may lose a committed
   transaction. (Availability counts node-seconds up, so under one
   crash plan it is identical by construction; failover's gain is the
   committed work salvaged while nodes are down.) *)
let recovery () =
  let crashy =
    "crash-rate=0.02,mttr=1.5,loss=0.02,timeout=0.5,timeout-cap=2,retries=4,\
     fault-seed=31"
  in
  let run ?(recovery_jobs = 1) ?(faults = spec Fault_plan.of_spec crashy)
      replicas =
    Machine.run
      {
        (base 1) with
        Params.durability =
          {
            Params.log_disk = true;
            log_min_time = 0.002;
            log_max_time = 0.006;
            log_force = Params.At_prepare;
            replicas;
            recovery_jobs;
          };
        faults;
      }
  in
  let doom = run 0 in
  let failover = run 1 in
  (* recovery at scale: the same crashy machine with torn tails and
     crash-during-recovery layered on, recovered serially and with four
     chain-parallel redo workers. Correctness must be mode-independent
     (lost_commits = 0 both ways, run-twice determinism) and the
     chain-parallel run's wall-clock cost is pinned normalized to the
     calibration workload, like BENCH_parallel. *)
  let chaos =
    spec Fault_plan.of_spec
      (crashy ^ ",torn-tail=0.25,recrash=0.2,fault-seed=47")
  in
  let serial_chaos = run ~faults:chaos 1 in
  let chained_run () = run ~recovery_jobs:4 ~faults:chaos 1 in
  let chained, wall = timed chained_run in
  let chained2, wall2 = timed chained_run in
  let deterministic = Sim_result.equal chained chained2 in
  (* best of the two (identical) runs: a scheduling hiccup in one run
     must not read as a simulator regression *)
  let events_per_sec =
    float_of_int chained.sim_events /. Float.min wall wall2
  in
  let calibration, gate = pinned events_per_sec in
  let improved =
    failover.availability >= doom.availability
    && failover.goodput > doom.goodput
  in
  let runs =
    [
      ("replicas_0", doom);
      ("replicas_1", failover);
      ("chaos_serial", serial_chaos);
      ("chaos_jobs4", chained);
    ]
  in
  let summary (r : Sim_result.t) =
    Obj
      [
        ("availability", Num (6, r.availability));
        ("goodput", Num (4, r.goodput));
        ("throughput", Num (4, r.throughput));
        ("recoveries", Int r.recoveries);
        ("mean_recovery_time", Num (4, r.mean_recovery_time));
        ("failovers", Int r.failovers);
        ("orphaned", Int r.orphaned);
        ("lost_commits", Int r.lost_commits);
        ("recovery_chains", Int r.recovery_chains);
        ("recovery_degraded", Int r.recovery_degraded);
        ("wal_torn_tails", Int r.wal_torn_tails);
      ]
  in
  {
    fields =
      (( "config",
         Str
           "2pl, 8 nodes, 64 terminals, log disk + rate-driven crashes, 35 s \
            simulated" )
       :: List.map (fun (tag, r) -> (tag, summary r)) runs)
      @ [
          ("failover_improves", Bool improved);
          ("chained_deterministic", Bool deterministic);
          ("events_per_sec", Num (0, events_per_sec));
        ]
      @ calibration;
    checks =
      List.map
        (fun (tag, (r : Sim_result.t)) ->
          (tag ^ " lost no committed transaction", r.lost_commits = 0))
        runs
      @ [
          ("failover improves goodput without hurting availability", improved);
          ("jobs=4 chaos run replayed chains", chained.recovery_chains > 0);
          ("jobs=4 chaos run is deterministic (run twice)", deterministic);
        ];
    gate;
  }

(* Tail-latency telemetry overhead: the HDR histograms ride every
   commit's record path (response + eight decomposition components) and
   every 2PC decision/WAL force, so they must be close to free — the
   gate bounds their cost at <5% events/sec vs a histogram-free but
   otherwise identical machine. The histogram-free run must also produce
   a bit-identical simulation (histograms are pure observers). *)
let metrics () =
  let side histograms () = Machine.create ~histograms (base 1) in
  let[@warning "-8"] [ plain; hist ] = measure [ side false; side true ] in
  let pct = overhead plain.best hist.best in
  (* everything except the histogram-derived p99/p999 must match *)
  let untailed r =
    { r with Sim_result.response_p99 = 0.; response_p999 = 0. }
  in
  let same_sim = Sim_result.equal (untailed plain.last) (untailed hist.last) in
  {
    fields =
      [
        ("config", config_35s);
        ("events_per_sec_plain", Num (0, plain.best));
        ("events_per_sec_histograms", Num (0, hist.best));
        ("overhead_pct", Num (2, pct));
        ("simulation_bit_identical", Bool same_sim);
        ("response_p50", Num (6, hist.last.response_p50));
        ("response_p95", Num (6, hist.last.response_p95));
        ("response_p99", Num (6, hist.last.response_p99));
        ("response_p999", Num (6, hist.last.response_p999));
      ];
    checks = [ ("histograms left the simulation bit-identical", same_sim) ];
    gate = Some (Overhead pct);
  }

(* Open-loop admission-control overhead: the arrival pump, admission
   queue and MPL limiter replace the closed-loop terminal processes, so
   driving the same machine open loop must cost at most 5% events/sec vs
   the closed-loop baseline. The open-loop run's admission books must
   also balance exactly: offered = admitted + shed + expired +
   still_queued. *)
let overload () =
  let closed =
    let p = base 1 in
    (* longer than the base so the wall clock dominates any fixed setup
       cost *)
    { p with Params.run = { p.Params.run with Params.measure = 120. } }
  in
  (* qps just under the closed loop's ~6.7 tx/s capacity, MPL near its
     ~57 mean population: the same machine at a comparable operating
     point, driven open loop instead of by terminals. Overloading it
     instead would change the event mix (deadlock thrash) and measure
     the regime, not the admission machinery. *)
  let opened =
    {
      closed with
      Params.workload = { closed.Params.workload with Params.think_time = 0. };
      arrivals = spec Arrival.of_spec "qps=6,cap=64,mpl=56";
    }
  in
  let side params () = Machine.create params in
  let[@warning "-8"] [ c; o ] = measure [ side closed; side opened ] in
  let pct = overhead c.best o.best in
  let r = o.last in
  let conserved =
    r.offered = r.admitted + r.shed + r.expired + r.still_queued
  in
  {
    fields =
      [
        ( "config",
          Str
            "2pl, 8 nodes, qps=6 cap=64 mpl=56 vs 64 closed terminals, 125 s \
             simulated" );
        ("events_per_sec_closed", Num (0, c.best));
        ("events_per_sec_open", Num (0, o.best));
        ("overhead_pct", Num (2, pct));
        ("offered", Int r.offered);
        ("admitted", Int r.admitted);
        ("shed", Int r.shed);
        ("expired", Int r.expired);
        ("still_queued", Int r.still_queued);
        ("conservation_holds", Bool conserved);
        ("queue_depth_max", Int r.queue_depth_max);
        ( "closed_overload_counters_zero",
          Bool (c.last.offered = 0 && c.last.queue_depth_max = 0) );
      ];
    checks =
      [
        ( "admission books balance (offered = admitted + shed + expired + \
           queued)",
          conserved );
      ];
    gate = Some (Overhead pct);
  }

(* Parallel sweep: wall-clock speedup over the pool, per-seed
   bit-identity against serial execution, and the serial events/sec
   pinned normalized by the calibration workload. *)
let parallel ~jobs () =
  let jobs = Option.value jobs ~default:(Par.Pool.default_jobs ()) in
  let batch = List.init 16 (fun i -> base (i + 1)) in
  let serial_pool = Par.Pool.create ~jobs:1 () in
  let serial, wall_serial =
    timed (fun () -> Par.Pool.map serial_pool Machine.run batch)
  in
  let pool = Par.Pool.create ~jobs () in
  let parallel, wall_parallel =
    timed (fun () -> Par.Pool.map pool Machine.run batch)
  in
  let bit_identical = List.for_all2 Sim_result.equal serial parallel in
  let events =
    List.fold_left (fun acc (r : Sim_result.t) -> acc + r.sim_events) 0 serial
  in
  let events_per_sec = float_of_int events /. wall_serial in
  let calibration, gate = pinned events_per_sec in
  {
    fields =
      [
        ("config", Str "2pl, 8 nodes, 64 terminals, 35 s simulated, 16 seeds");
        ("jobs", Int jobs);
        ("cores", Int (Par.Pool.default_jobs ()));
        ("events_total", Int events);
        ("wall_serial_s", Num (3, wall_serial));
        ("wall_parallel_s", Num (3, wall_parallel));
        ("speedup", Num (3, wall_serial /. wall_parallel));
        ("events_per_sec_serial", Num (0, events_per_sec));
      ]
      @ calibration
      @ [ ("bit_identical", Bool bit_identical) ];
    checks = [ ("parallel results bit-identical to serial", bit_identical) ];
    gate;
  }

let scenarios ~jobs =
  [
    { name = "observability"; run = observability };
    { name = "faults"; run = faults };
    { name = "recovery"; run = recovery };
    { name = "metrics"; run = metrics };
    { name = "overload"; run = overload };
    { name = "parallel"; run = parallel ~jobs };
  ]

let main =
  let open Term.Syntax in
  let names = "figures" :: List.map (fun s -> s.name) (scenarios ~jobs:None) in
  let+ selected =
    Arg.(
      value
      & pos_all (enum (List.map (fun n -> (n, n)) names)) []
      & info [] ~docv:"SCENARIO"
          ~doc:("All by default; each is " ^ Arg.doc_alts names ^ "."))
  and+ profile =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun p -> (Experiment.profile_name p, p))
                [ Experiment.Quick; Standard; Full ]))
          Experiment.Quick
      & info [ "p"; "profile" ] ~docv:"PROFILE"
          ~doc:"Simulation length: quick, standard or full.")
  and+ ids =
    Arg.(
      value & opt (list string) []
      & info [ "figs" ] ~docv:"IDS"
          ~doc:"Comma-separated figure ids (default: all). E.g. fig2,fig5.")
  and+ thinks =
    Arg.(
      value
      & opt (list float) Experiment.default_think_times
      & info [ "thinks" ] ~docv:"T1,T2,..." ~doc:"Think times to sweep.")
  and+ csv_dir =
    Arg.(
      value & opt (some string) None
      & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also write each figure as CSV.")
  and+ gate =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Also fail on the performance gates: normalized events/sec \
             below 0.9 x bench/BENCH_<name>.pin.json (recovery, parallel), \
             events/sec overhead above 5% (metrics, overload).")
  and+ jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains for figures and parallel (default: cores).")
  and+ verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log each run.")
  in
  let runs name =
    List.is_empty selected || List.exists (String.equal name) selected
  in
  if runs "figures" then
    run_figures ~pool:(Par.Pool.create ?jobs ()) ~profile ~ids ~thinks ~csv_dir
      ~verbose;
  List.iter
    (fun s ->
      if runs s.name then begin
        let o = s.run () in
        emit s.name o.fields;
        enforce ~gate s.name o
      end)
    (scenarios ~jobs)

let () =
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "ddbm-bench" ~doc:"Regenerate the paper's figures")
          main))
