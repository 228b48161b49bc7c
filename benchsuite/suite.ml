(* Benchmark suite of the simulator: four named workloads, their
   end-to-end cost and the cost of each layer.

     suite.exe --seed S [--seconds T]
       runs every workload, each in a process of its own, prints every
       metric by name with its unit, and writes BENCH_suite.json and the
       span trace bench-trace.json;
     suite.exe --workload NAME --seed S --seconds T --trace 0|1
       runs one workload; the last line of standard output is one JSON
       object holding the end-to-end metrics (--trace 0) or the
       per-layer metrics (--trace 1).

   A run repeats untraced reps for T seconds, timing a batch of set-ups
   after each; the end-to-end metrics come from those alone, scaled to
   the reference host speed (see Calib). With --trace 1 it then replays every
   simulated point once with an event-counting tracer and the
   serializability audit attached, and times the layer kernels. The exit
   status is non-zero when any correctness check fails. *)

open Ddbm_model
module Machine = Ddbm.Machine
module Sim_result = Ddbm.Sim_result

let now = Unix.gettimeofday

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them
   (its default "exclusive" method); the middle one is the median. *)
let quartiles xs =
  let d = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length d in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = n + 1 in
      let j = Int.max 1 (Int.min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let ratio a b = if b = 0. then 0. else a /. b
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* ------------------------------------------------------------------ *)
(* Reps                                                                *)

(* Wall time, process CPU time (every domain) and words allocated and
   promoted (every domain: [Gc.quick_stat] sums them) of one call. *)
type cost = { wall : float; cpu : float; minor : float; promoted : float }

let timed f =
  let g0 = Gc.quick_stat () and c0 = cpu_time () and t0 = now () in
  let x = f () in
  let t1 = now () and c1 = cpu_time () and g1 = Gc.quick_stat () in
  ( x,
    {
      wall = t1 -. t0;
      cpu = c1 -. c0;
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    } )

type rep = {
  setup_s : float;  (** seconds per set-up, timed right after the rep *)
  cost : cost;
  speed : float;  (** host-speed scale: reference / calibration around it *)
  runs : int;  (** simulations the rep executed *)
  results : Sim_result.t list;  (** one per simulated point, fixed order *)
  figure : Ddbm.Figure.t option;
}

let single_rep params =
  let m = Spans.with_span "machine.create" (fun () -> Machine.create params) in
  let r, cost =
    timed (fun () ->
        Spans.with_span "machine.execute" (fun () -> Machine.execute m))
  in
  (cost, 1, [ r ], None)

let sweep_rep ~figure ~generator ~profile ~thinks ~jobs ~points =
  let cache = Ddbm.Experiment.create_cache () in
  let pool = Par.Pool.create ~jobs () in
  let (runs, fig), cost =
    timed (fun () ->
        let runs =
          Spans.with_span "figures.prefill_cache" (fun () ->
              Ddbm.Figures.prefill_cache cache pool ~profile ~thinks
                [ (figure, generator) ])
        in
        let fig =
          Spans.with_span "figures.generate" (fun () ->
              generator cache ~profile ~thinks)
        in
        Spans.with_span "figure.to_table" (fun () ->
            ignore (Sys.opaque_identity (Ddbm.Figure.to_table fig)));
        (runs, fig))
  in
  (cost, runs, List.map (Hashtbl.find cache.Ddbm.Experiment.table) points, Some fig)

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)

let point_failures (r : Sim_result.t) =
  let where =
    Printf.sprintf "%s seed %d" (Sim_result.algorithm_name r)
      r.Sim_result.params.Params.run.Params.seed
  in
  List.map (fun v -> where ^ ": " ^ v) (Ddbm_check.Invariants.check r)
  @ if r.Sim_result.commits > 0 then [] else [ where ^ ": no commits" ]

let figure_failures = function
  | None -> []
  | Some (fig : Ddbm.Figure.t) ->
      List.concat_map
        (fun (s : Ddbm.Figure.series) ->
          List.filter_map
            (fun (p : Ddbm.Figure.point) ->
              if Float.is_finite p.Ddbm.Figure.y && p.Ddbm.Figure.y > 0. then
                None
              else
                Some
                  (Printf.sprintf "figure series %s at x=%g reads %g"
                     s.Ddbm.Figure.label p.Ddbm.Figure.x p.Ddbm.Figure.y))
            s.Ddbm.Figure.points)
        fig.Ddbm.Figure.series

(* Every rep simulates the same points, so every result must equal rep
   1's bit for bit. *)
let rep_failures ~first rep =
  (match first with
  | Some first when not (List.equal Sim_result.equal first.results rep.results)
    ->
      [ "results differ from rep 1" ]
  | _ -> [])
  @ List.concat_map point_failures rep.results
  @ figure_failures rep.figure

(* Seconds per call of [setup], over about 5 ms of calls. *)
let setup_seconds setup =
  let t0 = now () in
  setup ();
  let batch = Int.max 1 (int_of_float (0.005 /. (now () -. t0))) in
  let t0 = now () in
  for _ = 1 to batch do
    setup ()
  done;
  (now () -. t0) /. float_of_int batch

(* Untraced reps back to back: at least three, then as long as the next
   one is expected to end within [seconds]. Each rep, and the batch of
   set-ups that follows it, starts from a collected heap as in a fresh
   process, and the host speed is calibrated between consecutive reps;
   a rep and its set-ups are scaled by the mean of the two calibrations
   around them. Set-up follows the rep, whose heap has already grown,
   so that its garbage cannot raise the heap high-water mark; that mark
   is read after the first rep, because the runtime's heap keeps growing
   over later reps even though each starts collected. *)
let run_reps ~seconds ~jobs ~calib0 ~setup rep_fn =
  let t0 = now () and peak_words = ref 0 in
  let rec loop acc calib_before =
    let n = List.length acc in
    let typical =
      median (List.map (fun (r, _) -> r.cost.wall) acc) +. calib_before
    in
    if n >= 3 && now () -. t0 +. typical > seconds then List.rev acc
    else begin
      Gc.full_major ();
      let cost, runs, results, figure =
        Spans.with_span "rep" (fun () -> rep_fn ())
      in
      if n = 0 then peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
      Gc.full_major ();
      let setup_s = Spans.with_span "setup" (fun () -> setup_seconds setup) in
      let calib_after =
        Spans.with_span "calibrate" (fun () -> Calib.measure ~jobs)
      in
      let speed = Calib.reference /. ((calib_before +. calib_after) /. 2.) in
      let rep = { setup_s; cost; speed; runs; results; figure } in
      let first = match List.rev acc with (r, _) :: _ -> Some r | [] -> None in
      let failures =
        Spans.with_span "check.rep" (fun () -> rep_failures ~first rep)
      in
      loop ((rep, failures) :: acc) calib_after
    end
  in
  let entries = loop [] calib0 in
  (entries, !peak_words)

(* ------------------------------------------------------------------ *)
(* Traced pass: event counts, audit and liveness                       *)

(* Events by [Event.name], and the payload fields the layer metrics
   need. *)
type counts = {
  events : (string, int) Hashtbl.t;
  mutable lock_waits : int;  (** grants after a CC wait *)
  mutable snoop_edges : int;
  quarters : int array;  (** commits in each quarter of the window *)
}

let count_sink c (run : Params.run) ~time (ev : Event.t) =
  let name = Event.name ev in
  Hashtbl.replace c.events name
    (1 + Option.value ~default:0 (Hashtbl.find_opt c.events name));
  match ev with
  | Event.Lock_grant { waited; _ } when waited > 0. ->
      c.lock_waits <- c.lock_waits + 1
  | Event.Snoop_round { edges; _ } -> c.snoop_edges <- c.snoop_edges + edges
  | Event.Committed _ ->
      let into = time -. run.Params.warmup in
      if into >= 0. then begin
        let q = int_of_float (4. *. into /. run.Params.measure) in
        if q < 4 then c.quarters.(q) <- c.quarters.(q) + 1
      end
  | _ -> ()

type traced = { counts : counts; execute_s : float; problems : string list }

(* Replays one point with the observers on. They must not change the
   outcome, the committed history must be serializable, and the machine
   must keep committing through the whole window: message loss, for
   one, can wedge it without tripping any invariant. Spans are recorded
   only on the calling domain: pool tasks must not share the span stack. *)
let traced_point ~spans (untraced : Sim_result.t) =
  let span name f = if spans then Spans.with_span name f else f () in
  let params = untraced.Sim_result.params in
  let c =
    {
      events = Hashtbl.create 32;
      lock_waits = 0;
      snoop_edges = 0;
      quarters = Array.make 4 0;
    }
  in
  let m = span "machine.create" (fun () -> Machine.create params) in
  Tracer.attach (Machine.enable_events m) (count_sink c params.Params.run);
  let audit = Machine.enable_audit m in
  let r = span "machine.execute" (fun () -> Machine.execute m) in
  let audited = span "audit.check" (fun () -> Ddbm.Audit.check audit) in
  let where = Sim_result.algorithm_name r in
  let problems =
    (if Sim_result.equal r untraced then []
     else (where ^ ": observers changed the outcome") :: Sim_result.diff r untraced)
    @ (match audited with
      | Ok n when n > 0 -> []
      | Ok _ -> [ where ^ ": audit saw no commits" ]
      | Error msg -> [ where ^ ": audit: " ^ msg ])
    @
    if Array.for_all (fun n -> n > 0) c.quarters then []
    else
      [
        Printf.sprintf "%s: commits per window quarter %s (a stall)" where
          (String.concat "/" (Array.to_list (Array.map string_of_int c.quarters)));
      ]
  in
  { counts = c; execute_s = r.Sim_result.wall_seconds; problems }

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)

type metric = { name : string; unit : string; value : float }
type stat = { s_name : string; s_unit : string; samples : float list }

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;
  sim_digest : int * int * int;  (** commits, aborts, events of one rep *)
  raw_walls : float list;  (** rep wall times before scaling *)
  calibs : float list;  (** mean calibration kernel time around each rep *)
  end_to_end : stat list;
  per_layer : metric list;
}

let per_layer_metrics ~reps ~traced ~kernels ~jobs ~peak_heap_mb =
  let first = List.hd reps in
  let results = first.results in
  let commits = float_of_int (sumi (fun r -> r.Sim_result.commits) results) in
  let events = float_of_int (sumi (fun r -> r.Sim_result.sim_events) results) in
  let total f = float_of_int (sumi (fun t -> f t.counts) traced) in
  let seen name =
    total (fun c -> Option.value ~default:0 (Hashtbl.find_opt c.events name))
  in
  let pc name = seen name /. commits in
  (* Kernels are timed unscaled and on one domain, so a layer's share
     compares its single-domain cost with the reps' unscaled CPU time. *)
  let cpu_ns_per_commit =
    median (List.map (fun r -> r.cost.cpu) reps) *. 1e9 /. commits
  in
  let kernel name =
    match List.find_opt (fun (n, _, _) -> String.equal n name) kernels with
    | Some (_, _, v) -> v
    | None -> invalid_arg name
  in
  let share count name = 100. *. count *. kernel name /. cpu_ns_per_commit in
  let recoveries = sumi (fun r -> r.Sim_result.recoveries) results in
  let recovery_s =
    sum
      (fun r -> r.Sim_result.mean_recovery_time *. float_of_int r.Sim_result.recoveries)
      results
  in
  (* both sides summed over the points' own execute times, so a sweep's
     parallel reps compare with its parallel traced replay *)
  let untraced_execute =
    median (List.map (fun r -> sum (fun x -> x.Sim_result.wall_seconds) r.results) reps)
  in
  let m name unit value = { name; unit; value } in
  [
    m "desim.engine.events_per_commit" "count" (events /. commits);
    m "desim.engine.ns_per_event" "ns"
      (median (List.map (fun r -> r.cost.wall) reps) *. 1e9 /. events);
    m "desim.cpu.slices_per_commit" "count" (pc "cpu");
    m "desim.disk.accesses_per_commit" "count" (pc "disk");
    m "cc.lock_requests_per_commit" "count" (pc "lock-request");
    m "cc.lock_wait_ratio" "ratio"
      (ratio (total (fun c -> c.lock_waits)) (seen "lock-grant"));
    m "cc.attempts_per_commit" "count" (pc "attempt-start");
    m "cc.snoop_rounds_per_commit" "count" (pc "snoop-round");
    m "cc.snoop_edges_per_commit" "count" (total (fun c -> c.snoop_edges) /. commits);
    m "mach.net.msgs_per_commit" "count" (pc "msg-send");
    m "mach.wal.log_forces_per_commit" "count" (pc "log-forced");
    m "mach.fault.timeouts_per_commit" "count" (pc "timeout-fired");
    m "mach.admission.shed_ratio" "ratio"
      (ratio
         (float_of_int (sumi (fun r -> r.Sim_result.shed) results))
         (float_of_int (sumi (fun r -> r.Sim_result.offered) results)));
    m "mach.recovery.count" "count" (float_of_int recoveries);
    m "mach.recovery.mean_s" "s" (ratio recovery_s (float_of_int recoveries));
    m "gc.peak_heap_mb" "MiB" peak_heap_mb;
    m "gc.promoted_words_per_commit" "words"
      (median (List.map (fun r -> r.cost.promoted /. commits) reps));
    m "par.efficiency" "ratio"
      (median
         (List.map
            (fun r -> ratio r.cost.cpu (r.cost.wall *. float_of_int jobs))
            reps));
    m "core.experiment.runs" "count" (float_of_int first.runs);
    m "mach.observers.overhead_pct" "%"
      (100. *. (ratio (sum (fun t -> t.execute_s) traced) untraced_execute -. 1.));
  ]
  @ List.map (fun (name, unit, v) -> m name unit v) kernels
  @ [
      m "desim.heap.est_share_pct" "%" (share (2. *. events /. commits) "desim.heap.ns_per_op");
      m "desim.cpu.est_share_pct" "%" (share (pc "cpu") "desim.cpu.ns_per_job_ps8");
      m "desim.disk.est_share_pct" "%"
        (share (pc "disk") "desim.disk.ns_per_access");
      m "cc.lock_table.est_share_pct" "%"
        (share (pc "lock-request") "cc.lock_table.ns_per_request");
    ]

let run_workload ~seconds ~trace (w : Workloads.t) =
  (* [setup] is the work before the first simulated event: building the
     machine, or the experiment cache, the domain pool, the list of
     points the figure needs and a machine for each (the pool's tasks
     build them before they simulate). *)
  let setup, rep_fn, jobs =
    match w.Workloads.shape with
    | Workloads.Single params ->
        ( (fun () -> ignore (Machine.create params)),
          (fun () -> single_rep params),
          1 )
    | Workloads.Sweep { figure; generator; profile; thinks; jobs } ->
        let points cache =
          Ddbm.Experiment.collect_misses cache (fun c ->
              ignore (generator c ~profile ~thinks : Ddbm.Figure.t))
        in
        let order = points (Ddbm.Experiment.create_cache ()) in
        ( (fun () ->
            let pool = Par.Pool.create ~jobs () in
            let todo = points (Ddbm.Experiment.create_cache ()) in
            ignore (pool, List.map Machine.create todo)),
          (fun () ->
            sweep_rep ~figure ~generator ~profile ~thinks ~jobs ~points:order),
          jobs )
  in
  let calib0 = Spans.with_span "calibrate" (fun () -> Calib.measure ~jobs) in
  let entries, peak_words = run_reps ~seconds ~jobs ~calib0 ~setup rep_fn in
  let reps = List.map fst entries in
  let first = List.hd reps in
  let ((commits, _, _) as sim_digest) =
    ( sumi (fun r -> r.Sim_result.commits) first.results,
      sumi (fun r -> r.Sim_result.aborts) first.results,
      sumi (fun r -> r.Sim_result.sim_events) first.results )
  in
  let scaled f = List.map (fun r -> f r *. r.speed) reps in
  let per_commit x = x /. float_of_int commits in
  let end_to_end =
    [
      { s_name = "setup_s"; s_unit = "s"; samples = scaled (fun r -> r.setup_s) };
      { s_name = "wall_s"; s_unit = "s"; samples = scaled (fun r -> r.cost.wall) };
      {
        s_name = "host_us_per_commit";
        s_unit = "us";
        samples = scaled (fun r -> per_commit (r.cost.wall *. 1e6));
      };
      {
        s_name = "minor_words_per_commit";
        s_unit = "words";
        samples = List.map (fun r -> per_commit r.cost.minor) reps;
      };
    ]
  in
  let traced_problems, per_layer =
    if not trace then ([], [])
    else begin
      let pool = Par.Pool.create ~jobs () in
      let traced =
        Spans.with_span "traced" (fun () ->
            Par.Pool.map pool (traced_point ~spans:(jobs = 1)) first.results)
      in
      let kernels = Spans.with_span "layers.kernels" (fun () -> Layers.run ~jobs) in
      ( List.concat_map (fun t -> t.problems) traced,
        per_layer_metrics ~reps ~traced ~kernels ~jobs
          ~peak_heap_mb:
            (float_of_int (peak_words * (Sys.word_size / 8)) /. 1048576.) )
    end
  in
  let failed_reps = List.filter (fun (_, f) -> f <> []) entries in
  {
    attempted = List.length reps + (if trace then 1 else 0);
    failed = List.length failed_reps + (if traced_problems = [] then 0 else 1);
    failures = List.concat_map snd entries @ traced_problems;
    sim_digest;
    raw_walls = List.map (fun r -> r.cost.wall) reps;
    calibs = List.map (fun r -> Calib.reference /. r.speed) reps;
    end_to_end;
    per_layer;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit as measured; JSON has no nan or infinity, and a run that
   produces one has already failed a check. *)
let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_floats xs = "[" ^ String.concat ", " (List.map json_float xs) ^ "]"

let json_object fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let stat_summary s =
  let q1, med, q3 = quartiles s.samples in
  (med, q3 -. q1, List.length s.samples)

let print_outcome ~seed ~seconds ~trace (w : Workloads.t) o =
  let commits, aborts, events = o.sim_digest in
  Printf.printf "== %s (seed %d, %d s, trace %d) ==\n%s\n" w.Workloads.name seed
    seconds (if trace then 1 else 0) w.Workloads.why;
  Printf.printf "sim_digest: commits %d, aborts %d, sim_events %d\n" commits
    aborts events;
  Printf.printf
    "host: rep wall %.4f s unscaled, calibration kernel %.4f s (reference \
     %.4f s)\n"
    (median o.raw_walls) (median o.calibs) Calib.reference;
  Printf.printf "%-34s %14s %14s %4s  %s\n" "end-to-end" "median" "IQR" "n"
    "unit";
  List.iter
    (fun s ->
      let med, iqr, n = stat_summary s in
      Printf.printf "  %-32s %14.6g %14.6g %4d  %s\n" s.s_name med iqr n s.s_unit)
    o.end_to_end;
  if trace then begin
    Printf.printf "%-34s %14s  %s\n" "per-layer" "value" "unit";
    List.iter
      (fun m -> Printf.printf "  %-32s %14.6g  %s\n" m.name m.value m.unit)
      o.per_layer;
    Printf.printf "%-34s %14s\n" "span self time" "s";
    List.iter
      (fun (name, t) -> Printf.printf "  %-32s %14.6f\n" name t)
      (Spans.self_times ())
  end;
  Printf.printf "failed_run_ratio: %d / %d\n" o.failed o.attempted;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) o.failures;
  flush stdout

(* The contract line: end-to-end metrics (medians) or per-layer ones. *)
let result_line ~trace o =
  let metric name unit value =
    (name, json_object [ ("value", json_float value); ("unit", json_string unit) ])
  in
  let metrics =
    if trace then List.map (fun m -> metric m.name m.unit m.value) o.per_layer
    else
      List.map
        (fun s ->
          let med, _, _ = stat_summary s in
          metric s.s_name s.s_unit med)
        o.end_to_end
  in
  json_object
    [
      ("correct", string_of_bool (o.failures = []));
      ("attempted", string_of_int o.attempted);
      ("failed", string_of_int o.failed);
      ("metrics", json_object metrics);
    ]

let report_json ~seed ~seconds (w : Workloads.t) o =
  let commits, aborts, events = o.sim_digest in
  json_object
    [
      ("workload", json_string w.Workloads.name);
      ("why", json_string w.Workloads.why);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("correct", string_of_bool (o.failures = []));
      ("attempted", string_of_int o.attempted);
      ("failed", string_of_int o.failed);
      ( "failures",
        "[" ^ String.concat ", " (List.map json_string o.failures) ^ "]" );
      ( "sim_digest",
        json_object
          [
            ("commits", string_of_int commits);
            ("aborts", string_of_int aborts);
            ("sim_events", string_of_int events);
          ] );
      ("raw_wall_s", json_floats o.raw_walls);
      ("calibration_s", json_floats o.calibs);
      ( "end_to_end",
        json_object
          (List.map
             (fun s ->
               let med, iqr, n = stat_summary s in
               ( s.s_name,
                 json_object
                   [
                     ("median", json_float med);
                     ("iqr", json_float iqr);
                     ("n", string_of_int n);
                     ("unit", json_string s.s_unit);
                     ("samples", json_floats s.samples);
                   ] ))
             o.end_to_end) );
      ( "per_layer",
        json_object
          (List.map
             (fun m ->
               ( m.name,
                 json_object
                   [ ("value", json_float m.value); ("unit", json_string m.unit) ]
               ))
             o.per_layer) );
      ( "span_self_s",
        json_object
          (List.map (fun (n, t) -> (n, json_float t)) (Spans.self_times ())) );
    ]

let write_file path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let one_workload ~seed ~seconds ~trace ~report_out ~spans_out name =
  match Workloads.find ~seed name with
  | None ->
      Printf.eprintf "unknown workload %S (one of %s)\n" name
        (String.concat ", " Workloads.names);
      exit 2
  | Some w -> (
      (match w.Workloads.shape with
      | Workloads.Single _ -> Calib.pin_to_one_core ()
      | Workloads.Sweep _ -> ());
      match run_workload ~seconds:(float_of_int seconds) ~trace w with
      | exception e ->
          Printf.printf "%s: %s\n" name (Printexc.to_string e);
          print_endline
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}";
          exit 1
      | o ->
          print_outcome ~seed ~seconds ~trace w o;
          Option.iter
            (fun path -> write_file path (report_json ~seed ~seconds w o ^ "\n"))
            report_out;
          if trace then Spans.write_chrome ~path:spans_out ~process_name:name;
          print_endline (result_line ~trace o);
          exit (if o.failures = [] then 0 else 1))

(* Each workload runs in a process of its own, so heap high-water marks
   and GC state never carry over from one workload to the next. *)
let suite ~seed ~seconds =
  let exe = Sys.executable_name in
  let statuses =
    List.map
      (fun name ->
        let report = Printf.sprintf "BENCH_suite.%s.json" name in
        let spans = Printf.sprintf "bench-trace.%s.json" name in
        flush_all ();
        let pid =
          Unix.create_process exe
            [|
              exe; "--workload"; name; "--seed"; string_of_int seed;
              "--seconds"; string_of_int seconds; "--trace"; "1";
              "--report-out"; report; "--spans-out"; spans;
            |]
            Unix.stdin Unix.stdout Unix.stderr
        in
        let status =
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED code -> code
          | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 128
        in
        print_newline ();
        (name, status, report, spans))
      Workloads.names
  in
  let read path =
    if Sys.file_exists path then begin
      let text = In_channel.with_open_text path In_channel.input_all in
      Sys.remove path;
      Some (String.trim text)
    end
    else None
  in
  let reports = List.filter_map (fun (_, _, r, _) -> read r) statuses in
  write_file "BENCH_suite.json"
    (json_object
       [
         ("seed", string_of_int seed);
         ("seconds", string_of_int seconds);
         ("workloads", "[\n" ^ String.concat ",\n" reports ^ "\n]");
       ]
    ^ "\n");
  (* each child wrote {"traceEvents":[ ... ]}; splice the event lists *)
  let events =
    List.filter_map
      (fun (_, _, _, s) ->
        Option.map
          (fun text ->
            let first = String.index text '[' + 1 in
            String.trim (String.sub text first (String.rindex text ']' - first)))
          (read s))
      statuses
  in
  write_file "bench-trace.json"
    ("{\"traceEvents\":[\n" ^ String.concat ",\n" events ^ "\n]}\n");
  Printf.printf "== suite (seed %d) ==\n" seed;
  List.iter
    (fun (name, status, _, _) ->
      Printf.printf "  %-16s %s\n" name
        (if status = 0 then "ok" else Printf.sprintf "FAILED (exit %d)" status))
    statuses;
  print_endline "wrote BENCH_suite.json and bench-trace.json";
  exit (if List.for_all (fun (_, s, _, _) -> s = 0) statuses then 0 else 1)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20 in
  let trace = ref 0 and report_out = ref None in
  let spans_out = ref "bench-trace.json" and calibrate = ref false in
  let specs =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload: " ^ String.concat ", " Workloads.names );
      ("--seed", Arg.Set_int seed, "S input seed (default 1)");
      ( "--seconds",
        Arg.Set_int seconds,
        "T time each workload's untraced reps for T seconds (default 20)" );
      ( "--trace",
        Arg.Set_int trace,
        "0|1 with --workload: report end-to-end (0, default) or per-layer (1) \
         metrics on the last line" );
      ( "--report-out",
        Arg.String (fun s -> report_out := Some s),
        "FILE with --workload: also write the full report as JSON" );
      ( "--spans-out",
        Arg.Set_string spans_out,
        "FILE with --trace 1: span trace path (default bench-trace.json)" );
      ( "--calibrate",
        Arg.Set calibrate,
        " print the seconds the host-speed calibration kernel takes" );
    ]
  in
  let usage = "suite.exe [--workload NAME --trace 0|1] --seed S --seconds T" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage specs usage;
    exit 2
  end;
  if !calibrate then Printf.printf "%.17g\n" (Calib.run_kernel ())
  else
    match !workload with
    | None -> suite ~seed:!seed ~seconds:!seconds
    | Some name ->
        one_workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~report_out:!report_out ~spans_out:!spans_out name
