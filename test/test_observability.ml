(* Observability pipeline: typed events, response-time decomposition,
   timeline reconstruction, time-series sampler, trace exporters. *)

open Ddbm_model

let mk_params ?(algorithm = Params.Twopl) ?(nodes = 4) ?(terminals = 16)
    ?(seed = 11) ?(measure = 20.) ?(sequential = false) () =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = nodes;
        partitioning_degree = nodes;
        file_size = 60;
      };
    workload =
      {
        d.Params.workload with
        Params.think_time = 0.;
        num_terminals = terminals;
        exec_pattern =
          (if sequential then Params.Sequential else Params.Parallel);
      };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm };
    run =
      {
        Params.seed;
        warmup = 0.;
        measure;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
      durability = Params.default_durability;
      faults = Fault_plan.zero;
      arrivals = Arrival.zero;
  }

(* Run with the typed-event pipeline attached; returns the result, the
   timeline, and every event in emission order. *)
let run_traced ?(sampler = None) params =
  let m = Ddbm.Machine.create params in
  let tracer = Ddbm.Machine.enable_events m in
  Option.iter (fun interval -> Ddbm.Machine.enable_sampler m ~interval) sampler;
  let timeline = Ddbm.Timeline.of_params params in
  Tracer.attach tracer (Ddbm.Timeline.sink timeline);
  let events = ref [] in
  Tracer.attach tracer (fun ~time ev -> events := (time, ev) :: !events);
  let result = Ddbm.Machine.execute m in
  (result, timeline, List.rev !events)

(* --- decomposition ------------------------------------------------- *)

(* Every reconstructed transaction's decomposition components sum to its
   measured response time, and the machine-side mean decomposition sums
   to the mean response. *)
let test_conservation () =
  let result, timeline, _ = run_traced (mk_params ()) in
  let records = Ddbm.Timeline.committed timeline in
  Alcotest.(check bool) "some commits" true (List.length records > 0);
  List.iter
    (fun (c : Ddbm.Timeline.committed) ->
      let total = Decomp.total c.Ddbm.Timeline.decomp in
      if Float.abs (total -. c.Ddbm.Timeline.response) > 1e-6 then
        Alcotest.failf "txn %d: decomposition %.9f != response %.9f"
          c.Ddbm.Timeline.tid total c.Ddbm.Timeline.response)
    records;
  let mean_total = Decomp.total result.Ddbm.Sim_result.decomp in
  Alcotest.(check (float 1e-6))
    "mean decomposition sums to mean response"
    result.Ddbm.Sim_result.mean_response mean_total

(* With warmup = 0, the timeline reconstructs exactly the windowed
   commits, and folding its per-transaction decompositions reproduces
   the machine's mean decomposition bit for bit: the event stream
   carries the same measured deltas the machine accumulated. *)
let check_cross_validation params =
  let result, timeline, _ = run_traced params in
  let records = Ddbm.Timeline.committed timeline in
  Alcotest.(check int) "timeline commits = windowed commits"
    result.Ddbm.Sim_result.commits (List.length records);
  let n = List.length records in
  let mean =
    Decomp.scale
      (List.fold_left
         (fun acc (c : Ddbm.Timeline.committed) ->
           Decomp.add acc c.Ddbm.Timeline.decomp)
         Decomp.zero records)
      (1. /. float_of_int n)
  in
  let machine = result.Ddbm.Sim_result.decomp in
  List.iter
    (fun (name, get) ->
      if not (Float.equal (get mean) (get machine)) then
        Alcotest.failf "%s: timeline %.17g != machine %.17g" name (get mean)
          (get machine))
    Decomp.fields

let test_cross_validation_parallel () = check_cross_validation (mk_params ())

let test_cross_validation_sequential () =
  check_cross_validation (mk_params ~sequential:true ~algorithm:Params.Bto ())

(* --- event stream -------------------------------------------------- *)

let test_event_stream_shape () =
  let result, _, events = run_traced (mk_params ()) in
  let count p = List.length (List.filter (fun (_, ev) -> p ev) events) in
  let commits = count (function Event.Committed _ -> true | _ -> false) in
  Alcotest.(check int) "committed events" result.Ddbm.Sim_result.commits
    commits;
  Alcotest.(check int) "aborted events" result.Ddbm.Sim_result.aborts
    (count (function Event.Aborted _ -> true | _ -> false));
  let sends = count (function Event.Msg_send _ -> true | _ -> false) in
  let recvs = count (function Event.Msg_recv _ -> true | _ -> false) in
  Alcotest.(check int) "message sends observed"
    result.Ddbm.Sim_result.messages sends;
  Alcotest.(check int) "every send delivered" sends recvs;
  Alcotest.(check bool) "snoop rounds observed (2PL)" true
    (count (function Event.Snoop_round _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "lock grants observed" true
    (count (function Event.Lock_grant _ -> true | _ -> false) > 0);
  (* event times never decrease *)
  let monotone =
    fst
      (List.fold_left
         (fun (ok, prev) (time, _) -> (ok && time >= prev, time))
         (true, 0.) events)
  in
  Alcotest.(check bool) "emission times are monotone" true monotone

(* Attaching the tracer must not change the simulation: same seed with
   and without events yields bit-identical results. *)
let test_tracing_is_transparent () =
  let params = mk_params () in
  let plain = Ddbm.Machine.run params in
  let traced, _, _ = run_traced params in
  match Ddbm.Sim_result.diff plain traced with
  | [] -> ()
  | diffs ->
      Alcotest.failf "tracing changed the simulation:\n%s"
        (String.concat "\n" diffs)

(* --- sampler ------------------------------------------------------- *)

let test_sampler () =
  let params = mk_params ~measure:10. () in
  let interval = 0.5 in
  let _, _, events = run_traced ~sampler:(Some interval) params in
  let samples =
    List.filter_map
      (fun (time, ev) ->
        match ev with Event.Sample s -> Some (time, s) | _ -> None)
      events
  in
  (* one sample per interval over the 10-second run, first at t=0.5 *)
  Alcotest.(check int) "sample count" 20 (List.length samples);
  List.iter
    (fun (time, (s : Event.sample)) ->
      Alcotest.(check bool) "active non-negative" true (s.Event.active >= 0);
      Alcotest.(check bool) "host util in [0,1]" true
        (s.Event.host_cpu_util >= 0. && s.Event.host_cpu_util <= 1. +. 1e-9);
      Array.iter
        (fun (n : Event.node_sample) ->
          Alcotest.(check bool) "node cpu util in [0,1]" true
            (n.Event.cpu_util >= 0. && n.Event.cpu_util <= 1. +. 1e-9);
          Alcotest.(check bool) "node disk util in [0,1]" true
            (n.Event.disk_util >= 0. && n.Event.disk_util <= 1. +. 1e-9);
          Alcotest.(check bool) "queues non-negative" true
            (n.Event.cpu_queue >= 0 && n.Event.disk_queue >= 0))
        s.Event.nodes;
      Alcotest.(check bool) "sample time on the grid" true
        (Float.abs (Float.rem time interval) < 1e-9
        || Float.abs (Float.rem time interval -. interval) < 1e-9))
    samples

(* Cumulative busy time never resets, so interval utilizations can be
   computed by differencing across observation-window resets. *)
let test_busy_time_survives_window_reset () =
  let open Desim in
  let ts = Stats.Timeseries.create ~now:0. ~value:1. in
  Stats.Timeseries.update ts ~now:2. ~value:0.;
  Alcotest.(check (float 1e-9)) "area before reset" 2.
    (Stats.Timeseries.total_area ts ~now:3.);
  Stats.Timeseries.set_window ts ~now:3.;
  Alcotest.(check (float 1e-9)) "window average reset" 0.
    (Stats.Timeseries.average ts ~now:4.);
  Stats.Timeseries.update ts ~now:4. ~value:1.;
  Alcotest.(check (float 1e-9)) "total area keeps accumulating" 3.
    (Stats.Timeseries.total_area ts ~now:5.)

(* --- exporters ----------------------------------------------------- *)

(* Minimal JSON validator: accepts exactly the RFC 8259 grammar this
   repo's exporters can produce (no escapes beyond the ones they emit,
   which are still spec-complete for validation purposes). *)
module Json_check = struct
  exception Bad of string

  let validate (s : string) =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let peek_is c =
      match peek () with Some x -> Char.equal x c | None -> false
    in
    let advance () = incr pos in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word =
      String.iter expect word
    in
    let string_lit () =
      expect '"';
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
                advance ()
            | Some 'u' ->
                advance ();
                for _ = 1 to 4 do
                  match peek () with
                  | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                  | _ -> fail "bad \\u escape"
                done
            | _ -> fail "bad escape");
            go ()
        | Some _ ->
            advance ();
            go ()
      in
      go ()
    in
    let number () =
      (match peek () with Some '-' -> advance () | _ -> ());
      let digits () =
        let saw = ref false in
        let rec go () =
          match peek () with
          | Some '0' .. '9' ->
              saw := true;
              advance ();
              go ()
          | _ -> ()
        in
        go ();
        if not !saw then fail "expected digit"
      in
      digits ();
      (match peek () with
      | Some '.' ->
          advance ();
          digits ()
      | _ -> ());
      match peek () with
      | Some ('e' | 'E') ->
          advance ();
          (match peek () with Some ('+' | '-') -> advance () | _ -> ());
          digits ()
      | _ -> ()
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek_is '}' then advance ()
          else
            let rec members () =
              skip_ws ();
              string_lit ();
              skip_ws ();
              expect ':';
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail "expected , or }"
            in
            members ()
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek_is ']' then advance ()
          else
            let rec elements () =
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected , or ]"
            in
            elements ()
      | Some '"' -> string_lit ()
      | Some 't' -> literal "true"
      | Some 'f' -> literal "false"
      | Some 'n' -> literal "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> fail "expected a value"
    in
    value ();
    skip_ws ();
    if !pos <> n then fail "trailing garbage"
end

let check_json label s =
  match Json_check.validate s with
  | () -> ()
  | exception Json_check.Bad msg -> Alcotest.failf "%s: %s" label msg

(* Export a run through both sinks at once; the Chrome document must be
   one valid JSON value and every JSONL line must parse. *)
let run_exported params =
  let m = Ddbm.Machine.create params in
  Ddbm.Machine.enable_sampler m ~interval:1.;
  let tracer = Ddbm.Machine.enable_events m in
  let chrome_buf = Buffer.create 4096 in
  let chrome =
    Ddbm.Trace_export.Chrome.create
      ~num_nodes:params.Params.database.Params.num_proc_nodes
      (Buffer.add_string chrome_buf)
  in
  Tracer.attach tracer (Ddbm.Trace_export.Chrome.sink chrome);
  let jsonl_buf = Buffer.create 4096 in
  Tracer.attach tracer
    (Ddbm.Trace_export.jsonl_sink (Buffer.add_string jsonl_buf));
  let result = Ddbm.Machine.execute m in
  Ddbm.Trace_export.Chrome.close chrome;
  (result, Buffer.contents chrome_buf, Buffer.contents jsonl_buf)

let test_exporters_emit_valid_json () =
  let _, chrome, jsonl = run_exported (mk_params ~measure:5. ()) in
  check_json "chrome document" chrome;
  let lines =
    String.split_on_char '\n' jsonl |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "jsonl non-empty" true (List.length lines > 0);
  List.iteri
    (fun i line -> check_json (Printf.sprintf "jsonl line %d" (i + 1)) line)
    lines

(* The exporters and the sampler are observers too: a run exported
   through both sinks with the 1 s sampler on differs from the plain run
   only by the sampler's own events, one tick per simulated second. *)
let test_export_is_transparent () =
  let params = mk_params () in
  let plain = Ddbm.Machine.run params in
  let exported, _, _ = run_exported params in
  let ticks = Float.to_int exported.Ddbm.Sim_result.sim_end in
  Alcotest.(check int) "one tick per simulated second" 20 ticks;
  let unticked =
    {
      exported with
      Ddbm.Sim_result.sim_events = exported.Ddbm.Sim_result.sim_events - ticks;
    }
  in
  match Ddbm.Sim_result.diff plain unticked with
  | [] -> ()
  | diffs ->
      Alcotest.failf "exporting changed the simulation:\n%s"
        (String.concat "\n" diffs)

(* Golden Chrome trace of a tiny deterministic run. The simulation is
   bit-for-bit reproducible and the exporter's float formatting is
   OCaml's own, so the bytes are stable. Regenerate with
   [dune exec test/gen_golden.exe] after an intentional format or model
   change. *)
let golden_params =
  mk_params ~algorithm:Params.Twopl ~nodes:2 ~terminals:2 ~seed:3
    ~measure:1.5 ()

let golden_chrome () =
  let _, chrome, _ = run_exported golden_params in
  chrome

let test_golden_chrome_trace () =
  (* cwd is test/ under `dune runtest`, the project root under
     `dune exec test/test_main.exe` *)
  let path =
    if Sys.file_exists "golden/trace_tiny.json" then "golden/trace_tiny.json"
    else "test/golden/trace_tiny.json"
  in
  let ic = open_in_bin path in
  let expected = In_channel.input_all ic in
  close_in ic;
  let actual = golden_chrome () in
  if String.equal expected actual then ()
  else
    Alcotest.failf
      "Chrome trace diverged from golden file (expected %d bytes, got %d); \
       regenerate with `dune exec test/gen_golden.exe` if intentional"
      (String.length expected) (String.length actual)

(* --- Sim_result surface -------------------------------------------- *)

let test_csv_arity () =
  let result = Ddbm.Machine.run (mk_params ~measure:5. ()) in
  let header_cols =
    List.length (String.split_on_char ',' Ddbm.Sim_result.csv_header)
  in
  let row_cols =
    List.length
      (String.split_on_char ',' (Ddbm.Sim_result.to_csv_row result))
  in
  Alcotest.(check int) "header and row column counts" header_cols row_cols;
  Alcotest.(check bool) "decomposition columns present" true
    (List.for_all
       (fun (name, _) ->
         List.mem name (String.split_on_char ',' Ddbm.Sim_result.csv_header))
       Decomp.fields)

let suite =
  [
    Alcotest.test_case "per-transaction conservation" `Slow test_conservation;
    Alcotest.test_case "timeline = machine decomposition (parallel)" `Slow
      test_cross_validation_parallel;
    Alcotest.test_case "timeline = machine decomposition (sequential)" `Slow
      test_cross_validation_sequential;
    Alcotest.test_case "event stream shape" `Slow test_event_stream_shape;
    Alcotest.test_case "tracing is transparent" `Slow
      test_tracing_is_transparent;
    Alcotest.test_case "time-series sampler" `Slow test_sampler;
    Alcotest.test_case "busy time survives window reset" `Quick
      test_busy_time_survives_window_reset;
    Alcotest.test_case "exporters emit valid JSON" `Slow
      test_exporters_emit_valid_json;
    Alcotest.test_case "exporting is transparent" `Slow
      test_export_is_transparent;
    Alcotest.test_case "golden chrome trace" `Slow test_golden_chrome_trace;
    Alcotest.test_case "csv header/row arity" `Slow test_csv_arity;
  ]
