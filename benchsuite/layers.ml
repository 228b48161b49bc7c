(* Per-layer kernels: fixed-size calls into one layer's public functions,
   timed from outside. Each kernel reports the median of five batches,
   in nanoseconds (or microseconds) per operation; multiplied by the
   operation count a workload's traced rep measures, it estimates that
   layer's share of the workload's host time. *)

open Ddbm_model

let now = Unix.gettimeofday

(* Seconds per call of [f]: the batch size doubles until one batch takes
   20 ms, so a batch averages over the collector's slices instead of
   catching one of them; then five batches are timed and the median is
   kept. *)
let seconds_per_call f =
  f ();
  let time reps =
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    (now () -. t0) /. float_of_int reps
  in
  let rec calibrate reps =
    if time reps *. float_of_int reps >= 0.02 || reps >= 1 lsl 20 then reps
    else calibrate (2 * reps)
  in
  let reps = calibrate 1 in
  let batches = List.init 5 (fun _ -> time reps) |> List.sort Float.compare in
  List.nth batches 2

let ns_per_op ~ops f = seconds_per_call f *. 1e9 /. float_of_int ops
let us_per_op ~ops f = seconds_per_call f *. 1e6 /. float_of_int ops

let heap () =
  let n = 1000 in
  ns_per_op ~ops:(2 * n) (fun () ->
      let h = Desim.Heap.create ~cmp:Int.compare in
      for i = 0 to n - 1 do
        Desim.Heap.push h (i * 7919 mod n)
      done;
      while not (Desim.Heap.is_empty h) do
        Desim.Heap.drop h
      done)

(* One switch = a process performs [wait], is rescheduled and resumed. *)
let engine_switch () =
  let procs = 100 and waits = 10 in
  ns_per_op ~ops:(procs * waits) (fun () ->
      let eng = Desim.Engine.create () in
      for _ = 1 to procs do
        Desim.Engine.spawn eng (fun () ->
            for _ = 1 to waits do
              Desim.Engine.wait 1.0
            done)
      done;
      Desim.Engine.run eng)

(* [load] processes each consume [jobs] processor-sharing slices, so the
   PS class holds about [load] jobs throughout. *)
let cpu ~load =
  let jobs = 2000 / load in
  ns_per_op ~ops:(load * jobs) (fun () ->
      let eng = Desim.Engine.create () in
      let cpu = Desim.Cpu.create eng ~rate:1e6 in
      for p = 1 to load do
        Desim.Engine.spawn eng (fun () ->
            for j = 1 to jobs do
              Desim.Cpu.consume cpu
                ~instructions:(float_of_int (1000 + ((p * 37) + (j * 101)) mod 5000))
            done)
      done;
      Desim.Engine.run eng)

let disk () =
  let procs = 8 and reads = 125 in
  ns_per_op ~ops:(procs * reads) (fun () ->
      let eng = Desim.Engine.create () in
      let d =
        Desim.Disk.create eng (Desim.Rng.create 7) ~min_time:0.01
          ~max_time:0.03
      in
      for _ = 1 to procs do
        Desim.Engine.spawn eng (fun () ->
            for _ = 1 to reads do
              Desim.Disk.read d
            done)
      done;
      Desim.Engine.run eng)

let rng () =
  let n = 10_000 in
  let r = Desim.Rng.create 42 in
  ns_per_op ~ops:n (fun () ->
      let acc = ref 0. in
      for _ = 1 to n do
        acc := !acc +. Desim.Rng.exponential r ~mean:1.0
      done;
      ignore (Sys.opaque_identity !acc))

let hdr () =
  let n = 10_000 in
  let r = Desim.Rng.create 3 in
  let samples = Array.init n (fun _ -> Desim.Rng.exponential r ~mean:2.0) in
  ns_per_op ~ops:n (fun () ->
      let h = Desim.Stats.Hdr.create () in
      Array.iter (Desim.Stats.Hdr.add h) samples;
      ignore (Sys.opaque_identity (Desim.Stats.Hdr.count h)))

let make_txns n =
  let clock = Timestamp.Clock.create () in
  Array.init n (fun tid ->
      let ts = Timestamp.Clock.make clock ~time:(float_of_int tid) in
      {
        Txn.tid;
        attempt = 1;
        origin_time = 0.;
        attempt_time = 0.;
        startup_ts = ts;
        cc_ts = ts;
        commit_ts = None;
        plan = { Plan.relation = 0; cohorts = [] };
        phase = Txn.Working;
        doomed = false;
      })

(* Conflict-free requests (every page distinct), a quarter of them
   exclusive, then release; the release cost is amortized per request. *)
let lock_table () =
  let n = 1000 in
  let txns = make_txns 10 in
  ns_per_op ~ops:n (fun () ->
      let eng = Desim.Engine.create () in
      let locks =
        Ddbm_cc.Lock_table.create eng ~blocking:(Desim.Stats.Tally.create ())
      in
      Desim.Engine.spawn eng (fun () ->
          for i = 0 to n - 1 do
            Ddbm_cc.Lock_table.request locks
              txns.(i mod 10)
              (Ids.Page.make ~file:(i mod 10) ~index:i)
              (if i land 3 = 0 then Ddbm_cc.Lock_table.X
               else Ddbm_cc.Lock_table.S)
              ~on_block:ignore
          done;
          Array.iter
            (fun t -> Ddbm_cc.Lock_table.release_all locks t ~reject:Exit)
            txns);
      Desim.Engine.run eng)

(* 54 waits-for edges over 40 attempts (the mean Snoop round of
   paper-2pl-8n), with cycles; build the graph and break every cycle. *)
let wfg () =
  let txns = make_txns 40 in
  let edges =
    List.init 54 (fun i ->
        {
          Cc_intf.waiter = txns.(i mod 40);
          holder = txns.(((i * 7) + 3) mod 40);
        })
  in
  us_per_op ~ops:1 (fun () ->
      let g = Ddbm_cc.Wfg.of_edges edges in
      ignore (Sys.opaque_identity (Ddbm_cc.Wfg.break_all_cycles g)))

let dep_records n =
  List.init n (fun i ->
      {
        Wal.Codec.tid = i;
        attempt = 1;
        lsn = 4 * i;
        pages = List.init 4 (fun k -> (k, ((i * 13) + (k * 101)) mod 2000));
        deps = (if i = 0 then [] else [ (i - 1, 1); (i / 2, 1) ]);
      })

(* Encode a log of [n] dependency records and scan it back. *)
let wal_codec () =
  let n = 1000 in
  let records = dep_records n in
  ns_per_op ~ops:n (fun () ->
      let log = Wal.Codec.encode_log records in
      let valid, torn = Wal.Codec.scan_valid log in
      if torn <> 0 || List.length valid <> n then failwith "wal codec kernel")

let wal_chains () =
  let n = 1000 in
  let txns =
    List.map
      (fun (r : Wal.Codec.dep_record) ->
        {
          Wal.Chains.key = (r.Wal.Codec.tid, r.Wal.Codec.attempt);
          pages =
            List.map
              (fun (file, index) -> Ids.Page.make ~file ~index:(index * 50))
              r.Wal.Codec.pages;
          deps = [];
          lsn = r.Wal.Codec.lsn;
        })
      (dep_records n)
  in
  ns_per_op ~ops:n (fun () ->
      ignore (Sys.opaque_identity (Wal.Chains.partition txns)))

(* A batch of 64 small tasks; the per-batch domain spawn and join is
   part of the cost the pool charges every sweep. *)
let pool ~jobs =
  let p = Par.Pool.create ~jobs () in
  let tasks = Array.init 64 (fun i -> i) in
  us_per_op ~ops:64 (fun () ->
      let out =
        Par.Pool.map_array p
          (fun i ->
            let acc = ref i in
            for k = 1 to 1000 do
              acc := (!acc * 31) + k
            done;
            !acc)
          tasks
      in
      ignore (Sys.opaque_identity out))

(* Name, unit and value of every kernel, in report order. *)
let run ~jobs =
  [
    ("desim.heap.ns_per_op", "ns", heap ());
    ("desim.engine.ns_per_switch", "ns", engine_switch ());
    ("desim.cpu.ns_per_job_ps8", "ns", cpu ~load:8);
    ("desim.cpu.ns_per_job_ps64", "ns", cpu ~load:64);
    ("desim.disk.ns_per_access", "ns", disk ());
    ("desim.rng.ns_per_draw", "ns", rng ());
    ("desim.stats.hdr_ns_per_record", "ns", hdr ());
    ("cc.lock_table.ns_per_request", "ns", lock_table ());
    ("cc.wfg.us_per_break_all", "us", wfg ());
    ("mach.wal.codec_ns_per_record", "ns", wal_codec ());
    ("mach.wal.chains_ns_per_txn", "ns", wal_chains ());
    ("par.pool.us_per_task", "us", pool ~jobs);
  ]
