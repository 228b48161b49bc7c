(* Regenerate the golden outputs used by the test suite:

     dune exec test/gen_golden.exe

   (run from the repo root) writes

   - test/golden/trace_tiny.json: the Chrome trace of [golden_params]
     (Test_observability.golden_params MUST match);
   - test/golden/result_small.csv: CSV header plus one row per
     [golden_runs] entry;
   - test/golden/registry_small.prom / .json: the Prometheus and JSON
     expositions of each [golden_runs] entry, one document per line in
     the JSON file (Test_metrics.golden_runs MUST match). *)

open Ddbm_model

let golden_params =
  let d = Params.default in
  {
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 2;
        partitioning_degree = 2;
        file_size = 60;
      };
    workload =
      { d.Params.workload with Params.think_time = 0.; num_terminals = 2 };
    resources = d.Params.resources;
    cc = { d.Params.cc with Params.algorithm = Params.Twopl };
    run =
      {
        Params.seed = 3;
        warmup = 0.;
        measure = 1.5;
        restart_delay_floor = 0.5;
        fresh_restart_plan = false;
      };
    durability = Params.default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

(* One closed-loop 2PL run, one open-loop run with a log disk, a
   backup per cohort and a mid-run crash, and three faulty runs, so the
   overload, durability, recovery and fault families carry non-zero
   values too. *)
let golden_runs =
  let d = Params.default in
  let ok = function Ok x -> x | Error msg -> failwith msg in
  let closed =
    {
      d with
      Params.database =
        {
          d.Params.database with
          Params.num_proc_nodes = 4;
          partitioning_degree = 4;
          file_size = 60;
        };
      workload =
        { d.Params.workload with Params.think_time = 0.; num_terminals = 16 };
      run = { d.Params.run with Params.seed = 5; warmup = 1.; measure = 6. };
    }
  in
  let open_wal =
    {
      closed with
      Params.durability =
        { Params.default_durability with Params.log_disk = true; replicas = 1 };
      faults =
        ok
          (Fault_plan.of_spec
             "crash=1@3+1,timeout=0.5,timeout-cap=2,retries=5,fault-seed=9");
      arrivals = ok (Arrival.of_spec "qps=25,cap=6,mpl=6");
      run = { closed.Params.run with Params.seed = 6 };
    }
  in
  (* Three short faulty runs reaching the commit protocol's fault paths:
     loss, duplication and OPT's no votes; host and node crashes with
     failover, a re-crash and chain-parallel recovery; and sequential
     Wound-Wait with torn log tails. *)
  let lossy_opt =
    {
      closed with
      Params.cc = { d.Params.cc with Params.algorithm = Params.Opt };
      faults =
        ok
          (Fault_plan.of_spec
             "loss=0.01,dup=0.05,timeout=0.5,timeout-cap=2,retries=3,fault-seed=11");
      run = { closed.Params.run with Params.seed = 1 };
    }
  in
  let crashy_chains =
    {
      closed with
      Params.workload = { closed.Params.workload with Params.think_time = 1. };
      durability =
        {
          Params.default_durability with
          Params.log_disk = true;
          replicas = 1;
          recovery_jobs = 2;
        };
      faults =
        ok
          (Fault_plan.of_spec
             "crash=1@2+1,crash=2@4+1,crash=host@6+0.5,crash=0@7+1,loss=0.05,\
              recrash=0.3,mttr=0.5,timeout=0.5,timeout-cap=2,retries=4,\
              fault-seed=23");
      run = { closed.Params.run with Params.seed = 1; measure = 8. };
    }
  in
  let sequential_ww =
    {
      closed with
      Params.workload =
        { closed.Params.workload with Params.exec_pattern = Params.Sequential };
      cc = { d.Params.cc with Params.algorithm = Params.Wound_wait };
      durability = { Params.default_durability with Params.log_disk = true };
      faults =
        ok
          (Fault_plan.of_spec
             "loss=0.01,crash=0@2+1,torn-tail=1,timeout=0.5,timeout-cap=2,\
              retries=3,fault-seed=15");
      run = { closed.Params.run with Params.seed = 1 };
    }
  in
  [ closed; open_wal; lossy_opt; crashy_chains; sequential_ww ]

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %d bytes to %s\n" (String.length contents) path

let () =
  let m = Ddbm.Machine.create golden_params in
  Ddbm.Machine.enable_sampler m ~interval:1.;
  let tracer = Ddbm.Machine.enable_events m in
  let buf = Buffer.create 4096 in
  let chrome =
    Ddbm.Trace_export.Chrome.create
      ~num_nodes:golden_params.Params.database.Params.num_proc_nodes
      (Buffer.add_string buf)
  in
  Tracer.attach tracer (Ddbm.Trace_export.Chrome.sink chrome);
  ignore (Ddbm.Machine.execute m : Ddbm.Sim_result.t);
  Ddbm.Trace_export.Chrome.close chrome;
  write "test/golden/trace_tiny.json" (Buffer.contents buf);
  let runs =
    List.map
      (fun params ->
        let m = Ddbm.Machine.create params in
        let r = Ddbm.Machine.execute m in
        (r, Ddbm.Machine.registry m))
      golden_runs
  in
  let lines f = String.concat "" (List.map (fun run -> f run ^ "\n") runs) in
  write "test/golden/result_small.csv"
    (Ddbm.Sim_result.csv_header ^ "\n"
    ^ lines (fun (r, _) -> Ddbm.Sim_result.to_csv_row r));
  write "test/golden/registry_small.prom"
    (String.concat "" (List.map (fun (_, reg) -> Metric.to_prometheus reg) runs));
  write "test/golden/registry_small.json"
    (lines (fun (_, reg) -> Metric.to_json reg))
