(* Quickstart: simulate the paper's default database machine (one 10-MIPS
   host, eight 1-MIPS processing nodes with two disks each, 128 terminals)
   under distributed two-phase locking, and print the measured metrics.

   Run with:  dune exec examples/quickstart.exe *)

open Ddbm_model

let () =
  (* Params.default is Table 4's "fixed" configuration: 8 nodes, 8-way
     declustering, 300-page partitions, 2K-instruction process startup,
     1K-instruction messages. We add a mean think time of 8 seconds and a
     moderate measurement window. *)
  let params =
    {
      Params.default with
      Params.workload =
        { Params.default.Params.workload with Params.think_time = 8. };
      run =
        { Params.default.Params.run with
          Params.seed = 42; warmup = 30.; measure = 200. };
    }
  in
  let result = Ddbm.Machine.run params in
  Format.printf "%a@." Ddbm.Sim_result.pp result;
  Format.printf
    "@.The simulator processed %d events covering %.0f simulated seconds@."
    result.Ddbm.Sim_result.sim_events result.Ddbm.Sim_result.sim_end;
  Format.printf
    "Transactions read 64 pages (8 per partition across 8 partitions) and@.\
     update a quarter of them; response time above includes any restarts.@."
