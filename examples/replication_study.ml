(* Replicated data and the footnote-13 story.

   The paper's footnote 13 recalls that in [Care88] the optimistic
   algorithm beat two-phase locking "when several copies of each data
   item needed updating and messages were expensive", and that [Care89]
   showed 2PL regains dominance "by simply deferring requests for write
   locks on remote copies until the first phase of the commit protocol"
   — the O2PL variant. This example reproduces that story on the
   read-one/write-all replication substrate:

   - plain 2PL pays two messages per remote copy per updated page during
     execution (write-all at access);
   - O2PL piggybacks its remote write intent on the prepare message;
   - OPT certifies the copies at prepare and resolves conflicts by abort.

   Run with:  dune exec examples/replication_study.exe *)

open Ddbm_model

let run ~algorithm ~replication ~inst_per_msg =
  let d = Params.default in
  let params =
    {
      Params.database = { d.Params.database with Params.replication };
      workload = { d.Params.workload with Params.think_time = 8. };
      resources = { d.Params.resources with Params.inst_per_msg };
      cc = { d.Params.cc with Params.algorithm };
      run =
        { d.Params.run with Params.seed = 13; warmup = 30.; measure = 200. };
      durability = Params.default_durability;
      faults = Fault_plan.zero;
      arrivals = Arrival.zero;
    }
  in
  Ddbm.Machine.run params

let () =
  Format.printf
    "Replication study: 8 nodes, 3 copies per file, think 8 s@.@.";
  List.iter
    (fun inst_per_msg ->
      Format.printf "--- %.0f instructions per message ---@." inst_per_msg;
      Format.printf "%-6s %10s %12s %10s@." "algo" "tput tx/s" "response s"
        "messages";
      List.iter
        (fun algorithm ->
          let r = run ~algorithm ~replication:3 ~inst_per_msg in
          Format.printf "%-6s %10.2f %12.2f %10d@."
            (Params.cc_algorithm_name algorithm)
            r.Ddbm.Sim_result.throughput r.Ddbm.Sim_result.mean_response
            r.Ddbm.Sim_result.messages)
        [ Params.Twopl; Params.O2pl; Params.Opt ];
      Format.printf "@.")
    [ 1_000.; 4_000.; 8_000. ];
  Format.printf
    "With cheap messages the three algorithms are disk-bound and close;@.\
     as messages grow expensive, plain 2PL's write-all-at-access traffic@.\
     drags it below OPT — and O2PL, which defers remote write locks to@.\
     the commit protocol, keeps 2PL's blocking advantage without the@.\
     message bill. Exactly the [Care88] -> [Care89] progression the@.\
     paper cites.@."
