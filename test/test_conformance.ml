(* Conformance harness tests: the randomized cross-algorithm sweep
   (serializability audit + conservation invariants + same-seed
   determinism + workload agreement on every generated configuration),
   fault injection proving the audit catches real concurrency control
   bugs, and replay artifact round-trips.

   The sweep's configuration count defaults to 50 and can be capped (or
   raised) with the DDBM_CONFORMANCE_CONFIGS environment variable, which
   CI uses to bound wall time. *)

open Ddbm_model

let conformance_count () =
  match Sys.getenv_opt "DDBM_CONFORMANCE_CONFIGS" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 50)
  | None -> 50

let artifact_dir () = Filename.get_temp_dir_name ()

(* --- the randomized sweep ------------------------------------------ *)

let prop_all_algorithms_conform =
  QCheck.Test.make
    ~name:
      "random configs: every algorithm serializable, conserving, \
       deterministic, workload-agreeing"
    ~count:(conformance_count ())
    Ddbm_check.Config_gen.arbitrary
    (fun params ->
      match
        Ddbm_check.Conformance.check ~artifact_dir:(artifact_dir ()) params
      with
      | Ok () -> true
      | Error (f, artifact) ->
          QCheck.Test.fail_reportf "%s%s"
            (Ddbm_check.Conformance.failure_to_string f)
            (match artifact with
            | Some path -> "\nreplay artifact: " ^ path
            | None -> ""))

(* --- fault injection ----------------------------------------------- *)

(* A deliberately hot configuration: 12-page files fully covered by every
   transaction, half the accesses updating. Under the broken-conversion
   fault two readers of a page can both upgrade to X and commit a lost
   update, which the multiversion audit must flag as a cycle. *)
let hot_2pl_params =
  let d = Params.default in
  {
    Params.database =
      {
        Params.num_proc_nodes = 2;
        num_relations = 2;
        partitions_per_relation = 2;
        file_size = 12;
        partitioning_degree = 2;
        replication = 1;
      };
    workload =
      {
        Params.num_terminals = 12;
        think_time = 0.;
        exec_pattern = Params.Parallel;
        pages_per_partition = 8;
        write_prob = 0.5;
        inst_per_page = 4_000.;
      };
    resources = d.Params.resources;
    cc = { Params.algorithm = Params.Twopl; detection_interval = 1.0 };
    run =
      {
        Params.seed = 7;
        warmup = 2.;
        measure = 8.;
        restart_delay_floor = 0.25;
        fresh_restart_plan = false;
      };
      durability = Params.default_durability;
      faults = Fault_plan.zero;
      arrivals = Arrival.zero;
  }

let test_clean_machine_conforms () =
  (* the same hot configuration passes when nothing is broken *)
  match Ddbm_check.Conformance.check hot_2pl_params with
  | Ok () -> ()
  | Error (f, _) ->
      Alcotest.fail (Ddbm_check.Conformance.failure_to_string f)

let test_injected_fault_caught_and_replayed () =
  (* the chaos fault travels in the parameters: the machine built from
     them arms it, so the replay artifact alone reproduces the failure *)
  let broken_params =
    {
      hot_2pl_params with
      Params.faults =
        {
          Fault_plan.zero with
          Fault_plan.chaos = [ "broken-lock-conversion" ];
        };
    }
  in
  match
    Ddbm_check.Conformance.check ~algorithms:[ Params.Twopl ]
      ~artifact_dir:(artifact_dir ()) broken_params
  with
  | Ok () ->
      Alcotest.fail "broken lock conversion produced a serializable history"
  | Error (_, None) -> Alcotest.fail "no replay artifact written"
  | Error (f, Some path) -> (
      Alcotest.(check string) "caught by the audit" "audit" f.Ddbm_check.Conformance.kind;
      Alcotest.(check bool) "artifact exists" true (Sys.file_exists path);
      (* the artifact alone must reproduce the failure *)
      match Ddbm_check.Conformance.replay_file path with
      | Error msg -> Alcotest.fail msg
      | Ok outcome -> (
          match outcome.Ddbm_check.Conformance.reproduced with
          | None -> Alcotest.fail "replay did not reproduce the failure"
          | Some rf ->
              Alcotest.(check string)
                "same failure kind" f.Ddbm_check.Conformance.kind
                rf.Ddbm_check.Conformance.kind;
              let tail = outcome.Ddbm_check.Conformance.trace_tail in
              Alcotest.(check bool)
                "replay leaves a trace for the post-mortem" true (tail <> []);
              Alcotest.(check bool)
                "the trace shows transaction outcomes" true
                (List.exists
                   (fun line ->
                     Astring_contains.contains line " committed "
                     || Astring_contains.contains line " aborted ")
                   tail)))

let test_replay_without_fault_is_clean () =
  (* an artifact recording no fault replays to a conforming run *)
  let a =
    {
      Ddbm_check.Replay.params = hot_2pl_params;
      kind = "audit";
      detail = "synthetic artifact for a clean machine";
    }
  in
  let path = Ddbm_check.Replay.write ~dir:(artifact_dir ()) a in
  match Ddbm_check.Conformance.replay_file path with
  | Error msg -> Alcotest.fail msg
  | Ok outcome ->
      Alcotest.(check bool) "no reproduction" true
        (outcome.Ddbm_check.Conformance.reproduced = None);
      Alcotest.(check bool) "result collected" true
        (outcome.Ddbm_check.Conformance.result <> None)

(* --- replay codec --------------------------------------------------- *)

let algorithm_arb =
  QCheck.oneofl ~print:Params.cc_algorithm_name Ddbm_cc.Registry.all

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"replay codec round-trips every configuration"
    ~count:100
    QCheck.(pair Ddbm_check.Config_gen.arbitrary algorithm_arb)
    (fun (params, algorithm) ->
      let params =
        { params with Params.cc = { params.Params.cc with Params.algorithm } }
      in
      (* the shrinker's candidates are configurations too *)
      let shrunk = ref [] in
      Ddbm_check.Config_gen.shrink params (fun c -> shrunk := c :: !shrunk);
      List.for_all
        (fun params ->
          match
            Ddbm_check.Replay.params_of_string
              (Ddbm_check.Replay.params_to_string params)
          with
          | Ok p -> p = params
          | Error msg -> QCheck.Test.fail_report msg)
        (params :: !shrunk))

(* A record with the durability block, a fault plan and an arrival spec
   all set: the artifact format is pinned byte for byte. *)
let pinned_params =
  {
    hot_2pl_params with
    Params.durability =
      {
        Params.log_disk = true;
        log_min_time = 0.004;
        log_max_time = 0.012;
        log_force = Params.At_commit;
        replicas = 1;
        recovery_jobs = 2;
      };
    faults =
      {
        Fault_plan.zero with
        Fault_plan.msg_loss = 0.1;
        crashes = [ { Fault_plan.target = Ids.Proc 1; at = 2.5; duration = 1. } ];
        timeout = 0.3;
        fault_seed = 5;
      };
    arrivals =
      { Arrival.zero with Arrival.process = Arrival.Qps 25.; queue_cap = 6; mpl = 6 };
  }

let test_params_pinned () =
  Alcotest.(check string) "params print"
    (String.concat "\n"
       [
         "algorithm = 2PL";
         "num_proc_nodes = 2";
         "num_relations = 2";
         "partitions_per_relation = 2";
         "file_size = 12";
         "partitioning_degree = 2";
         "replication = 1";
         "num_terminals = 12";
         "think_time = 0";
         "exec_pattern = parallel";
         "pages_per_partition = 8";
         "write_prob = 0.5";
         "inst_per_page = 4000";
         "host_mips = 10";
         "node_mips = 1";
         "disks_per_node = 2";
         "min_disk_time = 0.01";
         "max_disk_time = 0.029999999999999999";
         "inst_per_update = 2000";
         "inst_per_startup = 2000";
         "inst_per_msg = 1000";
         "inst_per_cc_req = 0";
         "model_logging = false";
         "detection_interval = 1";
         "log_disk = true";
         "log_min_time = 0.0040000000000000001";
         "log_max_time = 0.012";
         "log_force = commit";
         "replicas = 1";
         "recovery_jobs = 2";
         "seed = 7";
         "warmup = 2";
         "measure = 8";
         "restart_delay_floor = 0.25";
         "fresh_restart_plan = false";
         "faults = loss=0.10000000000000001,crash=1@2.5+1,timeout=0.29999999999999999,fault-seed=5";
         "arrivals = qps=25,cap=6,mpl=6";
       ])
    (Ddbm_check.Replay.params_to_string pinned_params)

let write_artifact name body =
  let path = Filename.concat (artifact_dir ()) name in
  Out_channel.with_open_text path (fun oc ->
      output_string oc ("ddbm-replay 1\nkind = audit\ndetail = hand-edited\n" ^ body));
  path

let test_absent_keys_default () =
  (* artifacts written before the durability block, fault plans and
     arrival specs existed lack those keys: each takes its off value *)
  let optional =
    [ "log_disk"; "log_min_time"; "log_max_time"; "log_force"; "replicas";
      "recovery_jobs"; "faults"; "arrivals" ]
  in
  let body =
    String.split_on_char '\n' (Ddbm_check.Replay.params_to_string pinned_params)
    |> List.filter (fun line ->
           not (List.exists (fun k -> String.starts_with ~prefix:(k ^ " =") line) optional))
    |> String.concat "\n"
  in
  match Ddbm_check.Replay.load (write_artifact "ddbm-replay-old-keys.txt" body) with
  | Error msg -> Alcotest.fail msg
  | Ok a ->
      let p = a.Ddbm_check.Replay.params in
      Alcotest.(check bool) "durability off" true
        (p.Params.durability = Params.default_durability);
      Alcotest.(check bool) "no fault plan" true (p.Params.faults = Fault_plan.zero);
      Alcotest.(check bool) "closed loop" true (p.Params.arrivals = Arrival.zero);
      let expected =
        {
          pinned_params with
          Params.durability = Params.default_durability;
          faults = Fault_plan.zero;
          arrivals = Arrival.zero;
        }
      in
      Alcotest.(check bool) "every other key read" true (p = expected)

let test_unknown_key_rejected () =
  (* a misspelt key must not replay silently with its default, and a
     repeated one must not silently pick one of its values *)
  List.iter
    (fun (name, extra, key) ->
      let body = Ddbm_check.Replay.params_to_string hot_2pl_params ^ extra in
      match Ddbm_check.Replay.load (write_artifact name body) with
      | Ok _ -> Alcotest.fail ("loaded an artifact ending in" ^ extra)
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names the key" msg)
            true
            (Astring_contains.contains msg (Printf.sprintf "%S" key)))
    [
      ("ddbm-replay-misspelt.txt", "\nreplica = 1\n", "replica");
      ("ddbm-replay-repeated.txt", "\nseed = 8\n", "seed");
    ]

let test_artifact_roundtrip () =
  (* the fault plan — chaos fault and machine faults alike — rides in
     the params and must survive the artifact codec *)
  let a =
    {
      Ddbm_check.Replay.params =
        {
          hot_2pl_params with
          Params.faults =
            {
              Fault_plan.zero with
              Fault_plan.msg_loss = 0.1;
              crashes = [ { Fault_plan.target = Ids.Proc 1; at = 2.5; duration = 1. } ];
              fault_seed = 99;
              chaos = [ "broken-lock-conversion" ];
            };
        };
      kind = "audit";
      detail = "serialization graph has a cycle through T3.1";
    }
  in
  let path = Ddbm_check.Replay.write ~dir:(artifact_dir ()) a in
  match Ddbm_check.Replay.load path with
  | Error msg -> Alcotest.fail msg
  | Ok b ->
      Alcotest.(check bool) "params round-trip" true
        (b.Ddbm_check.Replay.params = a.Ddbm_check.Replay.params);
      Alcotest.(check string) "kind" a.Ddbm_check.Replay.kind b.Ddbm_check.Replay.kind;
      Alcotest.(check string) "detail" a.Ddbm_check.Replay.detail
        b.Ddbm_check.Replay.detail

let test_load_rejects_garbage () =
  let dir = artifact_dir () in
  let path = Filename.concat dir "ddbm-replay-garbage.txt" in
  let oc = open_out path in
  output_string oc "not an artifact\n";
  close_out oc;
  (match Ddbm_check.Replay.load path with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Ddbm_check.Replay.load (Filename.concat dir "ddbm-no-such-file.txt") with
  | Ok _ -> Alcotest.fail "accepted a missing file"
  | Error _ -> ()

(* --- result equality and invariants --------------------------------- *)

let test_result_diff_and_equal () =
  let a = Ddbm.Machine.run hot_2pl_params in
  let b = Ddbm.Machine.run hot_2pl_params in
  Alcotest.(check bool) "identical runs are equal" true
    (Ddbm.Sim_result.equal a b);
  let doctored = { b with Ddbm.Sim_result.commits = b.Ddbm.Sim_result.commits + 1 } in
  let diffs = Ddbm.Sim_result.diff a doctored in
  Alcotest.(check bool) "doctored commit count detected" true
    (List.exists
       (fun line -> String.length line >= 7 && String.sub line 0 7 = "commits")
       diffs)

let test_invariants_flag_violations () =
  let r = Ddbm.Machine.run hot_2pl_params in
  Alcotest.(check (list string)) "clean run conserves" []
    (Ddbm_check.Invariants.check r);
  let bad_util = { r with Ddbm.Sim_result.proc_cpu_util = 1.5 } in
  Alcotest.(check bool) "utilization outside [0,1] flagged" true
    (Ddbm_check.Invariants.check bad_util <> []);
  let bad_conservation =
    { r with Ddbm.Sim_result.completions = r.Ddbm.Sim_result.completions + 1 }
  in
  Alcotest.(check bool) "broken conservation flagged" true
    (Ddbm_check.Invariants.check bad_conservation <> [])

let suite =
  [
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xC0DE |])
      prop_all_algorithms_conform;
    Alcotest.test_case "clean machine conforms" `Slow test_clean_machine_conforms;
    Alcotest.test_case "injected fault caught and replayed" `Slow
      test_injected_fault_caught_and_replayed;
    Alcotest.test_case "faultless artifact replays clean" `Slow
      test_replay_without_fault_is_clean;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "artifact round-trip" `Quick test_artifact_roundtrip;
    Alcotest.test_case "params print as pinned" `Quick test_params_pinned;
    Alcotest.test_case "absent optional keys take their defaults" `Quick
      test_absent_keys_default;
    Alcotest.test_case "unknown or repeated key rejected" `Quick
      test_unknown_key_rejected;
    Alcotest.test_case "artifact parser rejects garbage" `Quick
      test_load_rejects_garbage;
    Alcotest.test_case "result equality and diff" `Slow
      test_result_diff_and_equal;
    Alcotest.test_case "invariants flag doctored results" `Slow
      test_invariants_flag_violations;
  ]
