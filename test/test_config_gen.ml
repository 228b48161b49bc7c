(* The configuration shrinker: every candidate validates, every candidate
   is strictly simpler by a stated measure (so shrinking terminates), and
   planted failures minimise to the configurations they name — both by a
   greedy loop here and through QCheck itself. *)

open Ddbm_model
module Config_gen = Ddbm_check.Config_gen

(* The specification of where each shrinkable key goes; every other key
   keeps its value. *)
let simplest (p : Params.t) =
  let open Params in
  {
    p with
    database =
      { p.database with num_proc_nodes = 1; partitioning_degree = 1; replication = 1 };
    workload =
      {
        p.workload with
        num_terminals = Int.min 2 p.workload.num_terminals;
        think_time = 0.;
        exec_pattern = Parallel;
        pages_per_partition = 1;
      };
    resources = { p.resources with model_logging = false };
    run =
      { p.run with measure = Float.min 5. p.run.measure; fresh_restart_plan = false };
    durability = default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

let draw ~seed n =
  let rand = Random.State.make [| seed |] (* lint: allow ambient *) in
  List.init n (fun _ -> QCheck.Gen.generate1 ~rand Config_gen.gen)

let candidates p =
  let acc = ref [] in
  Config_gen.shrink p (fun c -> acc := c :: !acc);
  List.rev !acc

let lines p = String.split_on_char '\n' (Ddbm_check.Replay.params_to_string p)

(* Over the codec's lines: one per key off its simplest value, plus the
   integer distance to that value, plus the item count of an item-form
   spec. *)
let measure p =
  List.fold_left2
    (fun acc line goal ->
      if line = goal then acc
      else
        match (Spec.split_kv line, Spec.split_kv goal) with
        | Some (_, v), Some (_, g) ->
            let distance =
              match (int_of_string_opt v, int_of_string_opt g) with
              | Some a, Some b -> abs (a - b)
              | _ -> 0
            in
            let items =
              if String.contains v '=' then
                List.length (String.split_on_char ',' v)
              else 0
            in
            acc + 1 + distance + items
        | _ -> Alcotest.failf "not a key = value line: %S" line)
    0 (lines p) (lines (simplest p))

let test_candidates_validate () =
  let total =
    List.fold_left
      (fun total p ->
        List.fold_left
          (fun total c ->
            (match Params.validate c with
            | Ok () -> ()
            | Error msg ->
                Alcotest.failf "invalid candidate (%s) of\n%s" msg
                  (Config_gen.print p));
            total + 1)
          total (candidates p))
      0 (draw ~seed:11 300)
  in
  Alcotest.(check bool) (Printf.sprintf "%d candidates" total) true (total > 1000)

let test_candidates_simpler () =
  List.iter
    (fun p ->
      let m = measure p in
      List.iter
        (fun c ->
          if measure c >= m then
            Alcotest.failf "candidate of measure %d >= %d:\n%s\nfrom\n%s"
              (measure c) m (Config_gen.print c) (Config_gen.print p))
        (candidates p))
    (draw ~seed:12 300)

(* QCheck's loop: move to the first candidate that still fails, until
   none does. *)
let rec minimise fails p =
  match List.find_opt fails (candidates p) with
  | Some c -> minimise fails c
  | None -> p

let check_params what expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected\n%s\ngot\n%s" what (Config_gen.print expected)
      (Config_gen.print actual)

let test_planted_nodes () =
  let fails (p : Params.t) = p.Params.database.Params.num_proc_nodes >= 2 in
  let ps = List.filter fails (draw ~seed:13 100) in
  Alcotest.(check bool) "some configurations fail" true (ps <> []);
  List.iter
    (fun p ->
      let s = simplest p in
      check_params "two nodes at degree 1"
        { s with Params.database = { s.Params.database with Params.num_proc_nodes = 2 } }
        (minimise fails p))
    ps

let test_planted_log_disk_crash () =
  let fails (p : Params.t) =
    p.Params.durability.Params.log_disk && p.Params.faults.Fault_plan.crashes <> []
  in
  let ps = List.filter fails (draw ~seed:14 400) in
  Alcotest.(check bool) "some configurations fail" true (List.length ps >= 10);
  List.iter
    (fun p ->
      let m = minimise fails p in
      match m.Params.faults.Fault_plan.crashes with
      | [ crash ] ->
          Alcotest.(check bool) "the crash is one of the original's" true
            (List.mem crash p.Params.faults.Fault_plan.crashes);
          let s = simplest p in
          check_params "one crash, log disk on"
            {
              s with
              Params.database =
                {
                  s.Params.database with
                  (* the fewest nodes that hold the crash target *)
                  Params.num_proc_nodes =
                    (match crash.Fault_plan.target with
                    | Ids.Host -> 1
                    | Ids.Proc i -> i + 1);
                };
              durability = { Params.default_durability with Params.log_disk = true };
              faults = { Fault_plan.zero with Fault_plan.crashes = [ crash ] };
            }
            m
      | crashes ->
          Alcotest.failf "%d crashes left in\n%s" (List.length crashes)
            (Config_gen.print m))
    ps

(* A profile's first segment carries the [profile=] key; dropping it hands
   the key to the next segment, so any one hold segment can be the one
   left. *)
let test_planted_hold_segment () =
  let holds (p : Params.t) =
    match p.Params.arrivals.Arrival.process with
    | Arrival.Profile segs ->
        List.filter (function Arrival.Hold _ -> true | _ -> false) segs
    | Arrival.Closed | Arrival.Qps _ -> []
  in
  let fails p = holds p <> [] in
  let ps = List.filter fails (draw ~seed:16 400) in
  Alcotest.(check bool) "some configurations fail" true (List.length ps >= 10);
  Alcotest.(check bool) "some hold is not the first segment" true
    (List.exists
       (fun (p : Params.t) ->
         match p.Params.arrivals.Arrival.process with
         | Arrival.Profile (first :: _) -> not (List.mem first (holds p))
         | _ -> false)
       ps);
  List.iter
    (fun p ->
      let m = minimise fails p in
      match m.Params.arrivals.Arrival.process with
      | Arrival.Profile [ seg ] when List.mem seg (holds p) ->
          check_params "one hold segment, every other key simplest"
            { (simplest p) with Params.arrivals = m.Params.arrivals }
            m
      | _ -> Alcotest.failf "not one of its hold segments:\n%s" (Config_gen.print m))
    ps

(* The planted failure goes through QCheck's own runner, which must
   report the minimal configuration. *)
let test_qcheck_reports_minimum () =
  let cell =
    QCheck.Test.make_cell ~count:200 Config_gen.arbitrary (fun p ->
        not
          (p.Params.workload.Params.num_terminals >= 5
          && p.Params.workload.Params.exec_pattern = Params.Sequential))
  in
  match
    QCheck.TestResult.get_state
      (QCheck.Test.check_cell
         ~rand:(Random.State.make [| 15 |] (* lint: allow ambient *))
         cell)
  with
  | QCheck.TestResult.Failed { instances = [ c ] } ->
      let m = c.QCheck.TestResult.instance in
      let s = simplest m in
      check_params "five sequential terminals"
        {
          s with
          Params.workload =
            {
              s.Params.workload with
              Params.num_terminals = 5;
              exec_pattern = Params.Sequential;
            };
        }
        m;
      Alcotest.(check bool) "shrunk in steps" true (c.QCheck.TestResult.shrink_steps > 0)
  | _ -> Alcotest.fail "the planted property did not fail once"

let suite =
  [
    Alcotest.test_case "shrink candidates validate" `Quick test_candidates_validate;
    Alcotest.test_case "shrink candidates are strictly simpler" `Quick
      test_candidates_simpler;
    Alcotest.test_case "nodes >= 2 shrinks to two nodes at degree 1" `Quick
      test_planted_nodes;
    Alcotest.test_case "log disk with a crash keeps one crash" `Quick
      test_planted_log_disk_crash;
    Alcotest.test_case "a profile with a hold keeps one hold segment" `Quick
      test_planted_hold_segment;
    Alcotest.test_case "QCheck reports the planted minimum" `Quick
      test_qcheck_reports_minimum;
  ]
