(** Random-but-valid simulation configurations.

    Composable QCheck generators over {!Ddbm_model.Params.t} that cover
    the paper's whole parameter space — machine size, partitioning,
    terminal population, message/startup costs, workload mix — while
    always satisfying {!Ddbm_model.Params.validate}. Windows are kept
    short (a few simulated seconds) so a conformance sweep of hundreds of
    runs finishes in seconds of wall time.

    The shrinker works on the replay codec's text form, one
    [key = value] line per key. Each line that differs from the same
    line of the simplest record (one node, two terminals, one page, no
    subsystem switched on; the seed and every other key kept) proposes
    that line's value, for integers the midpoint and the points between
    it and the current value, and for an item-form spec (fault plan,
    arrival spec) the spec with one item dropped. A proposal survives
    only if {!Replay.params_of_string} reads it back, which validates,
    so a failing configuration minimizes to something a human can replay
    and read, and a key added to the codec's table needs no code here. *)

open Ddbm_model

let powers_of_two = [ 1; 2; 4; 8 ]

(* Fault plans for the conformance sweep: mostly zero (the paper's
   failure-free machine), sometimes message faults and/or crashes. The
   serializability audit, conservation, and determinism must hold under
   any of them. *)
let gen_faults ~nodes : Fault_plan.t QCheck.Gen.t =
  let open QCheck.Gen in
  let z = Fault_plan.zero in
  let* zero_plan = frequencyl [ (2, true); (3, false) ] in
  if zero_plan then return z
  else
    let* msg_loss = oneofl [ 0.; 0.; 0.02; 0.1; 0.3 ] in
    let* msg_dup = oneofl [ 0.; 0.; 0.05 ] in
    let* msg_delay = oneofl [ 0.; 0.; 0.005 ] in
    let* crashes =
      let* kind = oneofl [ `None; `None; `Proc; `Host ] in
      match kind with
      | `None -> return []
      | `Proc ->
          let* target = int_range 0 (nodes - 1) in
          let* at = oneofl [ 1.; 2.5; 4. ] in
          let* duration = oneofl [ 0.5; 1.; 2. ] in
          return [ { Fault_plan.target = Ids.Proc target; at; duration } ]
      | `Host ->
          let* at = oneofl [ 1.; 2.5; 4. ] in
          let* duration = oneofl [ 0.5; 1. ] in
          return [ { Fault_plan.target = Ids.Host; at; duration } ]
    in
    let* crash_rate = oneofl [ 0.; 0.; 0.; 0.05 ] in
    (* recovery-robustness modes: occasionally tear the WAL tail at a
       crash, or crash again during recovery itself — the no-lost-commit
       invariant must survive both *)
    let* torn_tail = oneofl [ 0.; 0.; 0.; 0.5; 1. ] in
    let* recrash = oneofl [ 0.; 0.; 0.; 0.3 ] in
    let* timeout = oneofl [ 0.25; 1. ] in
    let* max_retries = oneofl [ 2; 4 ] in
    let* fault_seed = int_range 1 1_000_000 in
    return
      {
        z with
        Fault_plan.crashes;
        crash_rate;
        mean_repair = 1.;
        msg_loss;
        msg_dup;
        msg_delay;
        recrash;
        torn_tail;
        timeout;
        timeout_cap = 4. *. timeout;
        max_retries;
        fault_seed;
      }

(* Durability blocks for the conformance sweep: mostly off (the paper's
   machine), sometimes a log disk and/or a backup replica — the
   no-lost-commit invariant must hold under every combination with every
   fault plan. *)
let gen_durability ~nodes : Params.durability QCheck.Gen.t =
  let open QCheck.Gen in
  let dd = Params.default_durability in
  let* off = frequencyl [ (2, true); (3, false) ] in
  if off then return dd
  else
    let* log_disk = frequencyl [ (1, false); (3, true) ] in
    let* log_force = oneofl [ Params.At_prepare; Params.At_prepare; Params.At_commit ] in
    let* replicas = if nodes = 1 then return 0 else oneofl [ 0; 1; 1 ] in
    let* recovery_jobs = oneofl [ 1; 1; 2; 4 ] in
    return { dd with Params.log_disk; log_force; replicas; recovery_jobs }

(* Arrival specs for the conformance sweep: mostly closed loop (the
   paper's terminal model), sometimes an open-loop rate process with the
   admission queue sized to overload — including flash-crowd spikes — so
   the serializability audit, the offered = admitted + shed + expired +
   still-queued conservation identity, and determinism are all exercised
   under saturation. The MPL limiter is always on for open-loop draws so
   a high-rate spec cannot flood a tiny machine with unbounded fibers. *)
let gen_arrivals : Arrival.t QCheck.Gen.t =
  let open QCheck.Gen in
  let z = Arrival.zero in
  let* closed = frequencyl [ (3, true); (2, false) ] in
  if closed then return z
  else
    let gen_segment =
      let* kind = oneofl [ `Hold; `Hold; `Ramp; `Sine; `Spike ] in
      match kind with
      | `Hold ->
          let* rate = oneofl [ 0.; 10.; 40.; 120. ] in
          let* duration = oneofl [ 1.; 2.; 4. ] in
          return (Arrival.Hold { rate; duration })
      | `Ramp ->
          let* rate_from = oneofl [ 0.; 20.; 80. ] in
          let* rate_to = oneofl [ 0.; 40.; 160. ] in
          let* duration = oneofl [ 2.; 4. ] in
          return (Arrival.Ramp { rate_from; rate_to; duration })
      | `Sine ->
          let* mean = oneofl [ 20.; 60. ] in
          let* amplitude = oneofl [ 10.; 80. ] in
          let* period = oneofl [ 1.; 3. ] in
          let* duration = oneofl [ 4.; 8. ] in
          return (Arrival.Sine { mean; amplitude; period; duration })
      | `Spike ->
          let* base = oneofl [ 5.; 20. ] in
          let* peak = oneofl [ 100.; 250. ] in
          let* duration = oneofl [ 2.; 4. ] in
          return (Arrival.Spike { base; peak; duration })
    in
    let* process =
      let* profile = frequencyl [ (2, false); (1, true) ] in
      if profile then
        let* segs = list_size (int_range 1 3) gen_segment in
        return (Arrival.Profile segs)
      else
        let* r = oneofl [ 10.; 25.; 50.; 100.; 200. ] in
        return (Arrival.Qps r)
    in
    let* mpl = oneofl [ 2; 4; 8; 16 ] in
    let* queue_cap = oneofl [ 2; 4; 8; 16; 64 ] in
    let* shed =
      oneofl [ Arrival.Reject_newest; Arrival.Reject_newest; Arrival.Reject_oldest ]
    in
    let* deadline = oneofl [ 0.; 0.; 0.5; 1. ] in
    return { z with Arrival.process; mpl; queue_cap; shed; deadline }

let gen : Params.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* num_proc_nodes = oneofl powers_of_two in
  let* num_relations = oneofl [ 1; 2; 4; 8 ] in
  let* partitions_per_relation = oneofl [ 2; 4; 8 ] in
  let* partitioning_degree =
    oneofl
      (List.filter
         (fun d -> d <= num_proc_nodes && partitions_per_relation mod d = 0)
         powers_of_two)
  in
  let* pages_per_partition = int_range 2 8 in
  (* the validator demands (3*pages+1)/2 <= file_size; small files give
     the contention that actually exercises the algorithms *)
  let* file_size =
    int_range (Stdlib.max 12 (((3 * pages_per_partition) + 1) / 2)) 120
  in
  let* replication =
    if num_proc_nodes = 1 then return 1 else oneofl [ 1; 1; 1; 2 ]
  in
  let* num_terminals = int_range 4 24 in
  let* think_time = oneofl [ 0.; 0.; 0.5; 1. ] in
  let* exec_pattern =
    oneofl [ Params.Parallel; Params.Parallel; Params.Sequential ]
  in
  let* write_prob = oneofl [ 0.; 0.1; 0.25; 0.5; 1. ] in
  let* inst_per_page = oneofl [ 4_000.; 8_000. ] in
  let* inst_per_startup = oneofl [ 0.; 2_000.; 20_000. ] in
  let* inst_per_msg = oneofl [ 0.; 1_000.; 4_000. ] in
  let* inst_per_cc_req = oneofl [ 0.; 500. ] in
  let* disks_per_node = int_range 1 2 in
  let* model_logging = bool in
  let* detection_interval = oneofl [ 0.25; 1. ] in
  let* seed = int_range 1 1_000_000 in
  let* measure = oneofl [ 5.; 8. ] in
  let* fresh_restart_plan = bool in
  let* durability = gen_durability ~nodes:num_proc_nodes in
  let* faults = gen_faults ~nodes:num_proc_nodes in
  let* arrivals = gen_arrivals in
  return
    {
      Params.database =
        {
          Params.num_proc_nodes;
          num_relations;
          partitions_per_relation;
          file_size;
          partitioning_degree;
          replication;
        };
      workload =
        {
          Params.num_terminals;
          think_time;
          exec_pattern;
          pages_per_partition;
          write_prob;
          inst_per_page;
        };
      resources =
        {
          Params.default.Params.resources with
          Params.disks_per_node;
          inst_per_startup;
          inst_per_msg;
          inst_per_cc_req;
          model_logging;
        };
      cc = { Params.algorithm = Params.Twopl; detection_interval };
      run =
        {
          Params.seed;
          warmup = 2.;
          measure;
          restart_delay_floor = 0.25;
          (* open-loop arrivals reject fresh restart plans (see
             Params.validate) *)
          fresh_restart_plan =
            fresh_restart_plan && not (Arrival.open_loop arrivals);
        };
      durability;
      faults;
      arrivals;
    }

(* Where each shrinkable key goes: one node, no replication, the fewest
   terminals and pages, no think time, no subsystem switched on, and a
   window of at most 5 s. Every other key, the seed included, keeps
   [p]'s value. *)
let simplest (p : Params.t) =
  let open Params in
  {
    p with
    database =
      {
        p.database with
        num_proc_nodes = 1;
        partitioning_degree = 1;
        replication = 1;
      };
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
      {
        p.run with
        measure = Float.min 5. p.run.measure;
        fresh_restart_plan = false;
      };
    durability = default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

(* The values a line holding [v] may move to on its way to [goal]: the
   goal; for integers, the midpoint and then ever closer to [v] by
   halving steps (so a threshold is found exactly); and [v] with one item
   dropped when it is a ["k=v,k=v"] spec. *)
let proposals v goal =
  let steps =
    match (int_of_string_opt v, int_of_string_opt goal) with
    | Some a, Some b ->
        let rec from d = if d = 0 then [] else string_of_int (a - d) :: from (d / 2) in
        from ((a - b) / 2)
    | _ -> []
  in
  (* a bare item (a profile segment after the first) continues the key
     before it, so dropping a ["key=..."] item hands the key on *)
  let rec drop i = function
    | [] -> []
    | x :: rest when i > 0 -> x :: drop (i - 1) rest
    | x :: rest -> (
        match (Spec.split_kv x, rest) with
        | Some (k, _), next :: rest when Spec.split_kv next = None ->
            (k ^ "=" ^ next) :: rest
        | _ -> rest)
  in
  let drops =
    if not (String.contains v '=') then []
    else
      let items = String.split_on_char ',' v in
      List.mapi (fun i _ -> String.concat "," (drop i items)) items
      |> List.filter (fun d -> d <> goal)
  in
  (goal :: steps) @ drops

(* One line at a time, each proposal kept only if the codec reads it
   back: [Replay.params_of_string] validates, so no invalid record is
   ever yielded. *)
let shrink (p : Params.t) : Params.t QCheck.Iter.t =
 fun yield ->
  let lines = String.split_on_char '\n' (Replay.params_to_string p)
  and goals = String.split_on_char '\n' (Replay.params_to_string (simplest p)) in
  let with_line i line =
    String.concat "\n" (List.mapi (fun j l -> if j = i then line else l) lines)
  in
  List.iteri
    (fun i (line, goal) ->
      match (Spec.split_kv line, Spec.split_kv goal) with
      | Some (key, v), Some (_, g) when v <> g ->
          List.iter
            (fun v' ->
              match Replay.params_of_string (with_line i (key ^ " = " ^ v')) with
              | Ok c -> yield c
              | Error _ -> ())
            (proposals v g)
      | _ -> ())
    (List.combine lines goals)

let print (p : Params.t) = Replay.params_to_string p

(** QCheck arbitrary over valid configurations, with printing via the
    replay-artifact codec and shrinking through it. *)
let arbitrary : Params.t QCheck.arbitrary = QCheck.make ~print ~shrink gen
