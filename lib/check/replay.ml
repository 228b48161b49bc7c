(** Self-contained replay artifacts for conformance failures.

    An artifact is a small line-oriented text file — `key = value`, one
    per line — carrying everything needed to re-execute a failing run:
    the complete parameter record (algorithm, seed, and the fault plan
    included), and the failure kind and detail. Floats are printed with
    ["%.17g"] so they round-trip bit-for-bit.

    `ddbm_cli replay <file>` feeds an artifact back through
    {!Conformance.replay_file}. *)

open Ddbm_model

let magic = "ddbm-replay 1"

type artifact = {
  params : Params.t;
      (** full configuration; algorithm in [params.cc], fault plan
          (including chaos switches) in [params.faults] *)
  kind : string;  (** failure class: audit, invariant, determinism, ... *)
  detail : string;  (** human-readable description of the failure *)
}

(* --- the key table ------------------------------------------------- *)

(* [within outer set_outer] lifts a key on one sub-record of [Params.t]. *)
let within ?optional outer set_outer name kind get set =
  Spec.one ?optional name kind
    (fun p -> get (outer p))
    (fun p v -> set_outer p (set (outer p) v))

(* One entry per parameter, in printing order. The durability block,
   [faults] and [arrivals] may be absent: artifacts written before they
   existed read with the subsystem off, the paper's machine. *)
let keys =
  let open Params in
  let database name kind =
    within (fun p -> p.database) (fun p database -> { p with database }) name kind
  and workload name kind =
    within (fun p -> p.workload) (fun p workload -> { p with workload }) name kind
  and resources name kind =
    within (fun p -> p.resources)
      (fun p resources -> { p with resources })
      name kind
  and cc name kind = within (fun p -> p.cc) (fun p cc -> { p with cc }) name kind
  and run name kind =
    within (fun p -> p.run) (fun p run -> { p with run }) name kind
  and durability name kind =
    within ~optional:true (fun p -> p.durability)
      (fun p durability -> { p with durability })
      name kind
  in
  Spec.
    [
      cc "algorithm" (Named (cc_algorithm_name, cc_algorithm_of_string))
        (fun c -> c.algorithm) (fun c algorithm -> { c with algorithm });
      database "num_proc_nodes" Int (fun d -> d.num_proc_nodes)
        (fun d num_proc_nodes -> { d with num_proc_nodes });
      database "num_relations" Int (fun d -> d.num_relations)
        (fun d num_relations -> { d with num_relations });
      database "partitions_per_relation" Int (fun d -> d.partitions_per_relation)
        (fun d partitions_per_relation -> { d with partitions_per_relation });
      database "file_size" Int (fun d -> d.file_size)
        (fun d file_size -> { d with file_size });
      database "partitioning_degree" Int (fun d -> d.partitioning_degree)
        (fun d partitioning_degree -> { d with partitioning_degree });
      database "replication" Int (fun d -> d.replication)
        (fun d replication -> { d with replication });
      workload "num_terminals" Int (fun w -> w.num_terminals)
        (fun w num_terminals -> { w with num_terminals });
      workload "think_time" Float (fun w -> w.think_time)
        (fun w think_time -> { w with think_time });
      workload "exec_pattern" (Named (exec_pattern_name, exec_pattern_of_string))
        (fun w -> w.exec_pattern) (fun w exec_pattern -> { w with exec_pattern });
      workload "pages_per_partition" Int (fun w -> w.pages_per_partition)
        (fun w pages_per_partition -> { w with pages_per_partition });
      workload "write_prob" Float (fun w -> w.write_prob)
        (fun w write_prob -> { w with write_prob });
      workload "inst_per_page" Float (fun w -> w.inst_per_page)
        (fun w inst_per_page -> { w with inst_per_page });
      resources "host_mips" Float (fun r -> r.host_mips)
        (fun r host_mips -> { r with host_mips });
      resources "node_mips" Float (fun r -> r.node_mips)
        (fun r node_mips -> { r with node_mips });
      resources "disks_per_node" Int (fun r -> r.disks_per_node)
        (fun r disks_per_node -> { r with disks_per_node });
      resources "min_disk_time" Float (fun r -> r.min_disk_time)
        (fun r min_disk_time -> { r with min_disk_time });
      resources "max_disk_time" Float (fun r -> r.max_disk_time)
        (fun r max_disk_time -> { r with max_disk_time });
      resources "inst_per_update" Float (fun r -> r.inst_per_update)
        (fun r inst_per_update -> { r with inst_per_update });
      resources "inst_per_startup" Float (fun r -> r.inst_per_startup)
        (fun r inst_per_startup -> { r with inst_per_startup });
      resources "inst_per_msg" Float (fun r -> r.inst_per_msg)
        (fun r inst_per_msg -> { r with inst_per_msg });
      resources "inst_per_cc_req" Float (fun r -> r.inst_per_cc_req)
        (fun r inst_per_cc_req -> { r with inst_per_cc_req });
      resources "model_logging" Bool (fun r -> r.model_logging)
        (fun r model_logging -> { r with model_logging });
      cc "detection_interval" Float (fun c -> c.detection_interval)
        (fun c detection_interval -> { c with detection_interval });
      durability "log_disk" Bool (fun d -> d.log_disk)
        (fun d log_disk -> { d with log_disk });
      durability "log_min_time" Float (fun d -> d.log_min_time)
        (fun d log_min_time -> { d with log_min_time });
      durability "log_max_time" Float (fun d -> d.log_max_time)
        (fun d log_max_time -> { d with log_max_time });
      durability "log_force" (Named (log_force_name, log_force_of_string))
        (fun d -> d.log_force) (fun d log_force -> { d with log_force });
      durability "replicas" Int (fun d -> d.replicas)
        (fun d replicas -> { d with replicas });
      durability "recovery_jobs" Int (fun d -> d.recovery_jobs)
        (fun d recovery_jobs -> { d with recovery_jobs });
      run "seed" Int (fun r -> r.seed) (fun r seed -> { r with seed });
      run "warmup" Float (fun r -> r.warmup) (fun r warmup -> { r with warmup });
      run "measure" Float (fun r -> r.measure)
        (fun r measure -> { r with measure });
      run "restart_delay_floor" Float (fun r -> r.restart_delay_floor)
        (fun r restart_delay_floor -> { r with restart_delay_floor });
      run "fresh_restart_plan" Bool (fun r -> r.fresh_restart_plan)
        (fun r fresh_restart_plan -> { r with fresh_restart_plan });
      (* a spec value may itself contain '='; split_kv cuts at the first
         one, so the line round-trips *)
      one ~optional:true "faults"
        (Nested (Fault_plan.to_spec, Fault_plan.of_spec))
        (fun p -> p.faults) (fun p faults -> { p with faults });
      one ~optional:true "arrivals"
        (Nested (Arrival.to_spec, Arrival.of_spec))
        (fun p -> p.arrivals) (fun p arrivals -> { p with arrivals });
    ]

(* --- encoding ------------------------------------------------------ *)

(* newlines would break the line-oriented format *)
let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let params_to_string p = Spec.to_lines keys p

let artifact_to_string a =
  String.concat "\n"
    [
      magic;
      Printf.sprintf "kind = %s" (one_line a.kind);
      Printf.sprintf "detail = %s" (one_line a.detail);
      params_to_string a.params;
      "";
    ]

(* --- decoding ------------------------------------------------------ *)

let ( let* ) = Result.bind

(* [key = value] pairs; blank lines and '#' comments are skipped *)
let pairs lines =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None else Spec.split_kv line)
    lines

let params_of_pairs pairs =
  let* params =
    Spec.of_lines ~prefix:"replay artifact:" keys ~zero:Params.default pairs
  in
  match Params.validate params with
  | Ok () -> Ok params
  | Error msg -> Error ("replay artifact: invalid parameters: " ^ msg)

let params_of_string s = params_of_pairs (pairs (String.split_on_char '\n' s))

let artifact_of_string s =
  match String.split_on_char '\n' s with
  | [] -> Error "replay artifact: empty file"
  | first :: rest ->
      if String.trim first <> magic then
        Error
          (Printf.sprintf "replay artifact: bad header %S (want %S)"
             (String.trim first) magic)
      else
        let failure, params =
          List.partition (fun (k, _) -> k = "kind" || k = "detail") (pairs rest)
        in
        let* params = params_of_pairs params in
        let get key = Option.value ~default:"" (List.assoc_opt key failure) in
        Ok { params; kind = get "kind"; detail = get "detail" }

(* --- files --------------------------------------------------------- *)

(** Deterministic artifact filename for a failure (no timestamps, so
    repeated failing runs overwrite rather than accumulate). *)
let artifact_filename a =
  let sanitize s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
        | _ -> '_')
      s
  in
  Printf.sprintf "ddbm-replay-%s-seed%d-%s.txt"
    (sanitize (Params.cc_algorithm_name a.params.Params.cc.Params.algorithm))
    a.params.Params.run.Params.seed (sanitize a.kind)

(** Write the artifact into [dir]; returns its path. *)
let write ~dir a =
  let path = Filename.concat dir (artifact_filename a) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (artifact_to_string a));
  path

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> artifact_of_string s
  | exception Sys_error msg -> Error ("replay artifact: " ^ msg)
