(** Simulation parameters, following Tables 1-4 of the paper. *)

(** Whether a transaction's cohorts run one after another (remote procedure
    call style, as in Non-Stop SQL) or all at once (as in Gamma / Bubba /
    Teradata). *)
type exec_pattern = Sequential | Parallel

let exec_pattern_name = function
  | Sequential -> "sequential"
  | Parallel -> "parallel"

let exec_pattern_of_string = function
  | "sequential" -> Some Sequential
  | "parallel" -> Some Parallel
  | _ -> None

type cc_algorithm =
  | No_dc  (** "no data contention": every request granted, the NO_DC curve *)
  | Twopl  (** distributed two-phase locking with Snoop deadlock detection *)
  | Wound_wait
  | Bto  (** basic timestamp ordering *)
  | Opt  (** distributed certification [Sinh85, algorithm 1] *)
  | Wait_die
      (** extension: the wait-die policy of [Rose78] (older waits, younger
          aborts itself) — not evaluated in the paper but the natural
          counterpart of wound-wait *)
  | Twopl_defer
      (** extension: 2PL with write-lock requests deferred to the first
          phase of commit, the improvement of [Care89] cited in the
          paper's footnote 13 *)
  | O2pl
      (** optimistic two-phase locking from the underlying [Care88] model
          (mentioned alongside 2PL in the paper's Table 4 text): local
          copies are write-locked at access time, remote *replica* copies
          only during the first phase of commit — identical to 2PL
          without replication *)

let cc_algorithm_name = function
  | No_dc -> "NO_DC"
  | Twopl -> "2PL"
  | Wound_wait -> "WW"
  | Bto -> "BTO"
  | Opt -> "OPT"
  | Wait_die -> "WD"
  | Twopl_defer -> "2PL-D"
  | O2pl -> "O2PL"

let cc_algorithm_of_string s =
  match String.uppercase_ascii s with
  | "NO_DC" | "NODC" -> Some No_dc
  | "2PL" | "TWOPL" -> Some Twopl
  | "WW" | "WOUND_WAIT" | "WOUNDWAIT" -> Some Wound_wait
  | "BTO" -> Some Bto
  | "OPT" -> Some Opt
  | "WD" | "WAIT_DIE" | "WAITDIE" -> Some Wait_die
  | "2PL-D" | "2PLD" | "TWOPL_DEFER" -> Some Twopl_defer
  | "O2PL" -> Some O2pl
  | _ -> None

type database = {
  num_proc_nodes : int;  (** NumProcNodes: 1, 2, 4 or 8 *)
  num_relations : int;  (** 8 relations ... *)
  partitions_per_relation : int;  (** ... of 8 partitions = 64 files *)
  file_size : int;  (** FileSize: pages per partition (300 or 1200) *)
  partitioning_degree : int;
      (** how many nodes each relation is declustered across (1, 2, 4, 8);
          must divide [partitions_per_relation] and be <= [num_proc_nodes] *)
  replication : int;
      (** copies of each file (1 = no replication, the paper's setting).
          Reads use the primary copy; updates are applied to every copy
          (read-one/write-all, per the underlying [Care88] model). *)
}

type workload = {
  num_terminals : int;  (** NumTerminals, attached to the host *)
  think_time : float;  (** ThinkTime: mean exponential think, seconds *)
  exec_pattern : exec_pattern;
  pages_per_partition : int;
      (** NumPages: mean pages read per accessed partition. Actual counts
          are uniform integers in [mean/2, 3*mean/2] (= [4,12] for 8), per
          footnote 12 of the paper. *)
  write_prob : float;  (** WriteProb: probability an accessed page is updated *)
  inst_per_page : float;  (** InstPerPage: mean (exponential) CPU per page *)
}

type resources = {
  host_mips : float;  (** CPURate of the host node, in MIPS *)
  node_mips : float;  (** CPURate of each processing node, in MIPS *)
  disks_per_node : int;  (** NumDisks *)
  min_disk_time : float;  (** MinDiskTime, seconds *)
  max_disk_time : float;  (** MaxDiskTime, seconds *)
  inst_per_update : float;  (** InstPerUpdate: CPU to start a disk write *)
  inst_per_startup : float;  (** InstPerStartup: CPU to start a process *)
  inst_per_msg : float;  (** InstPerMsg: CPU to send or receive a message *)
  inst_per_cc_req : float;  (** InstPerCCReq: CPU per CC request *)
  model_logging : bool;
      (** extension (default false, as in the paper's footnote 5, which
          assumes logging is not the bottleneck): when true, every
          updating cohort forces one log page to disk during prepare,
          before voting. *)
}

type cc = {
  algorithm : cc_algorithm;
  detection_interval : float;
      (** DetectionInterval: Snoop dwell time per node (2PL only) *)
}

(** When a cohort's commit record hits the log disk. The prepare record
    is always forced before voting yes (2PC needs the prepared state to
    survive a crash); the policy only decides whether the commit record
    is forced too. *)
type log_force =
  | At_prepare
      (** lazy commit record: only the prepare force is synchronous; a
          crash after commit is redone from the durable prepare record
          plus the coordinator's decision log *)
  | At_commit
      (** eager commit record: the cohort also forces the commit record
          before acknowledging, trading an extra log I/O per updating
          cohort for locally-complete redo information *)

let log_force_name = function At_prepare -> "prepare" | At_commit -> "commit"

let log_force_of_string s =
  match String.lowercase_ascii s with
  | "prepare" -> Some At_prepare
  | "commit" -> Some At_commit
  | _ -> None

type durability = {
  log_disk : bool;
      (** model a per-node log disk: cohorts append typed WAL records and
          block on FCFS log forces, recovery replays the durable prefix.
          false (the paper's footnote-5 assumption) is a true no-op. *)
  log_min_time : float;  (** log-disk service time bounds; sequential log *)
  log_max_time : float;  (** I/O is faster than the data disks' seeks *)
  log_force : log_force;
  replicas : int;
      (** backup nodes per cohort (0 = none): an updating cohort ships
          its write-set to [replicas] successor nodes at work-done, and
          the coordinator fails over to a live backup when the primary
          crashes mid-transaction *)
  recovery_jobs : int;
      (** redo workers per recovering node (>= 1): with more than one,
          recovery partitions the redo set into independent dependency
          chains and replays them on [recovery_jobs] concurrent workers.
          1 (the default) preserves the serial redo path bit-for-bit. *)
}

let default_durability =
  {
    log_disk = false;
    log_min_time = 0.005;
    log_max_time = 0.015;
    log_force = At_prepare;
    replicas = 0;
    recovery_jobs = 1;
  }

type run = {
  seed : int;
  warmup : float;  (** simulated seconds discarded before measuring *)
  measure : float;  (** simulated seconds of measurement window *)
  restart_delay_floor : float;
      (** restart delay used before any response time has been observed *)
  fresh_restart_plan : bool;
      (** false (default, the paper's model): an aborted transaction
          reruns the same access plan. true: the restart draws a fresh
          access set, the "fake restart" methodology sometimes used in
          [Agra87a]-style simulators to model a steady stream. *)
}

type t = {
  database : database;
  workload : workload;
  resources : resources;
  cc : cc;
  run : run;
  durability : durability;
      (** write-ahead logging / replication extension
          ({!default_durability} = the paper's machine; a disabled
          durability block is a true no-op) *)
  faults : Fault_plan.t;
      (** seeded fault plan ({!Fault_plan.zero} = the paper's failure-free
          machine; a zero plan is a true no-op) *)
  arrivals : Arrival.t;
      (** open-loop arrival process + admission control ({!Arrival.zero}
          = the paper's closed-loop terminals; a closed spec is a true
          no-op) *)
}

(** Parameter values of Table 4 (the "fixed" column): 8 processing nodes,
    8-way partitioning, small database, 2K startup / 1K message costs. *)
let default =
  {
    database =
      {
        num_proc_nodes = 8;
        num_relations = 8;
        partitions_per_relation = 8;
        file_size = 300;
        partitioning_degree = 8;
        replication = 1;
      };
    workload =
      {
        num_terminals = 128;
        think_time = 0.;
        exec_pattern = Parallel;
        pages_per_partition = 8;
        write_prob = 0.25;
        inst_per_page = 8_000.;
      };
    resources =
      {
        host_mips = 10.;
        node_mips = 1.;
        disks_per_node = 2;
        min_disk_time = 0.010;
        max_disk_time = 0.030;
        inst_per_update = 2_000.;
        inst_per_startup = 2_000.;
        inst_per_msg = 1_000.;
        inst_per_cc_req = 0.;
        model_logging = false;
      };
    cc = { algorithm = Twopl; detection_interval = 1.0 };
    run =
      { seed = 1; warmup = 60.; measure = 600.; restart_delay_floor = 0.5; fresh_restart_plan = false };
    durability = default_durability;
    faults = Fault_plan.zero;
    arrivals = Arrival.zero;
  }

let validate t =
  let d = t.database and w = t.workload and r = t.resources in
  let dur = t.durability in
  let ( let* ) = Result.bind in
  let* () =
    Spec.checks
      [
        (d.num_proc_nodes > 0, "num_proc_nodes must be positive");
        (d.num_relations > 0, "num_relations must be positive");
        ( d.partitions_per_relation > 0,
          "partitions_per_relation must be positive" );
        (d.file_size > 0, "file_size must be positive");
        ( d.partitioning_degree >= 1 && d.partitioning_degree <= d.num_proc_nodes,
          "partitioning_degree must be in [1, num_proc_nodes]" );
        (* every condition is evaluated: guard the division *)
        ( d.partitioning_degree < 1
          || d.partitions_per_relation mod d.partitioning_degree = 0,
          "partitioning_degree must divide partitions_per_relation" );
        ( d.replication >= 1 && d.replication <= d.num_proc_nodes,
          "replication must be in [1, num_proc_nodes]" );
        (w.num_terminals > 0, "num_terminals must be positive");
        (w.think_time >= 0., "think_time must be >= 0");
        (w.pages_per_partition >= 1, "pages_per_partition must be >= 1");
        ( (3 * w.pages_per_partition + 1) / 2 <= d.file_size,
          "file_size too small for the per-partition page demand" );
        ( w.write_prob >= 0. && w.write_prob <= 1.,
          "write_prob must be a probability" );
        (r.host_mips > 0. && r.node_mips > 0., "MIPS must be > 0");
        (r.disks_per_node > 0, "disks_per_node must be positive");
        ( 0. <= r.min_disk_time && r.min_disk_time <= r.max_disk_time,
          "disk times must satisfy 0 <= min <= max" );
        (t.cc.detection_interval > 0., "detection_interval must be positive");
        ( 0. <= dur.log_min_time && dur.log_min_time <= dur.log_max_time,
          "log-disk times must satisfy 0 <= min <= max" );
        ( dur.replicas >= 0 && dur.replicas <= d.num_proc_nodes - 1,
          "replicas must be in [0, num_proc_nodes - 1]" );
        (dur.recovery_jobs >= 1, "recovery_jobs must be >= 1");
      ]
  in
  let* () = Fault_plan.validate ~num_proc_nodes:d.num_proc_nodes t.faults in
  let* () = Arrival.validate t.arrivals in
  (* Open-loop restarts rerun the same plan: a fresh draw at a CC-timed
     restart would interleave with the arrival pump's draws on the shared
     per-class streams and break cross-algorithm workload agreement. *)
  Spec.checks
    [
      ( not (Arrival.open_loop t.arrivals && t.run.fresh_restart_plan),
        "fresh_restart_plan is incompatible with open-loop arrivals" );
    ]
