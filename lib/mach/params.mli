(** Simulation parameters, following Tables 1-4 of the paper. *)

(** Whether a transaction's cohorts run one after another (remote procedure
    call style, as in Non-Stop SQL) or all at once (as in Gamma / Bubba /
    Teradata). *)
type exec_pattern = Sequential | Parallel

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

val cc_algorithm_name : cc_algorithm -> string
val cc_algorithm_of_string : string -> cc_algorithm option

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

val log_force_name : log_force -> string
val log_force_of_string : string -> log_force option

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
          chains ({!Wal.redo_chains}) and replays them on [recovery_jobs]
          concurrent workers, so MTTR stays flat as log volume grows.
          1 (the default) preserves the serial redo path bit-for-bit. *)
}

(** Durability switched off entirely: no log disk, no replicas — the
    paper's machine, bit-identical to a build without the subsystem. *)
val default_durability : durability

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
val default : t

val validate : t -> (unit, string) result
