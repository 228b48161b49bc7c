(** Assembly of the distributed database machine and the transaction
    execution protocol (Sections 2.1 and 3 of the paper).

    One host node (terminals + coordinators) and [num_proc_nodes]
    processing nodes (data + cohorts). A transaction's coordinator runs in
    its terminal's process at the host; cohorts are spawned at data nodes
    by "load cohort" messages (paying process-startup CPU), execute their
    page accesses, and participate in a centralized two-phase commit:

      load -> work -> Work_done -> Do_prepare -> Vote -> decision -> ack

    Aborts can be triggered by a cohort's own CC manager (BTO rejection),
    by a remote CC manager or the Snoop detector (wound, deadlock victim;
    routed as an Abort_request message to the coordinator), or by a
    certification "no" vote. The coordinator then broadcasts Do_abort,
    collects one acknowledgement per loaded cohort, waits one mean
    response time, and reruns the same access plan.

    The protocol's rules are {!Twopc}'s two transition tables; this
    module interprets them. The coordinator waits in one [collect] per
    phase ([Work], [Votes], then [Acks] of the logged decision) and
    performs what [Twopc.coord_step] answers to each message and
    timeout. A cohort is one [cohort] record and one [serve] loop that
    performs what [Twopc.cohort_step] answers; its state lives in the
    attempt's [Messages.cohort] array, where the coordinator and the
    crash ledger read it. The host and the processing nodes crash and
    recover through one ledger indexed by [slot]. *)

open Desim
open Ddbm_model
open Ids

(* Fault runtime, installed only when the fault plan is active
   ([Fault_plan.active]). A zero plan leaves [t.faults = None]: no
   timers, no judged messages, no extra RNG draws — the machine is
   bit-for-bit identical to a fault-free build. *)
type fault_rt = {
  plan : Fault_plan.t;
  link : Faults.Link.t;  (** per-message loss/dup/delay judge *)
  crash_rngs : Rng.t array;  (** per proc node, rate-driven crashes *)
  jitter_rng : Rng.t;
      (** drives the optional timeout jitter; untouched (and never drawn
          from) when the plan's [timeout_jitter] is zero *)
  tear_rng : Rng.t;
      (** one draw per WAL-tearing opportunity (a crash dropping a
          non-empty volatile tail); untouched when [torn_tail] is zero *)
  recrash_rng : Rng.t;
      (** one draw per recovery start (plus the re-crash schedule when it
          hits); untouched when [recrash] is zero *)
  decisions : bool Txn.Key_table.t;
      (** 2PC decision log, attempt -> commit; written before any
          phase-two message is sent and kept for the whole run so the
          termination protocol can answer late inquiries *)
  mutable host_down_until : float;
      (** latest scheduled host recovery; gates terminal admission *)
  mutable timeouts : int;
  mutable retries : int;
  mutable msgs_dropped : int;
  mutable msgs_duplicated : int;
  mutable node_crashes : int;
  mutable orphaned : int;
  mutable failovers : int;
      (** cohorts resurrected at their backup node after a primary crash *)
  down_since : float option array;
      (** the crash ledger, indexed by [slot]: [Some t] while the node is
          down, since [t] (clipped to the window start at warm-up's end);
          [None] while it is up *)
  (* availability accounting, by slot: windowed downtime (reset with the
     observation windows) plus an unwindowed total feeding the in-doubt
     overdue grace *)
  downtime : float array;
  mutable total_downtime : float;
}

(* Open-loop arrival runtime, installed only when the arrival spec is
   open loop ([Arrival.open_loop]). A closed spec leaves [t.arrivals =
   None]: no pump fiber, no admission queue, no extra RNG split — the
   machine is bit-for-bit identical to a closed-loop build. *)
type pending = {
  terminal : int;  (** workload terminal stream the plan was drawn from *)
  enqueued_at : float;
  pending_plan : Plan.t;
}

type arrival_rt = {
  spec : Arrival.t;
  arr_rng : Rng.t;
      (** dedicated inter-arrival stream (thinning draws included) *)
  queue : pending Queue.t;  (** bounded FIFO admission queue *)
  mutable in_flight : int;
      (** dispatched and not yet committed; gates the MPL limiter *)
  mutable next_seq : int;
}

type t = {
  eng : Engine.t;
  time : Engine.clock;  (** [eng]'s clock: [t.time.now] reads it unboxed *)
  params : Params.t;
  clock : Timestamp.Clock.t;
  host : Node.t;
  procs : Node.t array;
  net : Net.t;
  metrics : Metrics.t;
  catalog : Catalog.t;
  workload : Workload.t;
  live : (int, Messages.attempt_runtime) Hashtbl.t;
  think_rng : Rng.t;
  wal : Wal.t array option;
      (** one write-ahead log per processing node when the durability
          model is on ([durability.log_disk]); [None] otherwise — the
          zero-config machine pays nothing *)
  mutable next_tid : int;
  mutable recoveries : int;  (** completed crash-recovery passes *)
  mutable recovery_time : float;  (** summed recovery durations *)
  mutable recovery_chains : int;
      (** dependency chains replayed by chain-parallel recovery *)
  mutable recovery_degraded : int;
      (** chain-parallel passes degraded to serial physical redo because
          a torn tail clipped the dependency records *)
  mutable committed_cov : (int * int * int list) list;
      (** durability coverage obligations, newest first: (tid, attempt,
          updating-cohort nodes after failover relocation) of every fully
          committed transaction; checked against the WALs at end of run
          ([lost_commits] must be 0) *)
  arrivals : arrival_rt option;
  mutable faults : fault_rt option;
  mutable snoop : Ddbm_cc.Snoop.t option;
  mutable audit : Audit.t option;
  mutable events : Tracer.t option;  (** typed lifecycle events *)
}

(* Typed event emission. Every call site reads [if traced t then emit t
   (Event.X ...)]: the guard is what keeps an untraced run from paying
   for tracing, since an event value (or a closure that would build it
   later) allocates even when nothing listens. *)
let traced t = Option.is_some t.events

let emit t ev =
  match t.events with
  | None -> ()
  | Some tr -> Tracer.emit tr ~time:t.time.now ev

type attempt_outcome = Committed of Decomp.t | Aborted of Txn.abort_reason

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)

let request_abort t ~from_node (txn : Txn.t) reason =
  (* Wounds (and any other abort demand) are ignored once the transaction
     has entered the second phase of its commit protocol. The doomed flag
     is set eagerly to suppress duplicate victimizations; the coordinator
     still learns of the abort only when the message arrives. *)
  if (not txn.Txn.doomed) && not (Txn.in_second_phase txn) then begin
    txn.Txn.doomed <- true;
    if traced t then
      emit t
        (Event.Wound
           {
             tid = txn.Txn.tid;
             attempt = txn.Txn.attempt;
             from_node;
             reason;
           });
    Net.send_async t.net ~src:(Proc from_node) ~dst:Host (fun () ->
        match Hashtbl.find_opt t.live txn.Txn.tid with
        | Some rt when Txn.same_attempt rt.Messages.txn txn ->
            Mailbox.send rt.Messages.coord_mb
              (Messages.Abort_request (txn, reason))
        | Some _ | None -> ())
  end

(* One CC manager per processing node, plus the Snoop detector when the
   algorithm needs global deadlock detection. *)
let install_cc t =
  let resources = t.params.Params.resources in
  let algorithm = t.params.Params.cc.Params.algorithm in
  Array.iteri
    (fun i node ->
      let charge_cc_request =
        let cost = resources.Params.inst_per_cc_req in
        if cost <= 0. then fun () -> ()
        else fun () -> Cpu.consume node.Node.cpu ~instructions:cost
      in
      let hooks =
        {
          Cc_intf.eng = t.eng;
          clock = t.clock;
          charge_cc_request;
          request_abort =
            (fun txn reason -> request_abort t ~from_node:i txn reason);
        }
      in
      Node.install_cc node (Ddbm_cc.Registry.make algorithm hooks))
    t.procs;
  if Ddbm_cc.Locking.needs_snoop algorithm then
    t.snoop <-
      Some
        (Ddbm_cc.Snoop.create t.eng ~net:t.net
           ~num_nodes:(Array.length t.procs)
           ~detection_interval:t.params.Params.cc.Params.detection_interval
           ~edges_of:(fun i -> (Node.cc t.procs.(i)).Cc_intf.cc_edges ())
           ~request_abort:(fun ~from_node txn reason ->
             request_abort t ~from_node txn reason))

(* The crash ledger's index: the host at 0, so availability sums the
   host's downtime first. *)
let slot = function Host -> 0 | Proc i -> i + 1
let node_up f node = Option.is_none f.down_since.(slot node)

(* Fault runtime set-up: the dedicated fault RNG streams, the crash
   ledger, and the network's per-message judge. *)
let install_faults t (plan : Fault_plan.t) =
  (* Dedicated fault RNG: the workload/think/node streams are untouched,
     so two runs differing only in the fault plan share the same offered
     load (common random numbers). *)
  let frng = Rng.create plan.Fault_plan.fault_seed in
  let link_rng = Rng.split frng in
  let n = Array.length t.procs in
  (* split order matters for reproducibility: the crash streams must
     see the same splits as before the jitter stream existed *)
  let crash_rngs = Array.init n (fun _ -> Rng.split frng) in
  let jitter_rng = Rng.split frng in
  (* later additions keep appending: tear and recrash streams split
     after the jitter stream so link/crash/jitter draws are unchanged
     on plans that predate them *)
  let tear_rng = Rng.split frng in
  let recrash_rng = Rng.split frng in
  let f =
    {
      plan;
      link =
        Faults.Link.create link_rng ~loss:plan.Fault_plan.msg_loss
          ~dup:plan.Fault_plan.msg_dup ~delay:plan.Fault_plan.msg_delay;
      crash_rngs;
      jitter_rng;
      tear_rng;
      recrash_rng;
      decisions = Txn.Key_table.create 256;
      host_down_until = 0.;
      timeouts = 0;
      retries = 0;
      msgs_dropped = 0;
      msgs_duplicated = 0;
      node_crashes = 0;
      orphaned = 0;
      failovers = 0;
      down_since = Array.make (n + 1) None;
      downtime = Array.make (n + 1) 0.;
      total_downtime = 0.;
    }
  in
  t.faults <- Some f;
  let drop src dst =
    f.msgs_dropped <- f.msgs_dropped + 1;
    if traced t then emit t (Event.Msg_dropped { src; dst });
    []
  in
  Net.set_judge t.net
    (Some
       (fun ~src ~dst ->
         if not (node_up f src && node_up f dst) then drop src dst
         else
           match Faults.Link.judge f.link with
           | [] -> drop src dst
           | [ _ ] as verdict -> verdict
           | verdict ->
               f.msgs_duplicated <- f.msgs_duplicated + 1;
               verdict))

let create ?(histograms = true) (params : Params.t) =
  (match Params.validate params with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.create: " ^ msg));
  (* The chaos registry is process-global; overwrite it wholesale from
     the plan so no state leaks between runs. *)
  (match Ddbm_cc.Fault.apply params.Params.faults.Fault_plan.chaos with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Machine.create: " ^ msg));
  let eng = Engine.create () in
  let rng = Rng.create params.Params.run.Params.seed in
  let resources = params.Params.resources in
  let host =
    Node.create eng (Rng.split rng) ~node_ref:Host
      ~mips:resources.Params.host_mips ~resources
  in
  let procs =
    Array.init params.Params.database.Params.num_proc_nodes (fun i ->
        Node.create eng (Rng.split rng) ~node_ref:(Proc i)
          ~mips:resources.Params.node_mips ~resources)
  in
  let cpu_of = function
    | Host -> host.Node.cpu
    | Proc i -> procs.(i).Node.cpu
  in
  let net = Net.create ~eng ~inst_per_msg:resources.Params.inst_per_msg ~cpu_of in
  let catalog = Catalog.create params.Params.database in
  let workload = Workload.create params catalog (Rng.split rng) in
  (* [think_rng] must be split before any durability stream so the
     offered load is unchanged by turning the log model on or off. *)
  let think_rng = Rng.split rng in
  let wal =
    let d = params.Params.durability in
    if d.Params.log_disk then begin
      let wal_rng = Rng.split rng in
      Some
        (Array.init (Array.length procs) (fun _ ->
             Wal.create eng (Rng.split wal_rng)
               ~min_time:d.Params.log_min_time
               ~max_time:d.Params.log_max_time))
    end
    else None
  in
  (* Open-loop arrival stream: split last, and only when the spec is
     open, so a closed spec performs zero extra splits and every existing
     stream (hence the committed pins and the golden trace) is
     unchanged. *)
  let arrivals =
    let a = params.Params.arrivals in
    if Arrival.open_loop a then
      Some
        {
          spec = a;
          arr_rng = Rng.split rng;
          queue = Queue.create ();
          in_flight = 0;
          next_seq = 0;
        }
    else None
  in
  let t =
    {
      eng;
      time = Engine.clock eng;
      params;
      clock = Timestamp.Clock.create ();
      host;
      procs;
      net;
      metrics =
        Metrics.create ~quantiles:histograms eng
          ~restart_delay_floor:params.Params.run.Params.restart_delay_floor;
      catalog;
      workload;
      live = Hashtbl.create 256;
      think_rng;
      wal;
      next_tid = 0;
      recoveries = 0;
      recovery_time = 0.;
      recovery_chains = 0;
      recovery_degraded = 0;
      committed_cov = [];
      arrivals;
      faults = None;
      snoop = None;
      audit = None;
      events = None;
    }
  in
  install_cc t;
  if Fault_plan.active params.Params.faults then
    install_faults t params.Params.faults;
  t

(* ------------------------------------------------------------------ *)
(* Crashes and recoveries                                              *)

(* A decision in the log means phase two has begun: the attempt's
   outcome is durable and survives any crash. *)
let decision_of f (txn : Txn.t) =
  Txn.Key_table.find_opt f.decisions
    (Txn.Key.make ~tid:txn.Txn.tid ~attempt:txn.Txn.attempt)

let log_decision t (txn : Txn.t) commit =
  match t.faults with
  | None -> ()
  | Some f ->
      Txn.Key_table.replace f.decisions
        (Txn.Key.make ~tid:txn.Txn.tid ~attempt:txn.Txn.attempt)
        commit

let live_sorted t =
  Hashtbl.fold (fun tid rt acc -> (tid, rt) :: acc) t.live []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The nodes of the cohorts at the plan positions where [f] holds,
   ascending. *)
let nodes_where (rt : Messages.attempt_runtime) f =
  let acc = ref [] in
  Array.iteri (fun p node -> if f p then acc := node :: !acc) rt.Messages.nodes;
  List.sort Int.compare !acc

let loaded_nodes (rt : Messages.attempt_runtime) =
  nodes_where rt (fun p -> Option.is_some rt.Messages.cohort_mbs.(p))

let cohort_plan_of (txn : Txn.t) node =
  List.find_opt
    (fun (c : Plan.cohort_plan) -> c.Plan.node = node)
    txn.Txn.plan.Plan.cohorts

(* Primary/backup replication: each processing node's backup is its ring
   successor. *)
let backup_of t i = (i + 1) mod Array.length t.procs

(* Where the cohort originally planned at [node] now runs: its backup
   after a failover, [node] itself otherwise. *)
let resident_node (rt : Messages.attempt_runtime) node =
  let b = rt.Messages.relocated.(Messages.position rt node) in
  if b < 0 then node else b

(* The crash ledger's transitions, for the host and the processing
   nodes alike. Each returns whether the node changed state. *)
let mark_down t f node =
  let s = slot node in
  let was_up = Option.is_none f.down_since.(s) in
  if was_up then begin
    f.node_crashes <- f.node_crashes + 1;
    f.down_since.(s) <- Some t.time.now;
    if traced t then emit t (Event.Node_crashed { node })
  end;
  was_up

let mark_up t f node =
  let s = slot node in
  match f.down_since.(s) with
  | None -> false
  | Some since ->
      let d = t.time.now -. since in
      f.downtime.(s) <- f.downtime.(s) +. d;
      f.total_downtime <- f.total_downtime +. d;
      f.down_since.(s) <- None;
      if traced t then emit t (Event.Node_recovered { node });
      true

(* A crash dooms an attempt that no message can tell: the coordinator
   reads [crash_doomed] at its next receive timeout. *)
let doom (rt : Messages.attempt_runtime) =
  rt.Messages.txn.Txn.doomed <- true;
  rt.Messages.crash_doomed <- true

(* A host crash kills every coordinator whose decision is not yet
   logged: those attempts abort on recovery (presumed abort). Attempts
   with a logged decision continue — the coordinator fiber surviving
   models recovery replaying the decision log. Terminals admit no new
   transactions while the host is down. *)
let crash_host t f ~duration =
  if mark_down t f Host then begin
    let until = t.time.now +. duration in
    if until > f.host_down_until then f.host_down_until <- until;
    List.iter
      (fun (_, (rt : Messages.attempt_runtime)) ->
        if decision_of f rt.Messages.txn = None then doom rt)
      (live_sorted t);
    ignore
      (Engine.schedule_after t.eng ~delay:duration (fun () ->
           ignore (mark_up t f Host : bool))
        : Engine.handle)
  end

(* A receive on a protocol mailbox: a plain blocking receive when faults
   are off; otherwise bounded by the plan's (exponentially backed-off,
   optionally jittered) timeout for [round]. *)
let recv t mb ~round =
  match t.faults with
  | None -> Some (Mailbox.recv mb)
  | Some f ->
      Mailbox.recv_timeout mb t.eng
        ~timeout:
          (Backoff.delay_jittered ~jitter:f.plan.Fault_plan.timeout_jitter
             ~rng:f.jitter_rng ~base:f.plan.Fault_plan.timeout
             ~cap:f.plan.Fault_plan.timeout_cap ~round)

let note_timeout t f (txn : Txn.t) ~at_node ~round =
  f.timeouts <- f.timeouts + 1;
  if traced t then
    emit t
      (Event.Timeout_fired
         { tid = txn.Txn.tid; attempt = txn.Txn.attempt; at_node; round })

(* Out-of-band cleanup of a cohort the protocol can no longer reach: its
   CC footprint is released and the attempt counts as orphaned there. *)
let orphan t f (txn : Txn.t) node =
  (Node.cc t.procs.(node)).Cc_intf.cc_abort txn;
  f.orphaned <- f.orphaned + 1;
  if traced t then
    emit t
      (Event.Txn_orphaned
         { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node })

(* ------------------------------------------------------------------ *)
(* Cohort process                                                      *)

let check_doomed (txn : Txn.t) =
  if txn.Txn.doomed then raise (Txn.Aborted Txn.Peer_abort)

(* Whether replica copies are write-locked at access time (read-one/
   write-all during execution) or only during the first phase of commit
   (O2PL and the certification/deferred schemes, whose remote write
   intent piggybacks on the prepare message). *)
let write_all_at_access = function
  | Params.No_dc | Params.Twopl | Params.Wound_wait | Params.Wait_die
  | Params.Bto ->
      true
  | Params.Opt | Params.O2pl | Params.Twopl_defer -> false

(* Synchronously obtain write permission on every remote copy of [page]:
   one request message per copy site, a helper process that may block in
   the remote CC manager, and one reply message. Any rejection aborts the
   requester. *)
let acquire_replica_writes t (txn : Txn.t) ~from_node page =
  let copies =
    Catalog.copy_nodes t.catalog ~file:(Ids.Page.file page)
    |> List.filter (fun site -> site <> from_node)
  in
  if copies <> [] then begin
    let pending = ref (List.length copies) in
    let failure = ref None in
    let all_in : unit Ivar.t = Ivar.create () in
    List.iter
      (fun site ->
        Net.send t.net ~src:(Proc from_node) ~dst:(Proc site) (fun () ->
            Engine.spawn t.eng (fun () ->
                let outcome =
                  try
                    (Node.cc t.procs.(site)).Cc_intf.cc_write txn page;
                    `Granted
                  with Txn.Aborted reason -> `Failed reason
                in
                Net.send t.net ~src:(Proc site) ~dst:(Proc from_node)
                  (fun () ->
                    (match outcome with
                    | `Failed reason when !failure = None ->
                        failure := Some reason
                    | `Failed _ | `Granted -> ());
                    decr pending;
                    if !pending = 0 then Ivar.fill all_in ()))))
      copies;
    Ivar.read all_in;
    match !failure with
    | Some reason -> raise (Txn.Aborted reason)
    | None -> ()
  end

(* One cohort of one attempt, built once when the cohort starts. A
   [proxy] runs the cohort's commit-protocol role at its backup node
   after a primary crash: the work-phase resources were already spent at
   the primary, the CC footprint stays at the primary's manager
   (modeling dependency-logged lock state shipped with the write-set),
   and logging/installs happen at the backup. Protocol messages still
   carry the original node id, so the coordinator is oblivious to the
   relocation beyond its routing table. *)
type cohort = {
  rt : Messages.attempt_runtime;
  txn : Txn.t;
  cplan : Plan.cohort_plan;
  mb : Messages.cohort_msg Mailbox.t;
  proxy : bool;
  node : int;  (** the planned node; messages and events name it *)
  pos : int;  (** [node]'s plan position *)
  exec : Node.t;  (** where the cohort runs: [node], or its backup *)
  self : node_ref;  (** [exec]'s network address *)
  cc : Cc_intf.node_cc;  (** [node]'s manager, on a proxy too *)
  usage : Messages.cohort_usage;
  log : Wal.t option;  (** [exec]'s write-ahead log *)
  updater : bool;
}

(* Only an updating cohort writes log records. On the page path a caller
   matches on [logging c] before it builds a record, so a cohort that
   writes none builds none. *)
let logging c = if c.updater then c.log else None

let append_log c record =
  match logging c with Some w -> Wal.append w record | None -> ()

(* Log forces: blocking FCFS writes on this node's log disk. A prepare
   force gates the cohort's yes vote and accrues to the decomposition's
   [log] component (via the decision-gating cohort); a commit force
   happens after the decision and only shows in log-disk utilization. *)
let force_log t c ~accrue w =
  let t0 = t.time.now in
  Wal.force w;
  let dur = t.time.now -. t0 in
  if accrue then c.usage.Messages.u_log <- c.usage.Messages.u_log +. dur;
  Metrics.record t.metrics Metrics.Log_force dur;
  if traced t then
    emit t
      (Event.Log_forced
         {
           tid = c.txn.Txn.tid;
           attempt = c.txn.Txn.attempt;
           node = c.node;
           dur;
         })

(* The primary's fiber exits silently once a backup proxy has taken
   over: no sends, no [cc_abort] — the footprint now belongs to the
   proxy. Only ever true when [proxy] is false. *)
let relocated_away c = (not c.proxy) && c.rt.Messages.relocated.(c.pos) >= 0

(* Timed CC access: the wall time from request to grant (lock waits,
   conversion waits, CC request processing) accrues to the work-phase
   usage record feeding the response-time decomposition. [work:false]
   marks commit-protocol acquisitions, which belong to the 2PC component
   instead. *)
let access t c ~work mode page =
  let txn = c.txn in
  if traced t then
    emit t
      (Event.Lock_request
         {
           tid = txn.Txn.tid;
           attempt = txn.Txn.attempt;
           node = c.node;
           page;
           mode;
         });
  let t0 = t.time.now in
  (match mode with
  | Event.Read -> c.cc.Cc_intf.cc_read txn page
  | Event.Write -> c.cc.Cc_intf.cc_write txn page);
  let waited = t.time.now -. t0 in
  if work then
    c.usage.Messages.u_blocked <- c.usage.Messages.u_blocked +. waited;
  if traced t then
    emit t
      (Event.Lock_grant
         {
           tid = txn.Txn.tid;
           attempt = txn.Txn.attempt;
           node = c.node;
           page;
           mode;
           waited;
         })

let note_release t c =
  if traced t then
    emit t
      (Event.Lock_release
         { tid = c.txn.Txn.tid; attempt = c.txn.Txn.attempt; node = c.node })

(* Cohort-protocol traffic rides the faulty channel; everything else
   (replica-write RPCs, abort requests, Snoop rounds) is modeled as a
   reliable control plane. *)
let send_coord t c msg =
  Net.send ~faulty:true t.net ~src:c.self ~dst:Host (fun () ->
      Mailbox.send c.rt.Messages.coord_mb msg)

(* 2PC termination protocol: ask the coordinator (if still live on this
   attempt) what was decided; otherwise answer from the host's decision
   log — no entry means presumed abort. *)
let send_inquiry t c =
  let txn = c.txn in
  Net.send ~faulty:true t.net ~src:c.self ~dst:Host (fun () ->
      match Hashtbl.find_opt t.live txn.Txn.tid with
      | Some rt' when Txn.same_attempt rt'.Messages.txn txn ->
          Mailbox.send rt'.Messages.coord_mb (Messages.Inquiry (txn, c.node))
      | Some _ | None ->
          let commit =
            match t.faults with
            | Some f -> (
                match decision_of f txn with Some d -> d | None -> false)
            | None -> false
          in
          Net.send_async ~faulty:true t.net ~src:Host ~dst:c.self (fun () ->
              Mailbox.send c.mb
                (if commit then Messages.Do_commit else Messages.Do_abort)))

(* Work phase: each page access is a CC request, a disk read, and a
   slice of CPU. The transaction manager knows at access time whether
   the page will be updated, so the read lock of an update access is
   converted to a write lock immediately at access time (a zero-width
   upgrade window, matching the paper's model) and the page's disk write
   is deferred to after commit. *)
let work t c =
  let txn = c.txn in
  let tid = txn.Txn.tid and attempt = txn.Txn.attempt in
  if traced t then emit t (Event.Cohort_start { tid; attempt; node = c.node });
  let log = logging c in
  (match log with
  | Some w -> Wal.append w (Wal.Begin { tid; attempt })
  | None -> ());
  let ops = c.cplan.Plan.ops in
  for i = 0 to Array.length ops - 1 do
    let page = Plan.page ops.(i) in
    check_doomed txn;
    access t c ~work:true Event.Read page;
    if Plan.update ops.(i) then begin
      check_doomed txn;
      access t c ~work:true Event.Write page;
      (match log with
      | Some w -> Wal.append w (Wal.Update { tid; attempt; page })
      | None -> ());
      (* read-one/write-all: lock the remote copies now unless the
         algorithm defers them to the commit protocol. The round trips
         land in the decomposition's message/other residual. *)
      if
        write_all_at_access t.params.Params.cc.Params.algorithm
        && t.params.Params.database.Params.replication > 1
      then begin
        check_doomed txn;
        acquire_replica_writes t txn ~from_node:c.node page
      end
    end;
    (* permission fully granted: the auditor observes the version this
       access sees, atomically with the grant *)
    (match t.audit with Some a -> Audit.record_read a txn page | None -> ());
    check_doomed txn;
    let t0 = t.time.now in
    Disk.read (Node.random_disk c.exec);
    let dur = t.time.now -. t0 in
    c.usage.Messages.u_disk <- c.usage.Messages.u_disk +. dur;
    if traced t then
      emit t
        (Event.Disk_access { tid; attempt; node = c.node; write = false; dur });
    check_doomed txn;
    let t0 = t.time.now in
    Cpu.consume c.exec.Node.cpu
      ~instructions:(Workload.draw_page_instructions t.workload);
    let dur = t.time.now -. t0 in
    c.usage.Messages.u_cpu <- c.usage.Messages.u_cpu +. dur;
    if traced t then
      emit t (Event.Cpu_slice { tid; attempt; node = c.node; dur })
  done;
  (* Primary/backup replication: ship the write-set to the backup before
     reporting the work done, so a crash of this node can be survived by
     failing the cohort over instead of dooming the attempt. One
     faulty-channel message; registration at the backup is marked on
     delivery. *)
  if
    t.params.Params.durability.Params.replicas > 0
    && c.updater
    && Array.length t.procs > 1
  then
    Net.send ~faulty:true t.net ~src:c.self
      ~dst:(Proc (backup_of t c.node))
      (fun () -> c.rt.Messages.shipped.(c.pos) <- true);
  send_coord t c (Messages.Work_done c.node)

(* Phase one at the cohort; returns its vote. From here the cohort may
   block inside its CC manager, so a crash can no longer fail it over to
   the backup — a proxy would double-drive the manager. *)
let prepare t c =
  let txn = c.txn in
  let tid = txn.Txn.tid and attempt = txn.Txn.attempt in
  let cplan = c.cplan in
  (* algorithms that defer replica write permission to the commit
     protocol obtain it now; the write intent arrived with the prepare
     message, so no extra messages are charged. O2PL and 2PL-D may block
     here (covered by the Snoop); OPT merely registers the writes for
     certification. *)
  if
    (not (write_all_at_access t.params.Params.cc.Params.algorithm))
    && cplan.Plan.apply_ops <> []
  then
    List.iter (fun page -> access t c ~work:false Event.Write page)
      cplan.Plan.apply_ops;
  (* optional logging model: an updating cohort forces its log page to
     disk before it can vote yes (footnote 5) *)
  if t.params.Params.resources.Params.model_logging && c.updater then begin
    let t0 = t.time.now in
    Disk.write (Node.random_disk c.exec);
    if traced t then
      emit t
        (Event.Disk_access
           {
             tid;
             attempt;
             node = c.node;
             write = true;
             dur = t.time.now -. t0;
           })
  end;
  (* a proxy replays the shipped write-set into its own node's log;
     replica installs are logged where they will be applied *)
  if c.proxy then begin
    append_log c (Wal.Begin { tid; attempt });
    Array.iter
      (fun op ->
        if Plan.update op then
          append_log c (Wal.Update { tid; attempt; page = Plan.page op }))
      cplan.Plan.ops
  end;
  List.iter
    (fun page -> append_log c (Wal.Update { tid; attempt; page }))
    cplan.Plan.apply_ops;
  let vote = c.cc.Cc_intf.cc_prepare txn in
  (* a yes vote makes the cohort's state durable (in doubt) before the
     vote can possibly reach the coordinator: the prepare record is
     forced regardless of the force policy *)
  (match c.log with
  | Some w when c.updater ->
      if vote then begin
        Wal.append w (Wal.Prepare { tid; attempt });
        force_log t c ~accrue:true w
      end
      else Wal.append w (Wal.Abort { tid; attempt })
  | Some _ | None -> ());
  vote

let commit t c =
  let txn = c.txn in
  let tid = txn.Txn.tid and attempt = txn.Txn.attempt in
  Metrics.record_decided t.metrics ~tid ~attempt ~node:c.node;
  (* crash recovery may have already redone this cohort's installs from
     the durable log; the late Do_commit then only releases the CC
     footprint and acknowledges *)
  let already_installed =
    match c.log with Some w -> Wal.installed w ~tid ~attempt | None -> false
  in
  if not already_installed then begin
    let write_one () =
      Cpu.consume c.exec.Node.cpu
        ~instructions:t.params.Params.resources.Params.inst_per_update;
      Disk.submit_write (Node.random_disk c.exec) ignore
    in
    for _ = 1 to Plan.num_updates c.cplan do
      write_one ()
    done;
    (* replica copies installed at this node *)
    List.iter (fun (_ : Ids.Page.t) -> write_one ()) c.cplan.Plan.apply_ops
  end;
  (* snapshot the installs and perform them in the same event *)
  let installed = c.cc.Cc_intf.cc_installed txn in
  c.cc.Cc_intf.cc_commit txn;
  note_release t c;
  (match t.audit with
  | Some a ->
      (* replica installs are physical copies of the same logical page;
         the auditor counts only primary installs *)
      let primary page =
        Array.exists
          (fun op -> Ids.Page.equal (Plan.page op) page)
          c.cplan.Plan.ops
      in
      List.iter
        (fun page -> if primary page then Audit.record_install a txn page)
        installed
  | None -> ());
  (match c.log with
  | Some w when c.updater ->
      Wal.append w (Wal.Commit { tid; attempt });
      (match t.params.Params.durability.Params.log_force with
      | Params.At_commit -> force_log t c ~accrue:false w
      | Params.At_prepare -> ());
      Wal.mark_installed w ~tid ~attempt
  | Some _ | None -> ());
  send_coord t c (Messages.Done_ack c.node)

let abort t c =
  let txn = c.txn in
  Metrics.record_decided t.metrics ~tid:txn.Txn.tid ~attempt:txn.Txn.attempt
    ~node:c.node;
  c.cc.Cc_intf.cc_abort txn;
  note_release t c;
  append_log c (Wal.Abort { tid = txn.Txn.tid; attempt = txn.Txn.attempt });
  send_coord t c (Messages.Done_ack c.node)

(* Feed [input] to the cohort's row of {!Twopc}: record the state it
   leads to and return the action. *)
let step c input =
  let state = c.rt.Messages.cohort.(c.pos) in
  let action = Twopc.cohort_step state input in
  c.rt.Messages.cohort.(c.pos) <- Twopc.after state action;
  action

(* Perform a cohort action; false once the process ends. *)
let rec perform t c (action : Twopc.cohort_action) =
  match action with
  | Twopc.Nothing | Twopc.Start -> true
  | Twopc.Prepare ->
      perform t c (step c (if prepare t c then Twopc.Yes else Twopc.No))
  | Twopc.Send_yes | Twopc.Resend_yes | Twopc.Send_no | Twopc.Resend_no ->
      let yes = action == Twopc.Send_yes || action == Twopc.Resend_yes in
      if action == Twopc.Send_yes then
        Metrics.record_prepared t.metrics ~tid:c.txn.Txn.tid
          ~attempt:c.txn.Txn.attempt ~node:c.node;
      send_coord t c (Messages.Vote (c.node, yes));
      true
  | Twopc.Resend_work_done ->
      send_coord t c (Messages.Work_done c.node);
      true
  | Twopc.Inquire ->
      send_inquiry t c;
      true
  | Twopc.Release ->
      c.cc.Cc_intf.cc_abort c.txn;
      note_release t c;
      true
  | Twopc.Install ->
      commit t c;
      false
  | Twopc.Discard ->
      abort t c;
      false
  | Twopc.Ack ->
      send_coord t c (Messages.Done_ack c.node);
      false
  | Twopc.Stop -> false

(* A cohort after its work phase. A message that changes nothing keeps
   the receive's round; a timeout lengthens it. *)
let rec serve t c ~round =
  match recv t c.mb ~round with
  | Some msg ->
      let action =
        step c
          (match msg with
          | Messages.Do_prepare -> Twopc.Do_prepare
          | Messages.Do_commit -> Twopc.Do_commit
          | Messages.Do_abort -> Twopc.Do_abort)
      in
      if perform t c action then
        serve t c ~round:(if action == Twopc.Nothing then round else 1)
  | None ->
      let input =
        if relocated_away c then Twopc.Relocated
        else
          match t.faults with
          | None -> assert false
          | Some f ->
              note_timeout t f c.txn ~at_node:c.self ~round;
              f.retries <- f.retries + 1;
              Twopc.Timeout
      in
      if perform t c (step c input) then serve t c ~round:(round + 1)

let run_cohort ?(proxy = false) t (rt : Messages.attempt_runtime)
    (cplan : Plan.cohort_plan) mb =
  let node = cplan.Plan.node in
  let exec_node = if proxy then backup_of t node else node in
  let pos = Messages.position rt node in
  let c =
    {
      rt;
      txn = rt.Messages.txn;
      cplan;
      mb;
      proxy;
      node;
      pos;
      exec = t.procs.(exec_node);
      self = Proc exec_node;
      cc = Node.cc t.procs.(node);
      usage = rt.Messages.usage.(pos);
      log = (match t.wal with Some w -> Some w.(exec_node) | None -> None);
      updater = Plan.updates cplan;
    }
  in
  match
    if proxy then
      (* the coordinator may have never seen the primary's Work_done; a
         duplicate is ignored *)
      send_coord t c (Messages.Work_done node)
    else work t c;
    serve t c ~round:1
  with
  | () -> ()
  | exception Txn.Aborted reason ->
      ignore (perform t c (step c Twopc.Failed) : bool);
      (match reason with
      | Txn.Bto_conflict | Txn.Cert_failed | Txn.Died ->
          (* self-inflicted: the coordinator does not know yet *)
          send_coord t c (Messages.Cohort_aborted (node, reason))
      | Txn.Local_deadlock | Txn.Global_deadlock | Txn.Wounded
      | Txn.Peer_abort | Txn.Crashed | Txn.Timed_out ->
          ());
      serve t c ~round:1

(* Crash recovery at a processing node (WAL model on), in three stages:

   1. analysis — scan the durable log and resolve the in-doubt set
      against the host's decision log (one control-plane round trip);
   2. partition — group the commit-decided transactions into
      independent redo chains from the dependency records logged with
      each update ([Wal.redo_chains]): transactions whose write-sets
      never met land in different chains;
   3. redo — replay the chains on [durability.recovery_jobs] concurrent
      worker fibers, installing the durable updates of commit-decided
      transactions onto the data disks, then take a truncating
      checkpoint.

   [recovery_jobs = 1] preserves the original serial redo pass exactly.
   When a torn log tail clipped the dependency records
   ([Wal.deps_corrupt]), a chain-parallel pass degrades to the same
   serial physical redo — which needs no dependency information — and
   repairs the dependency index once the checkpoint lands.

   Recovery is re-entrant: a re-crash while recovering abandons the
   pass (the up-guards below), and the next recovery starts over from
   the durable log; redo is idempotent, so no committed update is
   lost. A cohort fiber that later receives the (retried) Do_commit
   finds its installs already done and only releases its CC footprint
   and acknowledges. In-doubt attempts that are still live stay in
   doubt — the ordinary termination protocol resolves them — and
   finished attempts without a logged decision are presumed aborted. *)

(* Stage 1, analysis: scan the durable log and ask the host about the
   in-doubt set. Returns the set's size and, per member, (tid, attempt,
   whether the attempt is still live, its logged decision). *)
let resolve_in_doubt t f i wal =
  Wal.scan wal;
  let doubts = Wal.in_doubt wal in
  let resolved = ref [] in
  if doubts <> [] then begin
    let got : unit Ivar.t = Ivar.create () in
    Net.send t.net ~src:(Proc i) ~dst:Host (fun () ->
        let answers =
          List.map
            (fun (tid, attempt) ->
              let live =
                match Hashtbl.find_opt t.live tid with
                | Some rt -> Int.equal rt.Messages.txn.Txn.attempt attempt
                | None -> false
              in
              ( tid,
                attempt,
                live,
                Txn.Key_table.find_opt f.decisions (Txn.Key.make ~tid ~attempt)
              ))
            doubts
        in
        Net.send_async t.net ~src:Host ~dst:(Proc i) (fun () ->
            resolved := answers;
            Ivar.fill got ()));
    Ivar.read got
  end;
  (List.length doubts, !resolved)

let abort_undecided wal (tid, attempt, live, decision) =
  match decision with
  | Some true -> ()
  | Some false -> Wal.append wal (Wal.Abort { tid; attempt })
  | None -> if not live then Wal.append wal (Wal.Abort { tid; attempt })

(* Redo one commit-decided transaction's durable updates onto node
   [i]'s data disks. *)
let replay_commit t i wal redone ~tid ~attempt =
  let node = t.procs.(i) in
  for _ = 1 to Wal.redo_pages wal ~tid ~attempt do
    Cpu.consume node.Node.cpu
      ~instructions:t.params.Params.resources.Params.inst_per_update;
    Disk.write (Node.random_disk node)
  done;
  Wal.append wal (Wal.Commit { tid; attempt });
  Wal.mark_installed wal ~tid ~attempt;
  incr redone

(* Stage 3 alone, serial physical redo: with [recovery_jobs = 1] this is
   the original recovery pass, event for event; it doubles as the
   degraded path when corrupt dependency records rule out chaining. *)
let serial_redo t i wal redone resolved =
  List.iter
    (fun ((tid, attempt, _, decision) as answer) ->
      match decision with
      | Some true -> replay_commit t i wal redone ~tid ~attempt
      | Some false | None -> abort_undecided wal answer)
    resolved

(* Stages 2 and 3, chain-parallel redo: aborts are appended up front
   (pure log records, no installs), then the commit-decided set is
   partitioned into dependency chains and dealt round-robin to [jobs]
   worker fibers. Chains share no pages and no dependency edges, so the
   fiber interleaving cannot change the recovered state. *)
let chain_redo t f i wal ~jobs redone resolved =
  List.iter (abort_undecided wal) resolved;
  let commit_keys =
    List.filter_map
      (fun (tid, attempt, _, decision) ->
        match decision with
        | Some true -> Some (tid, attempt)
        | Some false | None -> None)
      resolved
  in
  let chains = Array.of_list (Wal.redo_chains wal commit_keys) in
  let nchains = Array.length chains in
  (* the chains must cover the commit-decided set exactly *)
  assert (
    Array.fold_left (fun n chain -> n + List.length chain) 0 chains
    = List.length commit_keys);
  if nchains > 0 then begin
    let self = Proc i in
    let workers = Stdlib.min jobs nchains in
    let dones = Array.init workers (fun _ : unit Ivar.t -> Ivar.create ()) in
    for w = 0 to workers - 1 do
      Engine.spawn t.eng (fun () ->
          let c = ref w in
          while !c < nchains do
            let chain = !c in
            let members = chains.(chain) in
            let txns = List.length members in
            if traced t then
              emit t (Event.Recovery_chain_started { node = i; chain; txns });
            let c0 = t.time.now in
            List.iter
              (fun (tid, attempt) ->
                if node_up f self then
                  replay_commit t i wal redone ~tid ~attempt)
              members;
            if node_up f self then begin
              let duration = t.time.now -. c0 in
              t.recovery_chains <- t.recovery_chains + 1;
              Metrics.record t.metrics Metrics.Chain duration;
              if traced t then
                emit t
                  (Event.Recovery_chain_completed
                     { node = i; chain; txns; duration })
            end;
            c := !c + workers
          done;
          Ivar.fill dones.(w) ())
    done;
    Array.iter Ivar.read dones
  end

let rec spawn_recovery t f i wal =
  Engine.spawn t.eng (fun () ->
      if traced t then emit t (Event.Recovery_started { node = i });
      let t0 = t.time.now in
      (* crash-during-recovery fault: with probability [recrash] this
         pass is interrupted by a second crash moments after it starts,
         exercising the re-entrancy above. The repair time reuses the
         plan's MTTR stream parameters. *)
      if
        f.plan.Fault_plan.recrash > 0.
        && Rng.bool f.recrash_rng ~p:f.plan.Fault_plan.recrash
      then begin
        let delay =
          Rng.exponential f.recrash_rng
            ~mean:(f.plan.Fault_plan.mean_repair /. 100.)
        in
        let duration =
          Rng.exponential f.recrash_rng ~mean:f.plan.Fault_plan.mean_repair
        in
        ignore
          (Engine.schedule_after t.eng ~delay (fun () ->
               crash_node t f i ~duration)
            : Engine.handle)
      end;
      let doubts, resolved = resolve_in_doubt t f i wal in
      let self = Proc i in
      if node_up f self then begin
        let redone = ref 0 in
        let jobs = t.params.Params.durability.Params.recovery_jobs in
        let corrupt = Wal.deps_corrupt wal in
        if jobs <= 1 || corrupt then begin
          if jobs > 1 then t.recovery_degraded <- t.recovery_degraded + 1;
          serial_redo t i wal redone resolved
        end
        else chain_redo t f i wal ~jobs redone resolved;
        Wal.append wal (Wal.Checkpoint { active = doubts });
        (* the recovery checkpoint force queues on the same log disk as
           the forward path's forces; it joins the same latency
           histogram, so histogram counts conserve against [Wal.forces] *)
        let f0 = t.time.now in
        Wal.force wal;
        Metrics.record t.metrics Metrics.Log_force (t.time.now -. f0);
        if node_up f self then begin
          if corrupt then Wal.repair_deps wal;
          let dur = t.time.now -. t0 in
          t.recoveries <- t.recoveries + 1;
          t.recovery_time <- t.recovery_time +. dur;
          Metrics.record t.metrics Metrics.Recovery dur;
          if traced t then
            emit t
              (Event.Recovery_completed
                 { node = i; duration = dur; redone = !redone })
        end
      end)

and recover_node t f i =
  if mark_up t f (Proc i) then
    match t.wal with
    | Some wals -> spawn_recovery t f i wals.(i)
    | None -> ()

(* A processing-node crash loses volatile state, including the WAL's
   un-forced tail. A resident cohort that has not yet voted is a
   casualty: with primary/backup replication on, if its write-set was
   delivered to a live backup and it is not already mid-prepare, a proxy
   fiber at the backup takes over its commit-protocol role (failover);
   otherwise the attempt is doomed and the cohort's CC footprint
   force-cleaned out of band, exactly as without replication. Prepared
   (voted) cohorts are in doubt: their durable prepare record and the
   termination protocol finish them after repair. *)
and crash_node t f i ~duration =
  if mark_down t f (Proc i) then begin
    (match t.wal with
    | Some wals ->
        (* torn-tail fault: the crash not only drops the un-forced tail
           but tears it — the tail's dependency records are clipped and
           the next recovery must degrade to serial physical redo. One
           draw per crash (the tear only takes effect when the dropped
           tail is non-empty); zero draws when the mode is off, so
           existing plans replay unchanged. *)
        let torn =
          f.plan.Fault_plan.torn_tail > 0.
          && Rng.bool f.tear_rng ~p:f.plan.Fault_plan.torn_tail
        in
        Wal.on_crash ~torn wals.(i)
    | None -> ());
    let replicas = t.params.Params.durability.Params.replicas in
    let startup = t.params.Params.resources.Params.inst_per_startup in
    List.iter
      (fun (_, (rt : Messages.attempt_runtime)) ->
        let txn = rt.Messages.txn in
        if decision_of f txn = None then
          List.iter
            (fun orig ->
              let p = Messages.position rt orig in
              let state = rt.Messages.cohort.(p) in
              if Int.equal (resident_node rt orig) i && Twopc.casualty state
              then begin
                let b = backup_of t orig in
                let cplan =
                  if
                    replicas > 0 && b <> orig
                    && rt.Messages.shipped.(p)
                    && state = Twopc.Working
                    && rt.Messages.relocated.(p) < 0
                    && node_up f (Proc b)
                  then cohort_plan_of txn orig
                  else None
                in
                match cplan with
                | Some cplan ->
                    (* failover: route the coordinator to the backup and
                       hand the (possibly in-flight) protocol messages to
                       a fresh mailbox owned by the proxy *)
                    rt.Messages.relocated.(p) <- b;
                    let mb = Mailbox.create () in
                    rt.Messages.cohort_mbs.(p) <- Some mb;
                    f.failovers <- f.failovers + 1;
                    if traced t then
                      emit t
                        (Event.Cohort_resurrected
                           {
                             tid = txn.Txn.tid;
                             attempt = txn.Txn.attempt;
                             node = orig;
                             backup = b;
                           });
                    Cpu.submit t.procs.(b).Node.cpu ~instructions:startup
                      (fun () ->
                        Engine.spawn t.eng (fun () ->
                            run_cohort ~proxy:true t rt cplan mb))
                | None ->
                    doom rt;
                    orphan t f txn orig
              end)
            (loaded_nodes rt))
      (live_sorted t);
    ignore
      (Engine.schedule_after t.eng ~delay:duration (fun () ->
           recover_node t f i)
        : Engine.handle)
  end

let schedule_faults t f =
  List.iter
    (fun (c : Fault_plan.crash) ->
      ignore
        (Engine.schedule t.eng ~at:c.Fault_plan.at (fun () ->
             match c.Fault_plan.target with
             | Host -> crash_host t f ~duration:c.Fault_plan.duration
             | Proc i -> crash_node t f i ~duration:c.Fault_plan.duration)
          : Engine.handle))
    f.plan.Fault_plan.crashes;
  if f.plan.Fault_plan.crash_rate > 0. then
    Array.iteri
      (fun i rng ->
        let rec arm () =
          let gap =
            Rng.exponential rng ~mean:(1. /. f.plan.Fault_plan.crash_rate)
          in
          ignore
            (Engine.schedule_after t.eng ~delay:gap (fun () ->
                 if node_up f (Proc i) then begin
                   let duration =
                     Rng.exponential rng ~mean:f.plan.Fault_plan.mean_repair
                   in
                   crash_node t f i ~duration
                 end;
                 arm ())
              : Engine.handle)
        in
        arm ())
      f.crash_rngs

(* ------------------------------------------------------------------ *)
(* Coordinator (runs inside the submitting terminal's process)         *)

let load_cohort t (rt : Messages.attempt_runtime) (cplan : Plan.cohort_plan) =
  let node_idx = cplan.Plan.node in
  let p = Messages.position rt node_idx in
  let mb =
    (* a retransmitted load (lost first copy) reuses the mailbox *)
    match rt.Messages.cohort_mbs.(p) with
    | Some mb -> mb
    | None ->
        let mb = Mailbox.create () in
        rt.Messages.cohort_mbs.(p) <- Some mb;
        mb
  in
  if traced t then
    emit t
      (Event.Cohort_load
         {
           tid = rt.Messages.txn.Txn.tid;
           attempt = rt.Messages.txn.Txn.attempt;
           node = node_idx;
         });
  let node = t.procs.(node_idx) in
  let startup = t.params.Params.resources.Params.inst_per_startup in
  Net.send ~faulty:true t.net ~src:Host ~dst:(Proc node_idx) (fun () ->
      (* a duplicated load must not spawn a twin cohort *)
      let state = rt.Messages.cohort.(p) in
      let action = Twopc.cohort_step state Twopc.Load in
      if action == Twopc.Start then begin
        rt.Messages.cohort.(p) <- Twopc.after state action;
        Cpu.submit node.Node.cpu ~instructions:startup (fun () ->
            Engine.spawn t.eng (fun () -> run_cohort t rt cplan mb))
      end)

(* Coordinator -> cohort send. The wire destination is resolved through
   the relocation table (a failed-over cohort's proxy lives at its
   backup), and the mailbox is looked up at delivery time — a failover
   racing a message in flight must deliver to the proxy's fresh mailbox,
   never to the dead primary fiber's. The CC footprint always lives at
   the cohort's original node's manager, even after failover. *)
let send_cohort t (rt : Messages.attempt_runtime) ~node_idx msg =
  let dst = resident_node rt node_idx in
  Net.send ~faulty:true t.net ~src:Host ~dst:(Proc dst) (fun () ->
      (match msg with
      | Messages.Do_abort ->
          (* unblock the cohort if it is stuck in a CC queue *)
          (Node.cc t.procs.(node_idx)).Cc_intf.cc_abort rt.Messages.txn
      | Messages.Do_prepare | Messages.Do_commit -> ());
      match rt.Messages.cohort_mbs.(Messages.position rt node_idx) with
      | Some mb -> Mailbox.send mb msg
      | None -> ())

(* The cohorts that still owe the coordinator a message, by plan
   position. *)
type owed = { owing : bool array; mutable left : int }

let owed_by (rt : Messages.attempt_runtime) nodes =
  let owing = Array.make (Array.length rt.Messages.nodes) false in
  List.iter (fun n -> owing.(Messages.position rt n) <- true) nodes;
  { owing; left = List.length nodes }

(* Strike the debt of the cohort at plan position [p], which owes. *)
let settle o p =
  o.owing.(p) <- false;
  o.left <- o.left - 1

(* What a phase re-sends to a silent cohort: its load message, the
   prepare, or the decision. *)
let resend t (rt : Messages.attempt_runtime) (phase : Twopc.phase) node =
  match phase with
  | Twopc.Work ->
      Option.iter (load_cohort t rt) (cohort_plan_of rt.Messages.txn node)
  | Twopc.Votes -> send_cohort t rt ~node_idx:node Messages.Do_prepare
  | Twopc.Acks Twopc.Commit -> send_cohort t rt ~node_idx:node Messages.Do_commit
  | Twopc.Acks Twopc.Abort -> send_cohort t rt ~node_idx:node Messages.Do_abort

(* Wait until every cohort in [nodes] has sent what [phase] waits for,
   performing what [Twopc.coord_step] answers to each message and
   timeout. [Some reason] means the attempt must abort instead. A
   settled Work_done notes its node, so that when the work phase
   completes [last_work_node] is the cohort on its critical path (under
   parallel execution); a settled yes vote notes [last_vote_node]. *)
let collect t (rt : Messages.attempt_runtime) phase ~nodes =
  let txn = rt.Messages.txn in
  let pending = owed_by rt nodes in
  (* the owing cohorts a timeout re-sends to, ascending *)
  let silent () =
    nodes_where rt (fun p ->
        pending.owing.(p) && Twopc.resends phase rt.Messages.cohort.(p))
  in
  let rec go ~round =
    if pending.left = 0 then None
    else
      match recv t rt.Messages.coord_mb ~round with
      | Some (Messages.Work_done node) -> act Twopc.Work_done node None ~round
      | Some (Messages.Vote (node, yes)) ->
          act (if yes then Twopc.Vote_yes else Twopc.Vote_no) node None ~round
      | Some (Messages.Done_ack node) -> act Twopc.Done_ack node None ~round
      | Some (Messages.Inquiry (_, node)) -> act Twopc.Inquiry node None ~round
      | Some
          ( Messages.Cohort_aborted (_, reason)
          | Messages.Abort_request (_, reason) ) ->
          act Twopc.Abort_demand (-1) (Some reason) ~round
      | None ->
          note_timeout t (Option.get t.faults) txn ~at_node:Host ~round;
          act Twopc.Silence (-1) (Some Txn.Crashed) ~round
  (* [told]: the reason an abort demand or a crash doom carries; only a
     timeout, which needs the fault plan, reads the retry budget *)
  and act input node told ~round =
    let timeout = input == Twopc.Silence in
    let p = if node < 0 then -1 else Messages.position rt node in
    match
      Twopc.coord_step phase input
        ~owed:(if timeout then silent () <> [] else p >= 0 && pending.owing.(p))
        ~doomed:rt.Messages.crash_doomed
        ~exhausted:
          (timeout
          && Backoff.exhausted ~round
               ~max_retries:(Option.get t.faults).plan.Fault_plan.max_retries)
    with
    | Twopc.Wait -> go ~round
    | (Twopc.Settle | Twopc.Refused) as action -> (
        settle pending p;
        let yes = action == Twopc.Settle in
        (match phase with
        | Twopc.Work ->
            rt.Messages.last_work_node <- node;
            if traced t then
              emit t
                (Event.Work_done
                   { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node })
        | Twopc.Votes ->
            if yes then rt.Messages.last_vote_node <- node;
            if traced t then
              emit t
                (Event.Vote
                   { tid = txn.Txn.tid; attempt = txn.Txn.attempt; node; yes })
        | Twopc.Acks (Twopc.Commit | Twopc.Abort) -> ());
        if yes then go ~round:1 else Some Txn.Cert_failed)
    | Twopc.Reprompt ->
        resend t rt phase node;
        go ~round
    | Twopc.Retry ->
        let f = Option.get t.faults in
        List.iter
          (fun n ->
            f.retries <- f.retries + 1;
            resend t rt phase n)
          (silent ());
        go ~round:(round + 1)
    | Twopc.Orphan ->
        List.iter (orphan t (Option.get t.faults) txn) (silent ());
        None
    | Twopc.Abort_attempt reason -> Some reason
    | Twopc.Abort_as_told -> told
  in
  go ~round:1

(* Log the decision before any phase-two send, broadcast it — a commit
   to every cohort, an abort to every loaded one — and collect the
   acknowledgements. *)
let decide t (rt : Messages.attempt_runtime) ~commit =
  let txn = rt.Messages.txn in
  let tid = txn.Txn.tid and attempt = txn.Txn.attempt in
  if commit then txn.Txn.phase <- Txn.Decided_commit
  else txn.Txn.doomed <- true;
  log_decision t txn commit;
  if traced t then emit t (Event.Decision { tid; attempt; commit });
  let phase, nodes =
    if commit then (Twopc.Acks Twopc.Commit, Array.to_list rt.Messages.nodes)
    else (Twopc.Acks Twopc.Abort, loaded_nodes rt)
  in
  List.iter (resend t rt phase) nodes;
  ignore (collect t rt phase ~nodes : Txn.abort_reason option);
  (* durability coverage obligation: every updating cohort's node (its
     backup if failed over) must hold durable evidence of this commit at
     end of run — checked by [lost_commits] *)
  if commit && Option.is_some t.wal then begin
    let updaters =
      List.filter_map
        (fun (c : Plan.cohort_plan) ->
          if Plan.updates c then Some (resident_node rt c.Plan.node) else None)
        txn.Txn.plan.Plan.cohorts
    in
    t.committed_cov <- (tid, attempt, updaters) :: t.committed_cov
  end

(* Phase one of the commit protocol, then the decision; [Some reason]
   when the attempt aborted. *)
let run_two_phase_commit t (rt : Messages.attempt_runtime) =
  let txn = rt.Messages.txn in
  txn.Txn.commit_ts <- Some (Timestamp.Clock.make t.clock ~time:t.time.now);
  if traced t then
    emit t (Event.Prepare { tid = txn.Txn.tid; attempt = txn.Txn.attempt });
  Array.iter (resend t rt Twopc.Votes) rt.Messages.nodes;
  let aborted =
    collect t rt Twopc.Votes ~nodes:(Array.to_list rt.Messages.nodes)
  in
  decide t rt ~commit:(Option.is_none aborted);
  aborted

(* The response-time decomposition of a committed attempt. The
   work-phase critical path is the cohort whose Work_done arrived last
   under parallel execution, and the sum over all cohorts (in node
   order, for float determinism) under sequential execution. The log
   component is the decision-gating log write: the prepare force of the
   last accepted yes vote's cohort. *)
let decomposition t (rt : Messages.attempt_runtime) ~t_begin ~t_setup_end
    ~t_work_end =
  let blocked, disk, cpu =
    match t.params.Params.workload.Params.exec_pattern with
    | Params.Parallel ->
        if rt.Messages.last_work_node < 0 then (0., 0., 0.)
        else
          let u = Messages.usage rt rt.Messages.last_work_node in
          (u.Messages.u_blocked, u.Messages.u_disk, u.Messages.u_cpu)
    | Params.Sequential ->
        nodes_where rt (fun _ -> true)
        |> List.fold_left
             (fun (b, d, c) node ->
               let u = Messages.usage rt node in
               ( b +. u.Messages.u_blocked,
                 d +. u.Messages.u_disk,
                 c +. u.Messages.u_cpu ))
             (0., 0., 0.)
  in
  let log =
    if rt.Messages.last_vote_node < 0 then 0.
    else (Messages.usage rt rt.Messages.last_vote_node).Messages.u_log
  in
  Decomp.assemble
    ~restart:(t_begin -. rt.Messages.txn.Txn.origin_time)
    ~setup:(t_setup_end -. t_begin)
    ~exec:(t_work_end -. t_setup_end)
    ~blocked ~disk ~cpu ~log
    ~commit:(t.time.now -. t_work_end)

let run_attempt t (txn : Txn.t) =
  let rt = Messages.make_runtime txn in
  Hashtbl.replace t.live txn.Txn.tid rt;
  Fun.protect
    ~finally:(fun () ->
      match Hashtbl.find_opt t.live txn.Txn.tid with
      | Some cur when cur == rt -> Hashtbl.remove t.live txn.Txn.tid
      | Some _ | None -> ())
    (fun () ->
      let t_begin = t.time.now in
      if traced t then
        emit t
          (Event.Attempt_start
             { tid = txn.Txn.tid; attempt = txn.Txn.attempt });
      (* coordinator process startup at the host *)
      Cpu.consume t.host.Node.cpu
        ~instructions:t.params.Params.resources.Params.inst_per_startup;
      let t_setup_end = t.time.now in
      if traced t then
        emit t
          (Event.Setup_done
             { tid = txn.Txn.tid; attempt = txn.Txn.attempt });
      let cohorts = txn.Txn.plan.Plan.cohorts in
      let work_aborted =
        match t.params.Params.workload.Params.exec_pattern with
        | Params.Parallel ->
            List.iter (load_cohort t rt) cohorts;
            collect t rt Twopc.Work ~nodes:(Array.to_list rt.Messages.nodes)
        | Params.Sequential ->
            let rec go = function
              | [] -> None
              | (c : Plan.cohort_plan) :: rest -> (
                  load_cohort t rt c;
                  match collect t rt Twopc.Work ~nodes:[ c.Plan.node ] with
                  | None -> go rest
                  | Some _ as aborted -> aborted)
            in
            go cohorts
      in
      match work_aborted with
      | Some reason ->
          decide t rt ~commit:false;
          Aborted reason
      | None -> (
          let t_work_end = t.time.now in
          match run_two_phase_commit t rt with
          | Some reason -> Aborted reason
          | None ->
              Committed
                (decomposition t rt ~t_begin ~t_setup_end ~t_work_end)))

(* ------------------------------------------------------------------ *)
(* Terminals                                                           *)

let fresh_tid t =
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  tid

let make_attempt t ~tid ~attempt ~origin_time ~startup_ts ~plan =
  let now = t.time.now in
  {
    Txn.tid;
    attempt;
    origin_time;
    attempt_time = now;
    startup_ts;
    cc_ts =
      (if attempt = 1 then startup_ts else Timestamp.Clock.make t.clock ~time:now);
    commit_ts = None;
    plan;
    phase = Txn.Working;
    doomed = false;
  }

(* Terminals live at the host: while it is down no new transaction (or
   restart) can be admitted. The wait is a loop because the host may
   crash again before the recovery the terminal slept towards. *)
let rec await_host_up t =
  match t.faults with
  | None -> ()
  | Some f ->
      if not (node_up f Host) then begin
        Engine.wait (Float.max 1e-9 (f.host_down_until -. t.time.now));
        await_host_up t
      end

let plan_pages (plan : Plan.t) =
  List.fold_left
    (fun acc (c : Plan.cohort_plan) -> acc + Array.length c.Plan.ops)
    0 plan.Plan.cohorts

(* One transaction from submission to commit: the attempt loop shared
   by closed-loop terminals and open-loop dispatch. The one difference
   is the restart wait: closed-loop restarts sleep one observed mean
   response time, which couples restart pressure to the very congestion
   admission control is trying to relieve, so open-loop restarts back
   off on the spec's capped-exponential schedule instead. *)
let run_transaction t ~terminal plan =
  let origin_time = t.time.now in
  Metrics.record_submit t.metrics;
  let tid = fresh_tid t in
  if traced t then emit t (Event.Submit { tid });
  let startup_ts = Timestamp.Clock.make t.clock ~time:origin_time in
  let rec attempt k plan =
    let txn = make_attempt t ~tid ~attempt:k ~origin_time ~startup_ts ~plan in
    let outcome = run_attempt t txn in
    Metrics.record_completion t.metrics;
    match outcome with
    | Committed decomp ->
        (match t.audit with
        | Some a -> Audit.record_commit a txn
        | None -> ());
        if traced t then
          emit t
            (Event.Committed
               { tid; attempt = k; response = t.time.now -. origin_time });
        Metrics.record_commit t.metrics ~origin_time
          ~pages:(plan_pages txn.Txn.plan) ~decomp
    | Aborted reason ->
        (match t.audit with
        | Some a -> Audit.record_abort a txn
        | None -> ());
        if traced t then
          emit t (Event.Aborted { tid; attempt = k; reason });
        Metrics.record_abort t.metrics ~reason;
        let delay =
          match t.arrivals with
          | None -> Metrics.restart_delay t.metrics
          | Some a ->
              Backoff.delay ~base:a.spec.Arrival.retry_base
                ~cap:a.spec.Arrival.retry_cap ~round:k
        in
        if traced t then
          emit t (Event.Restart_wait { tid; attempt = k; delay });
        Engine.wait delay;
        await_host_up t;
        (* [Params.validate] rejects fresh_restart_plan with open-loop
           arrivals *)
        let plan =
          if t.params.Params.run.Params.fresh_restart_plan then
            Workload.generate_plan t.workload ~terminal
          else plan
        in
        attempt (k + 1) plan
  in
  attempt 1 plan

let run_terminal t ~terminal =
  Engine.spawn t.eng (fun () ->
      let rec session () =
        let think = Workload.think_time t.workload in
        if think > 0. then
          Engine.wait (Rng.exponential t.think_rng ~mean:think);
        await_host_up t;
        run_transaction t ~terminal
          (Workload.generate_plan t.workload ~terminal);
        session ()
      in
      session ())

(* ------------------------------------------------------------------ *)
(* Open-loop arrivals and admission control                            *)

let mpl_free a = a.spec.Arrival.mpl = 0 || a.in_flight < a.spec.Arrival.mpl

(* Lazy deadline expiry: overstayed entries are dropped from the queue
   head when we next look at it. Entries that would have expired but are
   never reached before the run ends still count as queued — the
   conservation identity absorbs them in still-queued. *)
let expire_stale t a =
  let deadline = a.spec.Arrival.deadline in
  if deadline > 0. then begin
    let now = t.time.now in
    let dropped = ref false in
    let rec loop () =
      match Queue.peek_opt a.queue with
      | Some p when now -. p.enqueued_at > deadline ->
          ignore (Queue.pop a.queue : pending);
          Metrics.record_expired t.metrics;
          dropped := true;
          loop ()
      | Some _ | None -> ()
    in
    loop ();
    if !dropped then Metrics.set_queue_depth t.metrics (Queue.length a.queue)
  end

(* Dispatch one admitted arrival into its own transaction process. *)
let rec dispatch t a (p : pending) =
  a.in_flight <- a.in_flight + 1;
  Metrics.record_admitted t.metrics;
  Metrics.record t.metrics Metrics.Queue_wait (t.time.now -. p.enqueued_at);
  Engine.spawn t.eng (fun () ->
      await_host_up t;
      run_transaction t ~terminal:p.terminal p.pending_plan;
      a.in_flight <- a.in_flight - 1;
      drain t a)

(* A completion freed an MPL slot (or expiry shortened the queue): move
   queued work into the system while the gate allows. *)
and drain t a =
  expire_stale t a;
  let continue = ref true in
  while !continue do
    if (not (Queue.is_empty a.queue)) && mpl_free a then begin
      let p = Queue.pop a.queue in
      Metrics.set_queue_depth t.metrics (Queue.length a.queue);
      dispatch t a p
    end
    else continue := false
  done

(* Admission: dispatch when the MPL gate is open and nothing waits ahead
   of us; queue while there is room; shed per policy at capacity. *)
let admit t a p =
  expire_stale t a;
  if Queue.is_empty a.queue && mpl_free a then dispatch t a p
  else if Queue.length a.queue < a.spec.Arrival.queue_cap then begin
    Queue.push p a.queue;
    Metrics.set_queue_depth t.metrics (Queue.length a.queue)
  end
  else
    match a.spec.Arrival.shed with
    | Arrival.Reject_newest -> Metrics.record_shed t.metrics
    | Arrival.Reject_oldest ->
        (* head out, arrival in: depth is unchanged *)
        ignore (Queue.pop a.queue : pending);
        Metrics.record_shed t.metrics;
        Queue.push p a.queue

(* The arrival pump: one fiber sampling the rate process and pushing
   arrivals through admission. Plans are drawn at arrival time from the
   per-terminal workload streams, round-robin over [num_terminals], so
   the offered plan sequence depends only on the seed and the arrival
   spec — never on the CC algorithm or on admission outcomes
   (cross-algorithm workload agreement, exactly as in the closed loop). *)
let run_arrival_pump t a =
  let num_terminals = t.params.Params.workload.Params.num_terminals in
  let run = t.params.Params.run in
  let horizon = run.Params.warmup +. run.Params.measure in
  Engine.spawn t.eng (fun () ->
      let rec pump () =
        let now = t.time.now in
        match Arrival.next_arrival a.spec a.arr_rng ~now ~horizon with
        | None -> ()
        | Some at ->
            if at > now then Engine.wait (at -. now);
            Metrics.record_offered t.metrics;
            let terminal = a.next_seq mod num_terminals in
            a.next_seq <- a.next_seq + 1;
            let plan = Workload.generate_plan t.workload ~terminal in
            admit t a
              { terminal; enqueued_at = t.time.now; pending_plan = plan };
            pump ()
      in
      pump ())

(* ------------------------------------------------------------------ *)
(* Run control and result collection                                   *)

let reset_observation_windows t =
  Metrics.begin_window t.metrics;
  Node.reset_windows t.host;
  Array.iter Node.reset_windows t.procs;
  (match t.wal with
  | Some wals -> Array.iter Wal.reset_window wals
  | None -> ());
  Array.iter
    (fun node -> Stats.Tally.reset (Node.cc node).Cc_intf.cc_blocking)
    t.procs;
  (* availability is measured over the observation window: discard
     warm-up downtime and clip any open down-spell to the window start *)
  Option.iter
    (fun f ->
      let now = t.time.now in
      Array.fill f.downtime 0 (Array.length f.downtime) 0.;
      Array.iteri
        (fun s since -> if since <> None then f.down_since.(s) <- Some now)
        f.down_since)
    t.faults

let mean_over array f =
  if Array.length array = 0 then 0.
  else Array.fold_left (fun acc x -> acc +. f x) 0. array
       /. float_of_int (Array.length array)

(* Fraction of node-seconds (host + proc nodes) spent up over the
   observation window. *)
let availability t =
  match t.faults with
  | None -> 1.
  | Some f ->
      let window = Metrics.window_duration t.metrics in
      if window <= 0. then 1.
      else begin
        let now = t.time.now in
        let open_since = function Some s -> now -. s | None -> 0. in
        let down = ref 0. in
        Array.iteri
          (fun s acc -> down := !down +. acc +. open_since f.down_since.(s))
          f.downtime;
        let nodes = float_of_int (Array.length f.down_since) in
        1. -. Float.min 1. (Float.max 0. (!down /. (nodes *. window)))
      end

(* Grace period after which an open in-doubt interval counts as overdue
   (i.e. the termination protocol failed): the full retry envelope, a
   generous allowance for repeated inquiry loss, and any downtime — a
   cohort at a crashed node legitimately stays in doubt until repair. *)
let indoubt_grace t f =
  let p = f.plan in
  let open_downtime =
    let now = t.time.now in
    let open_since = function Some s -> now -. s | None -> 0. in
    Array.fold_left (fun acc s -> acc +. open_since s) 0. f.down_since
  in
  (* jittered timeouts stretch each round by up to the jitter fraction *)
  Backoff.total ~base:p.Fault_plan.timeout ~cap:p.Fault_plan.timeout_cap
    ~max_retries:p.Fault_plan.max_retries
  *. (1. +. p.Fault_plan.timeout_jitter)
  +. (20. *. p.Fault_plan.timeout_cap)
  +. f.total_downtime +. open_downtime

(* The capstone durability check: a committed transaction is covered at
   an updating cohort's node when that node's WAL digest shows the
   installs done, a durable commit record, or a durable prepare record
   together with the commit decision in the (stable) host decision log.
   An untracked entry means the log never saw an update footprint there
   or a checkpoint pruned a fully decided-and-installed one — nothing to
   lose either way. Counts committed transactions missing durable
   evidence at one or more nodes; must be zero. *)
let lost_commits t =
  match t.wal with
  | None -> 0
  | Some wals ->
      let decided_commit tid attempt =
        match t.faults with
        | None -> true
        | Some f -> (
            match
              Txn.Key_table.find_opt f.decisions (Txn.Key.make ~tid ~attempt)
            with
            | Some c -> c
            | None -> false)
      in
      List.fold_left
        (fun acc (tid, attempt, nodes) ->
          let covered node =
            let w = wals.(node) in
            (not (Wal.tracked w ~tid ~attempt))
            || Wal.installed w ~tid ~attempt
            || Wal.committed_durable w ~tid ~attempt
            || (Wal.prepared_durable w ~tid ~attempt
               && decided_commit tid attempt)
          in
          if List.for_all covered nodes then acc else acc + 1)
        0 t.committed_cov

let collect_result t ~wall_seconds =
  let blocking_total, blocking_count =
    Array.fold_left
      (fun (tot, cnt) node ->
        let tally = (Node.cc node).Cc_intf.cc_blocking in
        (tot +. Stats.Tally.total tally, cnt + Stats.Tally.count tally))
      (0., 0) t.procs
  in
  let fault_count get = match t.faults with None -> 0 | Some f -> get f in
  let wal_sum get =
    match t.wal with
    | None -> 0
    | Some wals -> Array.fold_left (fun acc w -> acc + get w) 0 wals
  in
  {
    Sim_result.algorithm = t.params.Params.cc.Params.algorithm;
    params = t.params;
    throughput = Metrics.throughput t.metrics;
    mean_response = Metrics.mean_response t.metrics;
    response_ci95 = Metrics.response_ci95 t.metrics;
    response_p50 = Metrics.response_percentile t.metrics 0.50;
    response_p95 = Metrics.response_percentile t.metrics 0.95;
    response_p99 = Metrics.response_quantile t.metrics 0.99;
    response_p999 = Metrics.response_quantile t.metrics 0.999;
    commits = Metrics.commits t.metrics;
    aborts = Metrics.aborts t.metrics;
    completions = Metrics.completions t.metrics;
    abort_ratio = Metrics.abort_ratio t.metrics;
    abort_reasons = Metrics.abort_reason_counts t.metrics;
    mean_blocking =
      (if blocking_count = 0 then 0.
       else blocking_total /. float_of_int blocking_count);
    blocked_requests = blocking_count;
    proc_cpu_util = mean_over t.procs Node.cpu_utilization;
    proc_disk_util = mean_over t.procs Node.disk_utilization;
    host_cpu_util = Node.cpu_utilization t.host;
    mean_active = Metrics.mean_active t.metrics;
    messages = Net.messages_sent t.net;
    availability = availability t;
    goodput = Metrics.goodput t.metrics;
    timeouts = fault_count (fun f -> f.timeouts);
    retries = fault_count (fun f -> f.retries);
    msgs_dropped = fault_count (fun f -> f.msgs_dropped);
    msgs_duplicated = fault_count (fun f -> f.msgs_duplicated);
    node_crashes = fault_count (fun f -> f.node_crashes);
    orphaned = fault_count (fun f -> f.orphaned);
    log_forces = wal_sum Wal.forces;
    log_disk_util =
      (match t.wal with
      | None -> 0.
      | Some wals -> mean_over wals Wal.utilization);
    recoveries = t.recoveries;
    mean_recovery_time =
      (if t.recoveries = 0 then 0.
       else t.recovery_time /. float_of_int t.recoveries);
    recovery_chains = t.recovery_chains;
    recovery_degraded = t.recovery_degraded;
    wal_torn_tails = wal_sum Wal.torn_tails;
    failovers = fault_count (fun f -> f.failovers);
    lost_commits = lost_commits t;
    indoubt_mean = Metrics.indoubt_mean t.metrics;
    indoubt_open_at_end = Metrics.indoubt_open t.metrics;
    indoubt_overdue_at_end =
      (match t.faults with
      | None -> 0
      | Some f -> Metrics.indoubt_overdue t.metrics ~grace:(indoubt_grace t f));
    decomp = Metrics.decomp_mean t.metrics;
    offered = Metrics.offered t.metrics;
    admitted = Metrics.admitted t.metrics;
    shed = Metrics.shed t.metrics;
    expired = Metrics.expired t.metrics;
    still_queued =
      (match t.arrivals with None -> 0 | Some a -> Queue.length a.queue);
    queue_depth_max = Metrics.queue_depth_max t.metrics;
    queue_depth_mean = Metrics.mean_queue_depth t.metrics;
    sim_events = Engine.events_processed t.eng;
    sim_end = t.time.now;
    wall_seconds;
    events_per_sec =
      (if wall_seconds > 0. then
         float_of_int (Engine.events_processed t.eng) /. wall_seconds
       else 0.);
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

(** Typed metric registry snapshot: the result's scalar families
    ({!Sim_result.metric_families}), the window length, per-node
    utilization and queue-depth rollups (the time-series sampler's
    quantities as end-of-run aggregates), and — when histograms are
    enabled — the tail-latency histogram families for response time,
    every {!Decomp} component, 2PC in-doubt duration, WAL force latency,
    recovery time and, on an open-loop run, admission-queue wait. Build
    after {!execute}; serialize with {!Ddbm_model.Metric.to_prometheus} /
    {!Ddbm_model.Metric.to_json}. *)
let registry t : Metric.t =
  let m = t.metrics in
  let per_node ~name ~help get =
    Metric.family ~name ~help ~kind:Metric.Gauge
      (List.init (Array.length t.procs) (fun i ->
           Metric.sample
             ~labels:[ ("node", string_of_int i) ]
             (Metric.V (get t.procs.(i)))))
  in
  let rollups =
    [
      Metric.gauge ~name:"ddbm_window_seconds"
        ~help:"Measurement window duration" (Metrics.window_duration m);
      per_node ~name:"ddbm_node_cpu_utilization"
        ~help:"Per-node CPU utilization over the window" Node.cpu_utilization;
      per_node ~name:"ddbm_node_disk_utilization"
        ~help:"Per-node mean disk utilization over the window"
        Node.disk_utilization;
      per_node ~name:"ddbm_node_cpu_queue"
        ~help:"Instantaneous processor-sharing CPU load (jobs in service)"
        (fun node -> float_of_int (Cpu.ps_load node.Node.cpu));
      per_node ~name:"ddbm_node_disk_queue"
        ~help:
          "Instantaneous disk operations waiting or in service, summed \
           over the node's disks"
        (fun node -> float_of_int (Node.disk_queue node));
    ]
  in
  Sim_result.metric_families (collect_result t ~wall_seconds:0.)
  @ rollups
  @ Metrics.families m ~open_loop:(Option.is_some t.arrivals)

(** Attach (or retrieve) the typed-event tracer (before {!execute}).
    Idempotent: the first call creates the tracer and wires the network
    and Snoop observers; later calls return the same tracer, so several
    sinks can be attached. Without this call the machine emits no typed
    events and pays no tracing cost. *)
let enable_events t =
  match t.events with
  | Some tracer -> tracer
  | None ->
      let tracer = Tracer.create () in
      t.events <- Some tracer;
      let now () = t.time.now in
      Net.set_on_msg t.net
        (Some
           (fun ~sent ~src ~dst ->
             Tracer.emit tracer ~time:(now ())
               (if sent then Event.Msg_send { src; dst }
                else Event.Msg_recv { src; dst })));
      Option.iter
        (fun snoop ->
          Ddbm_cc.Snoop.set_on_round snoop
            (Some
               (fun ~node ~edges ~victims ->
                 Tracer.emit tracer ~time:(now ())
                   (Event.Snoop_round { node; edges; victims }))))
        t.snoop;
      tracer

(** Start the time-series sampler (before {!execute}): every [interval]
    simulated seconds, emit an {!Event.Sample} carrying the number of
    in-flight transactions, per-interval CPU and disk utilizations
    (differences of cumulative busy times, so they are exact over the
    interval regardless of observation-window resets), and instantaneous
    queue lengths. Implies {!enable_events}. *)
let enable_sampler t ~interval =
  if not (interval > 0.) then
    invalid_arg "Machine.enable_sampler: interval must be positive";
  let tracer = enable_events t in
  let n = Array.length t.procs in
  let prev_host_cpu = ref (Node.cpu_busy_time t.host) in
  let prev_cpu = Array.init n (fun i -> Node.cpu_busy_time t.procs.(i)) in
  let prev_disk = Array.init n (fun i -> Node.disk_busy_time t.procs.(i)) in
  let prev_time = ref t.time.now in
  let rec tick () =
    let now = t.time.now in
    let dt = now -. !prev_time in
    if dt > 0. then begin
      let host_busy = Node.cpu_busy_time t.host in
      let host_cpu_util = (host_busy -. !prev_host_cpu) /. dt in
      prev_host_cpu := host_busy;
      let nodes =
        Array.init n (fun i ->
            let node = t.procs.(i) in
            let cpu_busy = Node.cpu_busy_time node in
            let disk_busy = Node.disk_busy_time node in
            let num_disks = Array.length node.Node.disks in
            let sample =
              {
                Event.cpu_util = (cpu_busy -. prev_cpu.(i)) /. dt;
                disk_util =
                  (disk_busy -. prev_disk.(i))
                  /. (dt *. float_of_int num_disks);
                cpu_queue = Cpu.ps_load node.Node.cpu;
                disk_queue = Node.disk_queue node;
              }
            in
            prev_cpu.(i) <- cpu_busy;
            prev_disk.(i) <- disk_busy;
            sample)
      in
      prev_time := now;
      Tracer.emit tracer ~time:now
        (Event.Sample
           { active = Metrics.active t.metrics; host_cpu_util; nodes })
    end;
    ignore (Engine.schedule t.eng ~at:(now +. interval) tick : Engine.handle)
  in
  ignore
    (Engine.schedule t.eng
       ~at:(t.time.now +. interval)
       tick
      : Engine.handle)

(** Start logging per-terminal plan fingerprints (before {!execute});
    used by the conformance harness to check that the workload stream is
    independent of the concurrency control algorithm. *)
let enable_fingerprints t = Workload.enable_fingerprints t.workload

(** Per-terminal fingerprints of every plan generated so far (empty
    unless {!enable_fingerprints} was called). *)
let workload_fingerprints t = Workload.fingerprints t.workload

(** Attach a serializability auditor (before {!execute}); committed
    transactions' reads and installs are then recorded for
    {!Audit.check}. *)
let enable_audit t =
  let audit = Audit.create () in
  t.audit <- Some audit;
  audit

(** Run an assembled machine to the end of its measurement window and
    collect the result. *)
let execute t =
  let run_params = t.params.Params.run in
  ignore
    (Engine.schedule t.eng ~at:run_params.Params.warmup (fun () ->
         reset_observation_windows t)
      : Engine.handle);
  (match t.arrivals with
  | None ->
      for terminal = 0 to t.params.Params.workload.Params.num_terminals - 1 do
        run_terminal t ~terminal
      done
  | Some a -> run_arrival_pump t a);
  Option.iter (fun f -> schedule_faults t f) t.faults;
  Option.iter Ddbm_cc.Snoop.start t.snoop;
  (* Wall-clock cost is reported, never simulated; each worker domain
     reads its own interval. *)
  (* lint: allow ambient unsafe-stdlib *)
  let wall_start = Sys.time () in
  Engine.run ~until:(run_params.Params.warmup +. run_params.Params.measure)
    t.eng;
  let wall_seconds = Sys.time () -. wall_start in (* lint: allow ambient unsafe-stdlib *)
  collect_result t ~wall_seconds

(** Build and run a complete simulation; returns the measured result. *)
let run (params : Params.t) = execute (create params)
