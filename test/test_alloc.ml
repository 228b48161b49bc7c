(* Allocation budgets of the simulator's hot path.

   Every simulated page access blocks its process on a disk and a CPU,
   and every message on two CPUs, so the words these kernels allocate per
   operation are most of the minor-heap traffic of a run (and the GC's
   share of host time follows it). Each case counts [Gc.minor_words] over
   many operations of one kernel and checks the mean against a budget:
   the measured figure with about 10 % slack, so another 5.1.x compiler
   still passes and a closure that creeps back onto the path fails.

   Before blocking went through parkers and waiters (each wait built its
   own closures) and before events were built only under the tracing
   guard, these cases measured, in words per operation: Engine.wait 17,
   Cpu.consume 68 (1 process) and 82 (8 processes), Cpu.consume_priority
   57, Disk.read 63, Mailbox send+recv 40 and Net.send 84; and, per
   commit, 33,244 words untraced and 38,544 traced.

   Before the lock table kept one mutable hold record per granted lock,
   listed entries (not page/entry pairs) in footprints and walked its
   lists without closures, and before plans were drawn into sorted int
   arrays and per-attempt state moved from hash tables to arrays indexed
   by cohort position, they measured: an
   uncontended lock request with its share of the release 53.9, a
   re-request of a held lock 9, Workload.generate_plan 2,334 per plan,
   and, per commit, 15,406 untraced and 19,127 traced.

   Before each CPU and disk re-armed one timer of its own in place (each
   arm built a fresh event, and its time was boxed on the way to the
   engine), they measured: Cpu.consume 18 (1 process) and 23 (8
   processes), Cpu.consume_priority 16, Disk.read 18 and Net.send 23;
   and, per commit, 9,403 untraced and 13,125 traced.

   Before a resolver was its own queue entry (a blocked process was
   queued behind a wrapper, and woken through a fresh resumption entry),
   before the page path matched on switched-off observers before it
   built their records, and before [Rng.float] was inlined into the
   draws, they measured: Engine.wait 8, Cpu.consume 13 (1 and 8
   processes), Cpu.consume_priority 11, Disk.read 15, Net.send 13, a
   blocked lock request 83, Workload.generate_plan 989 per plan, and, per
   commit, 8,032 untraced and 11,753 traced.

   Before the deadlock searches marked vertices with stamps and kept
   their successors on one reused stack (each search built a visited
   table and a successor list per vertex), before the Snoop scan went
   forward instead of restarting after every victim, and before a
   blocked lock request was parked by its table's one parker (each block
   built a registration closure and a parker), they measured: a blocked
   lock request 79.5, a local search through a 3-cycle 152, a Snoop
   round over 54 edges 9,948, and, per commit, 6,225 untraced and 9,946
   traced.

   Before pages were immediate integers, a cohort's accesses one array
   of packed ops, a page's oldest lock hold inline in its entry,
   entries chained into the lock table's buckets through a field of
   their own and footprints arrays, they measured: an uncontended lock
   request 17.9, a re-request 2, Workload.generate_plan 860.5 per plan,
   a plan's retained words 636.3, and, per commit, 6,057 untraced and
   9,778 traced.

   Before an attempt's runtime kept one commit-protocol state per cohort
   in place of three flag arrays, it retained 142 words for a plan of
   eight cohorts.

   Before the lock table recycled its entries and footprints (each lock
   of an unheld page built an entry, and each attempt a footprint), they
   measured: an uncontended lock request with its share of the release
   9.6, a blocked lock request 60.5, and, per commit, 4,891 untraced and
   8,612 traced.

   Before the log digest was keyed by one immediate int per attempt
   (each call built a (tid, attempt) tuple and hashed it polymorphically,
   each lookup built an option, each update built two closures, and each
   force copied the volatile page and predecessor lists), they measured:
   Wal.append 26.9 per call, and an attempt's digest entry retained
   45 words.

   Before the kernels' queues were rings (the disks, the CPU's message
   class and the mailboxes queued in Stdlib [Queue] cells, a queued
   message-class job was a record, and a mailbox parked each blocked
   receive in a cell of its own behind a queue of waiters, with a fresh
   timer per timed receive), they measured: a read behind a busy disk
   11, a message-class job behind one in service 14, Mailbox send+recv
   14, a timed receive served 23 and expired 19, an attempt's runtime
   retained 122 words and an empty mailbox 16, and, per commit, 4,268
   untraced and 7,989 traced.

   Before a commit listed a cohort's installs only when traced, a
   commit measured 3,885 untraced. *)

open Desim
open Ddbm_model

(* Minor words allocated by [f], over [ops] operations. The counter reads
   box a float each; over thousands of operations that is noise. *)
let words_per_op ~ops f =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int ops

let ops = 20_000

let engine_wait () =
  let eng = Engine.create () in
  Engine.spawn eng (fun () ->
      for _ = 1 to ops do
        Engine.wait 1.
      done);
  words_per_op ~ops (fun () -> Engine.run eng)

(* [procs] processes share the processor-sharing class. *)
let cpu_consume ~procs () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~rate:1e6 in
  let per = ops / procs in
  for p = 1 to procs do
    Engine.spawn eng (fun () ->
        for j = 1 to per do
          Cpu.consume cpu
            ~instructions:
              (float_of_int (1000 + (((p * 37) + (j * 101)) mod 5000)))
        done)
  done;
  words_per_op ~ops:(per * procs) (fun () -> Engine.run eng)

let cpu_consume_priority () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~rate:1e6 in
  Engine.spawn eng (fun () ->
      for _ = 1 to ops do
        Cpu.consume_priority cpu ~instructions:1000.
      done);
  words_per_op ~ops (fun () -> Engine.run eng)

let disk_read () =
  let eng = Engine.create () in
  let d = Disk.create eng (Rng.create 7) ~min_time:0.01 ~max_time:0.03 in
  Engine.spawn eng (fun () ->
      for _ = 1 to ops do
        Disk.read d
      done);
  words_per_op ~ops (fun () -> Engine.run eng)

(* Four processes share one disk, or the high-priority class of one CPU,
   so every request but one of each round queues behind the one in
   service. *)
let queued_procs = 4

let disk_read_queued () =
  let eng = Engine.create () in
  let d = Disk.create eng (Rng.create 7) ~min_time:0.01 ~max_time:0.03 in
  let per = ops / queued_procs in
  let deepest = ref 0 in
  for _ = 1 to queued_procs do
    Engine.spawn eng (fun () ->
        for _ = 1 to per do
          deepest := max !deepest (Disk.queue_length d);
          Disk.read d
        done)
  done;
  let w = words_per_op ~ops:(per * queued_procs) (fun () -> Engine.run eng) in
  Alcotest.(check int) "reads queue" (queued_procs - 1) !deepest;
  w

let cpu_priority_queued () =
  let eng = Engine.create () in
  let cpu = Cpu.create eng ~rate:1e6 in
  let per = ops / queued_procs in
  for _ = 1 to queued_procs do
    Engine.spawn eng (fun () ->
        for _ = 1 to per do
          Cpu.consume_priority cpu ~instructions:1000.
        done)
  done;
  let w = words_per_op ~ops:(per * queued_procs) (fun () -> Engine.run eng) in
  Alcotest.(check (float 1e-6))
    "the class never idles" (float_of_int ops *. 1e-3) (Engine.now eng);
  w

(* Two processes ping-pong: every operation is one send that wakes a
   blocked receiver. *)
let mailbox_send_recv () =
  let eng = Engine.create () in
  let ping = Mailbox.create () and pong = Mailbox.create () in
  let rounds = ops / 2 in
  Engine.spawn eng (fun () ->
      for i = 1 to rounds do
        Mailbox.send ping i;
        ignore (Mailbox.recv pong : int)
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to rounds do
        Mailbox.send pong (Mailbox.recv ping)
      done);
  words_per_op ~ops:(2 * rounds) (fun () -> Engine.run eng)

(* The ping-pong with timed receives, each served before its deadline:
   every operation also arms the mailbox's timer and cancels it, and
   returns its message in an option. *)
let mailbox_timed_served () =
  let eng = Engine.create () in
  let ping = Mailbox.create () and pong = Mailbox.create () in
  let rounds = ops / 2 in
  let recv mb =
    match Mailbox.recv_timeout mb eng ~timeout:10. with
    | Some v -> v
    | None -> Alcotest.fail "a served receive timed out"
  in
  Engine.spawn eng (fun () ->
      for i = 1 to rounds do
        Mailbox.send ping i;
        ignore (recv pong : int)
      done);
  Engine.spawn eng (fun () ->
      for _ = 1 to rounds do
        Mailbox.send pong (recv ping)
      done);
  words_per_op ~ops:(2 * rounds) (fun () -> Engine.run eng)

(* Timed receives on a mailbox nobody sends to: each one expires. *)
let mailbox_timed_expired () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  Engine.spawn eng (fun () ->
      for _ = 1 to ops do
        match Mailbox.recv_timeout mb eng ~timeout:1. with
        | None -> ()
        | Some _ -> Alcotest.fail "nothing was sent"
      done);
  words_per_op ~ops (fun () -> Engine.run eng)

(* A process sends to another node; the delivery counts. *)
let net_send () =
  let eng = Engine.create () in
  let cpus = [| Cpu.create eng ~rate:1e6; Cpu.create eng ~rate:1e6 |] in
  let net =
    Net.create ~eng ~inst_per_msg:1000.
      ~cpu_of:(function Ids.Host -> cpus.(0) | Ids.Proc i -> cpus.(i))
  in
  let delivered = ref 0 in
  let deliver () = incr delivered in
  Engine.spawn eng (fun () ->
      for _ = 1 to ops do
        Net.send net ~src:(Ids.Proc 0) ~dst:(Ids.Proc 1) deliver
      done);
  let w = words_per_op ~ops (fun () -> Engine.run eng) in
  Alcotest.(check int) "every message delivered" ops !delivered;
  w

(* One short closed-loop 2PL run, per committed transaction. *)
let machine_run ~traced () =
  let d = Params.default in
  let params =
    {
      d with
      Params.database =
        {
          d.Params.database with
          Params.num_proc_nodes = 4;
          partitioning_degree = 4;
          file_size = 100;
        };
      workload =
        { d.Params.workload with Params.think_time = 1.; num_terminals = 16 };
      run =
        {
          d.Params.run with
          Params.seed = 5;
          warmup = 5.;
          measure = 60.;
        };
    }
  in
  let m = Ddbm.Machine.create params in
  let events = ref 0 in
  if traced then
    Tracer.attach (Ddbm.Machine.enable_events m) (fun ~time:_ _ ->
        incr events);
  let w0 = Gc.minor_words () in
  let r = Ddbm.Machine.execute m in
  let w = Gc.minor_words () -. w0 in
  let commits = r.Ddbm.Sim_result.commits in
  Alcotest.(check bool) "run commits" true (commits > 0);
  if traced then Alcotest.(check bool) "events traced" true (!events > 0);
  w /. float_of_int commits

(* Attempts that each lock [per] pages nobody else holds, half shared
   and half exclusive, then release them all: per request, its share of
   the attempt's footprint and of [release_all] included. Nothing blocks,
   so no process is needed. *)
let lock_uncontended () =
  let h = Cc_harness.make () in
  let locks =
    Ddbm_cc.Lock_table.create h.Cc_harness.eng ~blocking:(Stats.Tally.create ())
  in
  let per = 8 in
  let attempts = ops / per in
  let txns =
    Array.init attempts (fun i -> Cc_harness.txn h ~tid:i ~time:0. ())
  in
  let pages = Array.init per (fun i -> Cc_harness.page i) in
  let on_block _ = () in
  words_per_op ~ops:(attempts * per) (fun () ->
      for a = 0 to attempts - 1 do
        for i = 0 to per - 1 do
          Ddbm_cc.Lock_table.request locks txns.(a) pages.(i)
            (if i land 1 = 0 then Ddbm_cc.Lock_table.S
             else Ddbm_cc.Lock_table.X)
            ~on_block
        done;
        Ddbm_cc.Lock_table.release_all locks txns.(a) ~reject:Exit
      done)

(* Requests for locks the attempt already holds: S and X under X, and S
   under S. *)
let lock_rerequest () =
  let h = Cc_harness.make () in
  let locks =
    Ddbm_cc.Lock_table.create h.Cc_harness.eng ~blocking:(Stats.Tally.create ())
  in
  let txn = Cc_harness.txn h ~time:0. () in
  let shared = Cc_harness.page 0 and exclusive = Cc_harness.page 1 in
  let on_block _ = () in
  Ddbm_cc.Lock_table.request locks txn shared Ddbm_cc.Lock_table.S ~on_block;
  Ddbm_cc.Lock_table.request locks txn exclusive Ddbm_cc.Lock_table.X ~on_block;
  let rounds = ops / 3 in
  words_per_op ~ops:(3 * rounds) (fun () ->
      for _ = 1 to rounds do
        Ddbm_cc.Lock_table.request locks txn shared Ddbm_cc.Lock_table.S
          ~on_block;
        Ddbm_cc.Lock_table.request locks txn exclusive Ddbm_cc.Lock_table.S
          ~on_block;
        Ddbm_cc.Lock_table.request locks txn exclusive Ddbm_cc.Lock_table.X
          ~on_block
      done)

(* Two processes take turns on one page in exclusive mode: each request
   queues behind the other's hold and is granted at its release, so every
   request blocks. Per request, its release and the holder's yield to
   the other process included. *)
let lock_blocked () =
  let h = Cc_harness.make () in
  let eng = h.Cc_harness.eng in
  let locks = Ddbm_cc.Lock_table.create eng ~blocking:(Stats.Tally.create ()) in
  let page = Cc_harness.page 0 in
  let on_block _ = () in
  let rounds = ops / 2 in
  let turn ~yield tid () =
    let txn = Cc_harness.txn h ~tid ~time:0. () in
    for _ = 1 to rounds do
      Ddbm_cc.Lock_table.request locks txn page Ddbm_cc.Lock_table.X ~on_block;
      if yield then Engine.wait 0.;
      Ddbm_cc.Lock_table.release_all locks txn ~reject:Exit
    done
  in
  Engine.spawn eng (turn ~yield:true 0);
  Engine.spawn eng (turn ~yield:false 1);
  let w = words_per_op ~ops:(2 * rounds) (fun () -> Engine.run eng) in
  Alcotest.(check int) "no request left queued" 0
    (Ddbm_cc.Lock_table.num_waiting locks);
  w

(* Three attempts, each holding X on its own page and queued for the
   next one's: a local deadlock. Per search from one of them, which
   returns the 3-cycle. *)
let lock_cycle_search () =
  let h = Cc_harness.make () in
  let locks =
    Ddbm_cc.Lock_table.create h.Cc_harness.eng ~blocking:(Stats.Tally.create ())
  in
  let txns = Array.init 3 (fun tid -> Cc_harness.txn h ~tid ~time:0. ()) in
  let on_block _ = () in
  let lock i page =
    Engine.spawn h.Cc_harness.eng (fun () ->
        Ddbm_cc.Lock_table.request locks txns.(i) (Cc_harness.page page)
          Ddbm_cc.Lock_table.X ~on_block)
  in
  for i = 0 to 2 do
    lock i i
  done;
  Cc_harness.settle h;
  for i = 0 to 2 do
    lock i ((i + 1) mod 3)
  done;
  Cc_harness.settle h;
  Alcotest.(check int) "all three queued" 3
    (Ddbm_cc.Lock_table.num_waiting locks);
  words_per_op ~ops (fun () ->
      for _ = 1 to ops do
        match Ddbm_cc.Lock_table.find_cycle_through locks txns.(0) with
        | Some [ _; _; _ ] -> ()
        | Some _ | None -> Alcotest.fail "the 3-cycle is not found"
      done)

(* A Snoop round: the graph of the 54 waits-for edges over 40 attempts
   that the benchsuite's [cc.wfg.us_per_break_all] kernel times (the
   mean round of paper-2pl-8n), with every cycle broken; per round. *)
let snoop_graph () =
  let h = Cc_harness.make () in
  let txns =
    Array.init 40 (fun tid ->
        Cc_harness.txn h ~tid ~time:(float_of_int tid) ())
  in
  let edges =
    List.init 54 (fun i ->
        { Cc_intf.waiter = txns.(i mod 40); holder = txns.(((i * 7) + 3) mod 40) })
  in
  let rounds = ops / 10 in
  words_per_op ~ops:rounds (fun () ->
      for _ = 1 to rounds do
        let g = Ddbm_cc.Wfg.of_edges edges in
        ignore (Sys.opaque_identity (Ddbm_cc.Wfg.break_all_cycles g))
      done)

(* Judging messages on a link that loses some but neither delays nor
   duplicates any: the link of every fault plan that sets [loss] alone. *)
let link_judge () =
  let link = Faults.Link.create (Rng.create 5) ~loss:0.1 ~dup:0. ~delay:0. in
  words_per_op ~ops (fun () ->
      for _ = 1 to ops do
        ignore (Sys.opaque_identity (Faults.Link.judge link))
      done)

(* One attempt's records at a node, as a cohort logs them: a begin,
   four updates (to pages its neighbours also write, so the updates
   record predecessors), a prepare, a commit and the install. *)
let wal_pages = Array.init 16 (fun i -> Ids.Page.make ~file:0 ~index:i)

let log_attempt ?(force = fun () -> ()) wal tid =
  let attempt = 1 + (tid mod 3) in
  Wal.append wal (Wal.Begin { tid; attempt });
  for j = 0 to 3 do
    Wal.append wal
      (Wal.Update { tid; attempt; page = wal_pages.((tid + j) mod 16) })
  done;
  Wal.append wal (Wal.Prepare { tid; attempt });
  force ();
  Wal.append wal (Wal.Commit { tid; attempt });
  force ();
  Wal.mark_installed wal ~tid ~attempt

let wal_create eng = Wal.create eng (Rng.create 7) ~min_time:0.001 ~max_time:0.002

(* The log's append path with no force: per call (eight per attempt),
   the record the caller builds included. *)
let wal_append () =
  let wal = wal_create (Engine.create ()) in
  let attempts = 3_000 in
  words_per_op ~ops:(8 * attempts) (fun () ->
      for tid = 1 to attempts do
        log_attempt wal tid
      done)

(* The words one attempt's digest entry keeps alive once its records
   are forced: no checkpoint follows on a node that does not crash, so
   this is what each attempt adds to the log for good. Per attempt, once
   the page-writer map has seen every page. *)
let wal_entry_retained () =
  let eng = Engine.create () in
  let wal = wal_create eng in
  let log_attempts first n =
    Engine.spawn eng (fun () ->
        for tid = first to first + n - 1 do
          log_attempt wal tid ~force:(fun () -> Wal.force wal)
        done);
    Engine.run eng
  in
  log_attempts 1 64;
  let words () = Obj.reachable_words (Obj.repr wal) in
  let before = words () in
  let n = ops / 10 in
  log_attempts 65 n;
  float_of_int (words () - before) /. float_of_int n

(* The source of the paper's contention regime (8 nodes, 8-way
   partitioning, FileSize 120, 64 terminals). *)
let paper_workload () =
  let d = Params.default in
  let params =
    {
      d with
      Params.database =
        {
          d.Params.database with
          Params.num_proc_nodes = 8;
          partitioning_degree = 8;
          file_size = 120;
        };
      workload = { d.Params.workload with Params.num_terminals = 64 };
    }
  in
  Workload.create params
    (Catalog.create params.Params.database)
    (Rng.create 11)

(* Plans of the paper's contention regime, per plan. *)
let generate_plan () =
  let w = paper_workload () in
  let plans = ops / 10 in
  words_per_op ~ops:plans (fun () ->
      for i = 1 to plans do
        ignore (Workload.generate_plan w ~terminal:(i mod 64) : Plan.t)
      done)

(* The words a plan of the paper's contention regime keeps alive, per
   plan: a transaction's plan outlives minor collections, so this is
   what it costs the major heap. The array holding the plans is not
   counted. *)
let plan_retained () =
  let w = paper_workload () in
  let plans =
    Array.init (ops / 10) (fun i -> Workload.generate_plan w ~terminal:(i mod 64))
  in
  let words = Obj.reachable_words (Obj.repr plans) - (Array.length plans + 1) in
  float_of_int words /. float_of_int (Array.length plans)

(* The words one attempt's runtime keeps alive, for a plan of eight
   cohorts: it lives as long as its attempt, which outlives minor
   collections, so this is what it costs the major heap. The attempt and
   its plan, shared by every runtime measured, are not counted. *)
let runtime_retained () =
  let cohorts =
    List.init 8 (fun node -> { Plan.node; ops = [||]; apply_ops = [] })
  in
  let txn =
    { (Txn.placeholder ()) with Txn.plan = { Plan.relation = 0; cohorts } }
  in
  let runtimes =
    Array.init (ops / 10) (fun _ -> Ddbm.Messages.make_runtime txn)
  in
  let words =
    Obj.reachable_words (Obj.repr runtimes)
    - Obj.reachable_words (Obj.repr txn)
    - (Array.length runtimes + 1)
  in
  float_of_int words /. float_of_int (Array.length runtimes)

(* The words an attempt's footprint of twelve pages keeps alive in a
   lock table: the twelve entries, the footprint with its array and the
   attempt index's cell. A cohort holds its locks until commit, so this
   state outlives minor collections; the table recycles entries and
   footprints, so only the cell is fresh once the table has warmed up.
   The attempt itself is not counted. *)
let footprint_retained () =
  let h = Cc_harness.make () in
  let locks =
    Ddbm_cc.Lock_table.create h.Cc_harness.eng ~blocking:(Stats.Tally.create ())
  in
  let txn = Cc_harness.txn h ~time:0. () in
  let words () = Obj.reachable_words (Obj.repr locks) in
  let empty = words () in
  let on_block _ = () in
  for i = 0 to 11 do
    Ddbm_cc.Lock_table.request locks txn (Cc_harness.page i)
      (if i land 1 = 0 then Ddbm_cc.Lock_table.S else Ddbm_cc.Lock_table.X)
      ~on_block
  done;
  float_of_int (words () - empty - Obj.reachable_words (Obj.repr txn))

(* The words an empty mailbox keeps alive: each cohort has one for the
   life of its attempt. *)
let mailbox_retained () =
  let boxes = Array.init (ops / 10) (fun _ -> Mailbox.create ()) in
  let words = Obj.reachable_words (Obj.repr boxes) - (Array.length boxes + 1) in
  float_of_int words /. float_of_int (Array.length boxes)

(* The measured figure is printed either way; [--verbose] shows it. *)
let budget name ~max measure () =
  let w = measure () in
  Printf.printf "%s: %.1f words per operation, budget %.1f\n%!" name w max;
  if w > max then
    Alcotest.failf "%s measures %.1f words per operation; the budget is %.0f"
      name w max

(* name, measurement, budget in words per operation (per request, per
   search, per round, per plan, per commit for the machine runs);
   measured 7, 8, 8, 6, 8, 8, 6, 6, 8, 6, 9, 0.5, 0, 43.5, 11, 1,099, 0,
   7.9, 36, 350.4, 131.1, 115, 105, 9, 3,834 and 8,355 *)
let cases =
  [
    ("Engine.wait", engine_wait, 7.7);
    ("Cpu.consume, 1 process", cpu_consume ~procs:1, 8.8);
    ("Cpu.consume, 8 processes", cpu_consume ~procs:8, 8.8);
    ("Cpu.consume_priority", cpu_consume_priority, 6.6);
    ("Disk.read", disk_read, 8.8);
    ("Disk.read, behind a busy disk", disk_read_queued, 8.8);
    ("Cpu.consume_priority, behind a job in service", cpu_priority_queued, 6.6);
    ("Mailbox send+recv", mailbox_send_recv, 6.6);
    ("Mailbox timed receive, served", mailbox_timed_served, 8.8);
    ("Mailbox timed receive, expired", mailbox_timed_expired, 6.6);
    ("Net.send", net_send, 9.9);
    ("Lock_table uncontended request+release", lock_uncontended, 1.);
    ("Lock_table re-request of a held lock", lock_rerequest, 1.);
    ("Lock_table blocked request, queued then granted", lock_blocked, 48.);
    ("Lock_table.find_cycle_through, a 3-cycle", lock_cycle_search, 12.);
    ("Wfg.of_edges + break_all_cycles, Snoop's 54 edges", snoop_graph, 1_200.);
    ("Faults.Link.judge, no delay or duplication", link_judge, 0.);
    ("Wal.append, per record", wal_append, 8.7);
    ("Wal digest entry retained words, per attempt", wal_entry_retained, 40.);
    ("Workload.generate_plan", generate_plan, 385.);
    ("Plan retained words", plan_retained, 145.);
    ("Attempt runtime retained words, 8 cohorts", runtime_retained, 127.);
    ("Lock footprint retained words, 12 pages", footprint_retained, 116.);
    ("Mailbox retained words, empty", mailbox_retained, 10.);
    ("Machine, untraced, per commit", machine_run ~traced:false, 4_220.);
    ("Machine, traced, per commit", machine_run ~traced:true, 8_370.);
  ]

let suite =
  List.map
    (fun (name, measure, max) ->
      Alcotest.test_case name `Quick (budget name ~max measure))
    cases

