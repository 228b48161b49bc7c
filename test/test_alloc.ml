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
   and, per commit, 15,406 untraced and 19,127 traced. *)

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

(* A process sends to another node; the delivery counts. *)
let net_send () =
  let eng = Engine.create () in
  let cpus = [| Cpu.create eng ~rate:1e6; Cpu.create eng ~rate:1e6 |] in
  let net =
    Net.create ~eng ~inst_per_msg:1000.
      ~cpu_of:(function Ids.Host -> cpus.(0) | Ids.Proc i -> cpus.(i))
      ()
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

(* Plans of the paper's contention regime (8 nodes, 8-way partitioning,
   FileSize 120, 64 terminals), per plan. *)
let generate_plan () =
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
  let w =
    Workload.create params
      (Catalog.create params.Params.database)
      (Rng.create 11)
  in
  let plans = ops / 10 in
  words_per_op ~ops:plans (fun () ->
      for i = 1 to plans do
        ignore (Workload.generate_plan w ~terminal:(i mod 64) : Plan.t)
      done)

let budget name ~max measure () =
  let w = measure () in
  if w > max then
    Alcotest.failf "%s allocates %.1f words per operation; the budget is %.0f"
      name w max

(* name, measurement, budget in words per operation (per request, per
   plan, per commit for the machine runs); measured 8, 18, 23, 16, 18,
   14, 23, 17.9, 2, 989, 9,754 and 13,476 *)
let cases =
  [
    ("Engine.wait", engine_wait, 9.);
    ("Cpu.consume, 1 process", cpu_consume ~procs:1, 20.);
    ("Cpu.consume, 8 processes", cpu_consume ~procs:8, 26.);
    ("Cpu.consume_priority", cpu_consume_priority, 18.);
    ("Disk.read", disk_read, 20.);
    ("Mailbox send+recv", mailbox_send_recv, 16.);
    ("Net.send", net_send, 26.);
    ("Lock_table uncontended request+release", lock_uncontended, 19.5);
    ("Lock_table re-request of a held lock", lock_rerequest, 2.2);
    ("Workload.generate_plan", generate_plan, 1_090.);
    ("Machine, untraced, per commit", machine_run ~traced:false, 10_700.);
    ("Machine, traced, per commit", machine_run ~traced:true, 14_800.);
  ]

let suite =
  List.map
    (fun (name, measure, max) ->
      Alcotest.test_case name `Quick (budget name ~max measure))
    cases

