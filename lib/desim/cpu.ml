(* Processor-sharing via virtual time.

   The old kernel kept a [job list] and, on every accounting step,
   decremented every job's remaining work — O(n) per event, O(n^2) per
   busy period, and the dominant cost of high-MPL runs. This kernel is
   the classical PS virtual-time scheme:

   - virtual time [v] (in instructions-per-job units) advances at
     [rate / n] per real second while the PS class runs with [n] jobs;
   - a job arriving with [w] instructions finishes when [v] reaches
     [v_arrival +. w], so each job is touched exactly twice: once to
     push its finish tag onto a min-heap, once to pop it — O(log n).

   Ties on the finish tag are broken by arrival sequence, so completion
   order is deterministic. (The old kernel released simultaneous
   finishers in reverse-arrival order; this one uses arrival order —
   equally deterministic, and the bit-identity pins were regenerated
   with the kernel change.)

   Stall safety: the timer for the head job's completion is computed as
   [(finish_v - v) * n / rate]. With adversarial demands (denormal
   remaining work, huge rates) that delay can underflow so far that
   [now +. delay = now] — the old kernel then fired at [dt = 0], made no
   progress, re-armed an identical timer, and spun forever. Here, when
   the timer fires and the head job still isn't past its finish tag, we
   force-complete it: the timer was armed for exactly that job's finish,
   so any shortfall is pure float rounding below the resolution of
   simulated time.

   Allocation: a CPU runs at every page access and twice per message,
   so the steady state allocates only what a request must: the
   engine's resolver and event entries, the [Waiter.t], and one timer
   event per re-arm. The PS heap keeps its finish tags unboxed in
   parallel arrays, the floats live in an all-float record, the timer
   and completion callbacks are built once in [create], and the blocking
   wrappers park the process with a prebuilt {!Engine.parker}. *)

(* The kernel's floats, stored flat. [pending] carries a blocking
   wrapper's demand into its parker's registration, which runs
   synchronously inside [Engine.park]. *)
type acct = {
  mutable v : float; (* virtual time, instructions per job *)
  mutable last : float; (* time up to which PS progress is accounted *)
  mutable pending : float;
}

type hi_job = { work : float; w : Waiter.t }

type t = {
  eng : Engine.t;
  clock : Engine.clock;
  rate : float;
  acct : acct;
  (* PS class: a binary min-heap on (finish tag, arrival seq) in
     parallel arrays, grown on demand. *)
  mutable tags : float array;
  mutable seqs : int array;
  mutable jobs : Waiter.t array;
  mutable n : int;
  mutable jseq : int;
  (* finished PS jobs of one timer firing, woken after the bookkeeping *)
  mutable finished : Waiter.t array;
  mutable n_finished : int;
  (* high-priority FCFS class: the job in service and the queue behind *)
  hi : hi_job Queue.t;
  mutable hi_busy : bool;
  mutable hi_w : Waiter.t;
  mutable timer : Engine.handle;
  mutable on_timer : unit -> unit;
  mutable on_hi_done : unit -> unit;
  mutable park_ps : unit Engine.parker option;
  mutable park_hi : unit Engine.parker option;
  util : Stats.Utilization.t;
}

let epsilon = 1e-6 (* instructions *)

let idle = Waiter.Call ignore

let rate t = t.rate

let record_util t =
  Stats.Utilization.set_busy t.util ~busy:(t.hi_busy || t.n > 0)

(* Account PS progress over [last, now]; the PS class only runs when no
   high-priority work is in service. *)
let account t =
  let a = t.acct in
  let now = t.clock.now in
  let dt = now -. a.last in
  if dt > 0. then begin
    let n = t.n in
    if (not t.hi_busy) && n > 0 then
      a.v <- a.v +. (t.rate *. dt /. float_of_int n);
    a.last <- now
  end

(* --- the PS heap ---------------------------------------------------- *)

let grow t =
  let cap = Array.length t.jobs in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let tags = Array.make ncap 0. in
  let seqs = Array.make ncap 0 in
  let jobs = Array.make ncap idle in
  Array.blit t.tags 0 tags 0 t.n;
  Array.blit t.seqs 0 seqs 0 t.n;
  Array.blit t.jobs 0 jobs 0 t.n;
  t.tags <- tags;
  t.seqs <- seqs;
  t.jobs <- jobs

(* The same heap as the engine's event queue, on (finish tag, seq). Both
   sifts move a hole. A new job's seq exceeds every queued one, so it
   passes a parent only when its tag is strictly smaller. *)
let[@inline] push_job t tag w =
  if t.n = Array.length t.jobs then grow t;
  t.jseq <- t.jseq + 1;
  let tags = t.tags and seqs = t.seqs and jobs = t.jobs in
  let i = ref t.n in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = tags.(p) in
    if tag < pt then begin
      tags.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      jobs.(!i) <- jobs.(p);
      i := p
    end
    else moving := false
  done;
  tags.(!i) <- tag;
  seqs.(!i) <- t.jseq;
  jobs.(!i) <- w;
  t.n <- t.n + 1

let drop_job t =
  let n = t.n - 1 in
  t.n <- n;
  let tags = t.tags and seqs = t.seqs and jobs = t.jobs in
  let lt = tags.(n) and ls = seqs.(n) and lw = jobs.(n) in
  jobs.(n) <- idle;
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (tags.(r) < tags.(l) || (tags.(r) = tags.(l) && seqs.(r) < seqs.(l)))
          then r
          else l
        in
        let ct = tags.(c) in
        if ct < lt || (ct = lt && seqs.(c) < ls) then begin
          tags.(!i) <- ct;
          seqs.(!i) <- seqs.(c);
          jobs.(!i) <- jobs.(c);
          i := c
        end
        else moving := false
      end
    done;
    tags.(!i) <- lt;
    seqs.(!i) <- ls;
    jobs.(!i) <- lw
  end

(* --- timers and completions ----------------------------------------- *)

let cancel_timer t = Engine.cancel t.timer

let reschedule t =
  cancel_timer t;
  if (not t.hi_busy) && t.n > 0 then begin
    let n = float_of_int t.n in
    let delay = Float.max 0. ((t.tags.(0) -. t.acct.v) *. n /. t.rate) in
    t.timer <- Engine.schedule_after t.eng ~delay t.on_timer
  end

let finish t =
  if t.n_finished = Array.length t.finished then begin
    let bigger = Array.make (max 4 (2 * t.n_finished)) idle in
    Array.blit t.finished 0 bigger 0 t.n_finished;
    t.finished <- bigger
  end;
  t.finished.(t.n_finished) <- t.jobs.(0);
  t.n_finished <- t.n_finished + 1;
  drop_job t

(* Pop every job whose finish tag has been reached; when none has, the
   head job anyway (the timer was armed for it: see the header comment).
   Completions run after all bookkeeping, so a callback that resubmits
   work sees a consistent CPU, in deterministic (finish tag, seq)
   order. *)
let fire t =
  account t;
  while t.n > 0 && t.tags.(0) -. t.acct.v <= epsilon do
    finish t
  done;
  if t.n_finished = 0 && t.n > 0 then finish t;
  (* Reset virtual time whenever the class drains so [v] and the finish
     tags cannot grow without bound (and lose float precision) over a
     long simulation. *)
  if t.n = 0 then t.acct.v <- 0.;
  record_util t;
  reschedule t;
  let n = t.n_finished in
  t.n_finished <- 0;
  for i = 0 to n - 1 do
    let w = t.finished.(i) in
    t.finished.(i) <- idle;
    Waiter.wake w
  done

let[@inline] start_hi t work w =
  account t;
  cancel_timer t;
  t.hi_busy <- true;
  record_util t;
  t.hi_w <- w;
  ignore (Engine.schedule_after t.eng ~delay:(work /. t.rate) t.on_hi_done
    : Engine.handle)

(* The job in service is done: serve the next one, or resume the PS
   class, then wake the finished job. *)
let hi_done t =
  let w = t.hi_w in
  t.hi_w <- idle;
  account t;
  t.hi_busy <- false;
  record_util t;
  if Queue.is_empty t.hi then reschedule t
  else begin
    let j = Queue.pop t.hi in
    start_hi t j.work j.w
  end;
  Waiter.wake w

let[@inline] submit_waiter t work w =
  if work <= 0. then Waiter.wake w
  else begin
    account t;
    push_job t (t.acct.v +. work) w;
    record_util t;
    reschedule t
  end

(* The high class never waits while idle, so the queue is non-empty only
   behind a job in service. *)
let[@inline] submit_priority_waiter t work w =
  if work <= 0. then Waiter.wake w
  else if t.hi_busy then Queue.push { work; w } t.hi
  else start_hi t work w

let create eng ~rate =
  assert (rate > 0.);
  let clock = Engine.clock eng in
  let t =
    {
      eng;
      clock;
      rate;
      acct = { v = 0.; last = clock.now; pending = 0. };
      tags = [||];
      seqs = [||];
      jobs = [||];
      n = 0;
      jseq = 0;
      finished = [||];
      n_finished = 0;
      hi = Queue.create ();
      hi_busy = false;
      hi_w = idle;
      timer = Engine.cancelled_handle ();
      on_timer = ignore;
      on_hi_done = ignore;
      park_ps = None;
      park_hi = None;
      util = Stats.Utilization.create clock;
    }
  in
  t.on_timer <- (fun () -> fire t);
  t.on_hi_done <- (fun () -> hi_done t);
  t

let submit t ~instructions k = submit_waiter t instructions (Waiter.Call k)

let submit_priority t ~instructions k =
  submit_priority_waiter t instructions (Waiter.Call k)

(* The parkers are built on the first block, not in [create]: every
   CPU and disk blocks a process sooner or later, but building their
   parkers eagerly made [Machine.create] on the 64-node benchmark
   machine allocate half as much again (22.8k -> 34.5k words). *)
let park t ~hi =
  match if hi then t.park_hi else t.park_ps with
  | Some p -> p
  | None ->
      let p =
        Engine.parker (fun r ->
            let w = Waiter.Resume r in
            if hi then submit_priority_waiter t t.acct.pending w
            else submit_waiter t t.acct.pending w)
      in
      if hi then t.park_hi <- Some p else t.park_ps <- Some p;
      p

let consume t ~instructions =
  if instructions > 0. then begin
    t.acct.pending <- instructions;
    Engine.park (park t ~hi:false)
  end

let consume_priority t ~instructions =
  if instructions > 0. then begin
    t.acct.pending <- instructions;
    Engine.park (park t ~hi:true)
  end

let ps_load t = t.n

let utilization t =
  (* Flush the current level before reading. *)
  Stats.Utilization.value t.util

let busy_time t = Stats.Utilization.busy_time t.util

let reset_window t = Stats.Utilization.set_window t.util
