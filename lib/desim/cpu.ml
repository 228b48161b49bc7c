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
   so the steady state allocates only what a request must. A job is an
   {!Engine.handle}, fired by {!Engine.wake}: a callback's timer, or a
   blocked process's resolver, which is its wake-up too. Each class has
   one timer, built on its first arm and re-armed in place from then on
   ({!Engine.arm}), so an arm allocates nothing and a
   superseded PS completion leaves nothing behind in the event queue.
   The PS heap keeps its finish tags unboxed in parallel arrays, the
   floats (the timers' due time included) live in all-float records,
   and the blocking wrappers park the process with a prebuilt
   {!Engine.parker}. A message-class job that arrives while another is
   in service waits in a {!Ring} of handles, its work unboxed in the
   ring's float column and carried in and out through [hi_work], so
   queueing it allocates nothing once the ring has grown. *)

(* The kernel's floats, stored flat. [pending] carries a blocking
   wrapper's demand into its parker's registration, which runs
   synchronously inside [Engine.park]. *)
type acct = {
  mutable v : float; (* virtual time, instructions per job *)
  mutable last : float; (* time up to which PS progress is accounted *)
  mutable pending : float;
}

type t = {
  eng : Engine.t;
  clock : Engine.clock;
  rate : float;
  acct : acct;
  (* PS class: a binary min-heap on (finish tag, arrival seq) in
     parallel arrays, grown on demand. *)
  mutable tags : float array;
  mutable seqs : int array;
  mutable jobs : Engine.handle array;
  mutable n : int;
  mutable jseq : int;
  (* finished PS jobs of one timer firing, woken after the bookkeeping *)
  mutable finished : Engine.handle array;
  mutable n_finished : int;
  (* high-priority FCFS class: the job in service and the queue behind,
     each queued job's work beside it in the ring *)
  hi : Engine.handle Ring.t;
  hi_work : Ring.float_cell;
  mutable hi_busy : bool;
  mutable hi_w : Engine.handle;
  (* the PS class's completion timer and the high class's, each built on
     its first arm and re-armed from then on, and their due time *)
  mutable ps_timer : Engine.handle option;
  mutable hi_timer : Engine.handle option;
  due : Engine.due;
  mutable park_ps : Engine.parker option;
  mutable park_hi : Engine.parker option;
  util : Stats.Utilization.t;
}

let epsilon = 1e-6 (* instructions *)

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
  let jobs = Array.make ncap Engine.idle in
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
  jobs.(n) <- Engine.idle;
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

let cancel_ps_timer t =
  match t.ps_timer with Some h -> Engine.cancel t.eng h | None -> ()

let finish t =
  if t.n_finished = Array.length t.finished then begin
    let bigger = Array.make (max 4 (2 * t.n_finished)) Engine.idle in
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
let rec fire t =
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
    t.finished.(i) <- Engine.idle;
    Engine.wake w
  done

(* Arm the PS timer for the head job's finish, or cancel it when the PS
   class is empty or preempted. *)
and reschedule t =
  if (not t.hi_busy) && t.n > 0 then begin
    let n = float_of_int t.n in
    let delay = (t.tags.(0) -. t.acct.v) *. n /. t.rate in
    (* not [Float.max], whose result would be boxed *)
    t.due.at <- t.clock.now +. if delay < 0. then 0. else delay;
    let h =
      match t.ps_timer with
      | Some h -> h
      | None ->
          let h = Engine.timer (fun () -> fire t) in
          t.ps_timer <- Some h;
          h
    in
    Engine.arm t.eng h t.due
  end
  else cancel_ps_timer t

(* Serving [work] instructions of the high class ends at [t.due.at]. *)
let[@inline] set_hi_due t work = t.due.at <- t.clock.now +. (work /. t.rate)

(* Put [w] in service; the caller has just set its due time. *)
let rec serve_hi t w =
  account t;
  cancel_ps_timer t;
  t.hi_busy <- true;
  record_util t;
  t.hi_w <- w;
  let h =
    match t.hi_timer with
    | Some h -> h
    | None ->
        let h = Engine.timer (fun () -> hi_done t) in
        t.hi_timer <- Some h;
        h
  in
  Engine.arm t.eng h t.due

(* The job in service is done: serve the next one, or resume the PS
   class, then wake the finished job. *)
and hi_done t =
  let w = t.hi_w in
  t.hi_w <- Engine.idle;
  account t;
  t.hi_busy <- false;
  record_util t;
  if Ring.is_empty t.hi then reschedule t
  else begin
    let next = Ring.pop_with t.hi t.hi_work in
    set_hi_due t t.hi_work.value;
    serve_hi t next
  end;
  Engine.wake w

let[@inline] submit_job t work w =
  if work <= 0. then Engine.wake w
  else begin
    account t;
    push_job t (t.acct.v +. work) w;
    record_util t;
    reschedule t
  end

(* The high class never waits while idle, so the queue is non-empty only
   behind a job in service. *)
let[@inline] submit_priority_job t work w =
  if work <= 0. then Engine.wake w
  else if t.hi_busy then begin
    t.hi_work.value <- work;
    Ring.push_with t.hi w t.hi_work
  end
  else begin
    set_hi_due t work;
    serve_hi t w
  end

let create eng ~rate =
  assert (rate > 0.);
  let clock = Engine.clock eng in
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
    hi = Ring.create Engine.idle;
    hi_work = { value = 0. };
    hi_busy = false;
    hi_w = Engine.idle;
    ps_timer = None;
    hi_timer = None;
    due = { at = 0. };
    park_ps = None;
    park_hi = None;
    util = Stats.Utilization.create clock;
  }

let submit t ~instructions k = submit_job t instructions (Engine.timer k)

let submit_priority t ~instructions k =
  submit_priority_job t instructions (Engine.timer k)

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
            let w = (r :> Engine.handle) in
            if hi then submit_priority_job t t.acct.pending w
            else submit_job t t.acct.pending w)
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
