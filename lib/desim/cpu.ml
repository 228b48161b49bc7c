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
   simulated time. *)

type job = { finish_v : float; jseq : int; k : unit -> unit }

type t = {
  eng : Engine.t;
  rate : float;
  ps : job Heap.t;
  mutable v : float; (* virtual time, instructions per job *)
  mutable jseq : int;
  hi : (float * (unit -> unit)) Queue.t;
  mutable hi_busy : bool;
  mutable last : float; (* time up to which PS progress is accounted *)
  mutable timer : Engine.handle option;
  util : Stats.Utilization.t;
}

let epsilon = 1e-6 (* instructions *)

let cmp_job a b =
  let c = Float.compare a.finish_v b.finish_v in
  if c <> 0 then c else Int.compare a.jseq b.jseq

let create eng ~rate =
  assert (rate > 0.);
  {
    eng;
    rate;
    ps = Heap.create ~cmp:cmp_job;
    v = 0.;
    jseq = 0;
    hi = Queue.create ();
    hi_busy = false;
    last = Engine.now eng;
    timer = None;
    util = Stats.Utilization.create ~now:(Engine.now eng);
  }

let rate t = t.rate

let busy_level t =
  if t.hi_busy || not (Heap.is_empty t.ps) then 1.0 else 0.0

let record_util t =
  Stats.Utilization.set_busy_level t.util ~now:(Engine.now t.eng)
    ~level:(busy_level t)

(* Account PS progress over [last, now]; the PS class only runs when no
   high-priority work is in service. *)
let account t =
  let now = Engine.now t.eng in
  let dt = now -. t.last in
  if dt > 0. then begin
    let n = Heap.size t.ps in
    if (not t.hi_busy) && n > 0 then
      t.v <- t.v +. (t.rate *. dt /. float_of_int n);
    t.last <- now
  end

let cancel_timer t =
  match t.timer with
  | Some h ->
      Engine.cancel h;
      t.timer <- None
  | None -> ()

(* Pop every job whose finish tag has been reached. When [force] is set
   and no job qualifies, the head job is completed anyway (timer-fired
   rounding shortfall; see the header comment). Completions run after
   all bookkeeping so a callback that resubmits work sees a consistent
   CPU. Returns the completed jobs in deterministic (finish_v, seq)
   order. *)
let take_finished t ~force =
  let done_ = ref [] in
  let continue_ = ref true in
  while !continue_ && not (Heap.is_empty t.ps) do
    let j = Heap.top t.ps in
    if j.finish_v -. t.v <= epsilon then begin
      Heap.drop t.ps;
      done_ := j :: !done_
    end
    else continue_ := false
  done;
  if force && !done_ = [] && not (Heap.is_empty t.ps) then begin
    let j = Heap.top t.ps in
    Heap.drop t.ps;
    done_ := [ j ]
  end;
  (* Reset virtual time whenever the class drains so [v] and the finish
     tags cannot grow without bound (and lose float precision) over a
     long simulation. *)
  if Heap.is_empty t.ps then t.v <- 0.;
  List.rev !done_

let rec reschedule t =
  cancel_timer t;
  if (not t.hi_busy) && not (Heap.is_empty t.ps) then begin
    let j = Heap.top t.ps in
    let n = float_of_int (Heap.size t.ps) in
    let delay = Float.max 0. ((j.finish_v -. t.v) *. n /. t.rate) in
    t.timer <- Some (Engine.schedule_after t.eng ~delay (fun () -> on_timer t))
  end

and on_timer t =
  t.timer <- None;
  account t;
  let done_ = take_finished t ~force:true in
  record_util t;
  reschedule t;
  List.iter (fun j -> j.k ()) done_

let rec pump_hi t =
  if (not t.hi_busy) && not (Queue.is_empty t.hi) then begin
    account t;
    cancel_timer t;
    t.hi_busy <- true;
    record_util t;
    let instructions, k = Queue.pop t.hi in
    ignore
      (Engine.schedule_after t.eng ~delay:(instructions /. t.rate) (fun () ->
           account t;
           t.hi_busy <- false;
           record_util t;
           pump_hi t;
           if not t.hi_busy then reschedule t;
           k ())
        : Engine.handle)
  end

let submit t ~instructions k =
  if instructions <= 0. then k ()
  else begin
    account t;
    t.jseq <- t.jseq + 1;
    Heap.push t.ps { finish_v = t.v +. instructions; jseq = t.jseq; k };
    record_util t;
    reschedule t
  end

let submit_priority t ~instructions k =
  if instructions <= 0. then k ()
  else begin
    Queue.push (instructions, k) t.hi;
    pump_hi t
  end

let consume t ~instructions =
  if instructions > 0. then
    Engine.suspend (fun r ->
        submit t ~instructions (fun () -> Engine.resolve r ()))

let consume_priority t ~instructions =
  if instructions > 0. then
    Engine.suspend (fun r ->
        submit_priority t ~instructions (fun () -> Engine.resolve r ()))

let ps_load t = Heap.size t.ps

let utilization t =
  (* Flush the current level before reading. *)
  Stats.Utilization.value t.util ~now:(Engine.now t.eng)

let busy_time t = Stats.Utilization.busy_time t.util ~now:(Engine.now t.eng)

let reset_window t = Stats.Utilization.set_window t.util ~now:(Engine.now t.eng)
