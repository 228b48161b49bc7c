(* Equivalence tests for the O(log n) virtual-time processor-sharing CPU
   kernel against the original O(n) list-based implementation, kept here
   as [Cpu_reference], plus a regression test for the adversarial
   demands that could stall the old kernel forever.

   (The M/M/1-PS sojourn-time queueing validation also exercises the new
   kernel — it lives in test_queueing.ml and runs against whatever
   kernel lib/desim ships.) *)

(* --- the original kernel, verbatim semantics ------------------------ *)

module Cpu_reference = struct
  type job = { mutable remaining : float; k : unit -> unit }

  type t = {
    eng : Desim.Engine.t;
    rate : float;
    mutable ps : job list;
    hi : (float * (unit -> unit)) Queue.t;
    mutable hi_busy : bool;
    mutable last : float;
    mutable timer : Desim.Engine.handle option;
  }

  let epsilon = 1e-6

  let create eng ~rate =
    {
      eng;
      rate;
      ps = [];
      hi = Queue.create ();
      hi_busy = false;
      last = Desim.Engine.now eng;
      timer = None;
    }

  let account t =
    let now = Desim.Engine.now t.eng in
    let dt = now -. t.last in
    if dt > 0. then begin
      (if (not t.hi_busy) && t.ps <> [] then
         let share = t.rate *. dt /. float_of_int (List.length t.ps) in
         List.iter
           (fun j -> j.remaining <- Float.max 0. (j.remaining -. share))
           t.ps);
      t.last <- now
    end

  let cancel_timer t =
    match t.timer with
    | Some h ->
        Desim.Engine.cancel t.eng h;
        t.timer <- None
    | None -> ()

  let rec reschedule t =
    cancel_timer t;
    if (not t.hi_busy) && t.ps <> [] then begin
      let rmin =
        List.fold_left (fun acc j -> Float.min acc j.remaining) infinity t.ps
      in
      let n = float_of_int (List.length t.ps) in
      let delay = Float.max 0. (rmin *. n /. t.rate) in
      t.timer <-
        Some (Desim.Engine.schedule_after t.eng ~delay (fun () -> on_timer t))
    end

  and on_timer t =
    t.timer <- None;
    account t;
    let done_, live = List.partition (fun j -> j.remaining <= epsilon) t.ps in
    t.ps <- live;
    reschedule t;
    List.iter (fun j -> j.k ()) done_

  let rec pump_hi t =
    if (not t.hi_busy) && not (Queue.is_empty t.hi) then begin
      account t;
      cancel_timer t;
      t.hi_busy <- true;
      let instructions, k = Queue.pop t.hi in
      ignore
        (Desim.Engine.schedule_after t.eng ~delay:(instructions /. t.rate)
           (fun () ->
             account t;
             t.hi_busy <- false;
             pump_hi t;
             if not t.hi_busy then reschedule t;
             k ())
          : Desim.Engine.handle)
    end

  let submit t ~instructions k =
    if instructions <= 0. then k ()
    else begin
      account t;
      t.ps <- { remaining = instructions; k } :: t.ps;
      reschedule t
    end

  let submit_priority t ~instructions k =
    if instructions <= 0. then k ()
    else begin
      Queue.push (instructions, k) t.hi;
      pump_hi t
    end
end

(* --- workload driver ------------------------------------------------ *)

type arrival = { at : float; demand : float; priority : bool }

(* Run one arrival schedule through a kernel; returns completions as
   (job id, completion time) in completion order. *)
let run_kernel ~rate ~submit ~submit_priority ~create arrivals =
  let eng = Desim.Engine.create () in
  let cpu = create eng ~rate in
  let completions = ref [] in
  List.iteri
    (fun id a ->
      ignore
        (Desim.Engine.schedule eng ~at:a.at (fun () ->
             let k () =
               completions := (id, Desim.Engine.now eng) :: !completions
             in
             if a.priority then submit_priority cpu ~instructions:a.demand k
             else submit cpu ~instructions:a.demand k)
          : Desim.Engine.handle))
    arrivals;
  Desim.Engine.run eng;
  List.rev !completions

let run_reference ~rate arrivals =
  run_kernel ~rate ~submit:Cpu_reference.submit
    ~submit_priority:Cpu_reference.submit_priority ~create:Cpu_reference.create
    arrivals

let run_current ~rate arrivals =
  run_kernel ~rate ~submit:Desim.Cpu.submit
    ~submit_priority:Desim.Cpu.submit_priority ~create:Desim.Cpu.create
    arrivals

(* --- equivalence checks --------------------------------------------- *)

(* Completion times agree within [tol] (relative to the busy-period
   scale), and completion order agrees wherever the reference times are
   not a near-tie. Near-ties are legitimately ordered differently: the
   old kernel released simultaneous finishers in reverse-arrival order,
   the new one in arrival order. *)
let check_equivalent ~rate arrivals =
  let ref_out = run_reference ~rate arrivals in
  let cur_out = run_current ~rate arrivals in
  let n = List.length arrivals in
  if List.length ref_out <> n || List.length cur_out <> n then
    Alcotest.failf "lost completions: reference %d, current %d of %d"
      (List.length ref_out) (List.length cur_out) n;
  let ref_time = Array.make n 0. in
  List.iter (fun (id, time) -> ref_time.(id) <- time) ref_out;
  let tol = 1e-5 in
  List.iter
    (fun (id, time) ->
      let dt = Float.abs (time -. ref_time.(id)) in
      if dt > tol then
        Alcotest.failf "job %d completes at %.9f (reference %.9f, delta %g)"
          id time ref_time.(id) dt)
    cur_out;
  (* order agreement outside near-ties *)
  let cur_order = List.map fst cur_out in
  let rec check_order = function
    | [] -> ()
    | a :: rest ->
        List.iter
          (fun b ->
            if ref_time.(a) > ref_time.(b) +. tol then
              Alcotest.failf
                "job %d (ref %.9f) completed before job %d (ref %.9f)" a
                ref_time.(a) b ref_time.(b))
          rest;
        check_order rest
  in
  check_order cur_order

let test_equivalence_basic () =
  check_equivalent ~rate:1_000_000.
    [
      { at = 0.; demand = 10_000.; priority = false };
      { at = 0.; demand = 20_000.; priority = false };
      { at = 0.005; demand = 5_000.; priority = false };
      { at = 0.010; demand = 1_000.; priority = true };
      { at = 0.012; demand = 40_000.; priority = false };
    ]

let test_equivalence_simultaneous () =
  (* equal demands arriving together: a pure tie — times must agree even
     though the two kernels order the callbacks differently *)
  check_equivalent ~rate:1_000_000.
    (List.init 10 (fun i ->
         { at = 0.001 *. float_of_int (i / 5); demand = 7_000.; priority = false }))

let test_equivalence_random =
  QCheck.Test.make ~count:60 ~name:"random schedules: kernels agree"
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 40 in
          let* rate = float_range 1e4 1e7 in
          let* arrivals =
            list_repeat n
              (let* at = float_range 0. 0.5 in
               let* demand = float_range 1. 50_000. in
               let* priority = bool in
               return { at; demand; priority })
          in
          return (rate, arrivals)))
    (fun (rate, arrivals) ->
      check_equivalent ~rate arrivals;
      true)

(* --- adversarial demands: the stall regression ---------------------- *)

(* The old kernel computed the next completion as
   [now +. rmin *. n /. rate]; when that sum rounds back to [now]
   (huge rate, or a clock far from the origin where one ulp exceeds the
   delay) its timer fired with dt = 0, accounted no progress, re-armed
   the identical timer, and span forever. The new kernel force-completes
   the head job whenever the timer it armed for that job fires without
   reaching the finish tag. These inputs hang the old kernel; the test
   passes iff Engine.run returns with every job completed. *)
let test_denormal_demand_completes () =
  let completions =
    run_current ~rate:1e300
      [
        { at = 1.0; demand = 1e-5; priority = false };
        (* above reference epsilon, delay underflows to < 1 ulp of now *)
        { at = 1.0; demand = 2e-5; priority = false };
      ]
  in
  Alcotest.(check int) "all jobs complete" 2 (List.length completions)

let test_coarse_clock_completes () =
  (* far from the time origin one ulp is ~1.2e-4 s, so a 5e-7 s delay
     cannot advance the clock at all *)
  let completions =
    run_current ~rate:1e6
      [
        { at = 1e12; demand = 0.5; priority = false };
        { at = 1e12; demand = 0.25; priority = false };
        { at = 1e12; demand = 1e-320; priority = false };
      ]
  in
  Alcotest.(check int) "all jobs complete" 3 (List.length completions)

let test_denormal_among_normal_jobs () =
  (* a denormal-demand job sharing the CPU with real work must neither
     stall the queue nor perturb the real jobs' completion times *)
  let completions =
    run_current ~rate:1_000_000.
      [
        { at = 0.; demand = 10_000.; priority = false };
        { at = 0.; demand = 1e-310; priority = false };
        { at = 0.002; demand = 5_000.; priority = false };
      ]
  in
  Alcotest.(check int) "all jobs complete" 3 (List.length completions);
  let t0 = List.assoc 0 completions in
  (* job 0: shares briefly, then ~alone; must finish near 10000/1e6 s *)
  Alcotest.(check bool)
    (Printf.sprintf "real work unperturbed (%.6f s)" t0)
    true
    (t0 > 0.009 && t0 < 0.025)

let suite =
  [
    Alcotest.test_case "hand-built schedule equivalence" `Quick
      test_equivalence_basic;
    Alcotest.test_case "simultaneous finishers equivalence" `Quick
      test_equivalence_simultaneous;
    QCheck_alcotest.to_alcotest test_equivalence_random;
    Alcotest.test_case "denormal delay cannot stall the PS queue" `Quick
      test_denormal_demand_completes;
    Alcotest.test_case "coarse clock cannot stall the PS queue" `Quick
      test_coarse_clock_completes;
    Alcotest.test_case "denormal job leaves real work unperturbed" `Quick
      test_denormal_among_normal_jobs;
  ]
