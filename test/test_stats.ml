open Desim

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

let test_tally_basic () =
  let t = Stats.Tally.create () in
  List.iter (Stats.Tally.add t) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.Tally.count t);
  Alcotest.(check bool) "mean" true (feq (Stats.Tally.mean t) 3.);
  Alcotest.(check bool) "total" true (feq (Stats.Tally.total t) 15.);
  Alcotest.(check bool) "variance" true (feq (Stats.Tally.variance t) 2.5)

let test_tally_empty () =
  let t = Stats.Tally.create () in
  Alcotest.(check int) "count" 0 (Stats.Tally.count t);
  Alcotest.(check bool) "mean 0" true (feq (Stats.Tally.mean t) 0.);
  Alcotest.(check bool) "var 0" true (feq (Stats.Tally.variance t) 0.);
  Alcotest.(check bool) "ci 0" true (feq (Stats.Tally.ci95 t) 0.)

let test_tally_reset () =
  let t = Stats.Tally.create () in
  Stats.Tally.add t 10.;
  Stats.Tally.reset t;
  Alcotest.(check int) "count after reset" 0 (Stats.Tally.count t);
  Stats.Tally.add t 4.;
  Alcotest.(check bool) "mean after reset" true (feq (Stats.Tally.mean t) 4.)

let test_timeseries_average () =
  let ts = Stats.Timeseries.create ~now:0. ~value:0. in
  Stats.Timeseries.update ts ~now:1. ~value:2.;
  Stats.Timeseries.update ts ~now:3. ~value:1.;
  (* signal: 0 on [0,1), 2 on [1,3), 1 on [3,4) -> area 0+4+1 = 5 over 4 *)
  Alcotest.(check bool) "avg" true
    (feq (Stats.Timeseries.average ts ~now:4.) 1.25)

let test_timeseries_window () =
  let ts = Stats.Timeseries.create ~now:0. ~value:5. in
  Stats.Timeseries.set_window ts ~now:10.;
  Stats.Timeseries.update ts ~now:12. ~value:1.;
  (* from 10: 5 on [10,12), 1 on [12,14) -> (10+2)/4 = 3 *)
  Alcotest.(check bool) "windowed avg" true
    (feq (Stats.Timeseries.average ts ~now:14.) 3.)

let test_utilization () =
  let eng = Engine.create () in
  let u = Stats.Utilization.create (Engine.clock eng) in
  Stats.Utilization.set_busy u ~busy:true;
  ignore
    (Engine.schedule eng ~at:3. (fun () ->
         Stats.Utilization.set_busy u ~busy:false)
      : Engine.handle);
  Engine.run ~until:4. eng;
  Alcotest.(check bool) "75% busy" true (feq (Stats.Utilization.value u) 0.75)

let test_batch_means_mean () =
  let b = Stats.Batch_means.create ~batch_size:4 in
  for i = 1 to 16 do
    Stats.Batch_means.add b (float_of_int i)
  done;
  Alcotest.(check int) "batches" 4 (Stats.Batch_means.batches b);
  Alcotest.(check int) "count" 16 (Stats.Batch_means.count b);
  Alcotest.(check bool) "grand mean 8.5" true
    (feq (Stats.Batch_means.mean b) 8.5)

let test_batch_means_partial_batch_excluded () =
  let b = Stats.Batch_means.create ~batch_size:10 in
  for _ = 1 to 9 do
    Stats.Batch_means.add b 1.
  done;
  Alcotest.(check int) "no complete batch" 0 (Stats.Batch_means.batches b);
  Alcotest.(check bool) "ci 0 without batches" true
    (feq (Stats.Batch_means.ci95 b) 0.)

let test_batch_means_constant_signal () =
  let b = Stats.Batch_means.create ~batch_size:5 in
  for _ = 1 to 50 do
    Stats.Batch_means.add b 3.
  done;
  Alcotest.(check bool) "zero-width ci" true (feq (Stats.Batch_means.ci95 b) 0.);
  Alcotest.(check bool) "mean" true (feq (Stats.Batch_means.mean b) 3.)

let test_batch_means_reset () =
  let b = Stats.Batch_means.create ~batch_size:2 in
  Stats.Batch_means.add b 1.;
  Stats.Batch_means.add b 2.;
  Stats.Batch_means.reset b;
  Alcotest.(check int) "count reset" 0 (Stats.Batch_means.count b);
  Alcotest.(check int) "batches reset" 0 (Stats.Batch_means.batches b)

let prop_batch_ci_covers_true_mean =
  (* iid uniform noise: the 95% batch-means CI should usually contain the
     true mean; we only require it is positive and not absurdly wide *)
  QCheck.Test.make ~name:"batch-means CI is sane on iid noise" ~count:50
    QCheck.(int_range 1 1000)
    (fun seed ->
      let rng = Rng.create seed in
      let b = Stats.Batch_means.create ~batch_size:20 in
      for _ = 1 to 400 do
        Stats.Batch_means.add b (Rng.float rng)
      done;
      let ci = Stats.Batch_means.ci95 b in
      ci > 0. && ci < 0.2
      && abs_float (Stats.Batch_means.mean b -. 0.5) < 0.15)

let prop_tally_mean_matches_list =
  QCheck.Test.make ~name:"tally mean equals list mean" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let t = Stats.Tally.create () in
      List.iter (Stats.Tally.add t) xs;
      let m = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      abs_float (Stats.Tally.mean t -. m) < 1e-6 *. (1. +. abs_float m))

let prop_tally_mean_within_bounds =
  QCheck.Test.make ~name:"tally mean lies within the sample bounds" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let t = Stats.Tally.create () in
      List.iter (Stats.Tally.add t) xs;
      let lo = List.fold_left Float.min infinity xs
      and hi = List.fold_left Float.max neg_infinity xs in
      let m = Stats.Tally.mean t and eps = 1e-9 *. (1. +. hi) in
      m >= lo -. eps && m <= hi +. eps)

(* ---- HDR log-scaled histogram ------------------------------------- *)

(* The exact sorted-sample quantile with the repo's rank convention
   (Metrics.response_percentile): the order statistic at min (n-1)
   (int (n*q)). *)
let exact_quantile xs q =
  let sorted = List.sort Float.compare xs in
  let n = List.length sorted in
  let idx = Stdlib.min (n - 1) (int_of_float (float_of_int n *. q)) in
  List.nth sorted idx

let hdr_of xs =
  let h = Stats.Hdr.create () in
  List.iter (Stats.Hdr.add h) xs;
  h

(* Positive samples within the default tracked range [2^-20, 2^12). *)
let in_range_samples =
  QCheck.(
    list_of_size
      Gen.(int_range 1 200)
      (map (fun x -> 1e-5 +. (x *. 4000.)) (float_bound_exclusive 1.)))

let test_hdr_basic () =
  let h = Stats.Hdr.create () in
  Alcotest.(check (float 0.)) "empty quantile" 0. (Stats.Hdr.quantile h 0.99);
  List.iter (Stats.Hdr.add h) [ 1.; 2.; 4.; 8. ];
  Alcotest.(check int) "count" 4 (Stats.Hdr.count h);
  Alcotest.(check (float 1e-12)) "total" 15. (Stats.Hdr.total h);
  (* exact powers of two are bucket lower edges; the quantile returns the
     bucket's upper edge, a hair above the sample *)
  let q = Stats.Hdr.quantile h 0.5 in
  Alcotest.(check bool)
    (Printf.sprintf "median edge %.6f just above 4" q)
    true
    (q > 4. && q <= 4. *. (1. +. Stats.Hdr.rel_error));
  Stats.Hdr.reset h;
  Alcotest.(check int) "count after reset" 0 (Stats.Hdr.count h)

let test_hdr_clamps () =
  let h = Stats.Hdr.create () in
  (* below range, zero, nan, negative -> bucket 0; above range -> last *)
  List.iter (Stats.Hdr.add h) [ 1e-30; 0.; Float.nan; -3.; 1e30 ];
  Alcotest.(check int) "count" 5 (Stats.Hdr.count h);
  Alcotest.(check int) "low clamp" 0 (Stats.Hdr.index 1e-30);
  Alcotest.(check int) "neg clamp" 0 (Stats.Hdr.index (-3.));
  let last = Stats.Hdr.index 1e30 in
  Alcotest.(check bool) "high clamp is max index" true
    (last = Stats.Hdr.index 4000. || last > Stats.Hdr.index 4000.);
  (* the quantile stays finite even for clamped-high samples *)
  Alcotest.(check bool) "q finite" true
    (Float.is_finite (Stats.Hdr.quantile h 0.99))

let prop_hdr_differential =
  (* tentpole property: histogram quantiles match the exact sorted-sample
     quantile (same rank convention) within the bucket relative-error
     bound, from above *)
  QCheck.Test.make ~name:"hdr quantile vs exact sample quantile" ~count:300
    in_range_samples (fun xs ->
      let h = hdr_of xs in
      let rel = Stats.Hdr.rel_error in
      List.for_all
        (fun q ->
          let e = exact_quantile xs q in
          let v = Stats.Hdr.quantile h q in
          v >= e && v <= e *. (1. +. rel) *. (1. +. 1e-12))
        [ 0.5; 0.9; 0.95; 0.99; 0.999 ])

let prop_hdr_conservation =
  (* histogram count/total are bit-identical to a Tally fed the same
     observation stream *)
  QCheck.Test.make ~name:"hdr count/total conserve vs tally" ~count:300
    in_range_samples (fun xs ->
      let h = hdr_of xs in
      let t = Stats.Tally.create () in
      List.iter (Stats.Tally.add t) xs;
      Stats.Hdr.count h = Stats.Tally.count t
      && Float.equal (Stats.Hdr.total h) (Stats.Tally.total t))

let prop_hdr_cumulative =
  QCheck.Test.make ~name:"hdr cumulative counts are monotone to count"
    ~count:200 in_range_samples (fun xs ->
      let h = hdr_of xs in
      let cum = Stats.Hdr.cumulative h in
      let rec mono last = function
        | [] -> true
        | (le, c) :: rest ->
            c > last && le > 0. && (rest = [] || c <= Stats.Hdr.count h)
            && mono c rest
      in
      mono 0 cum
      &&
      match List.rev cum with
      | (_, c) :: _ -> c = Stats.Hdr.count h
      | [] -> Stats.Hdr.count h = 0)

let suite =
  [
    Alcotest.test_case "tally basic" `Quick test_tally_basic;
    Alcotest.test_case "tally empty" `Quick test_tally_empty;
    Alcotest.test_case "tally reset" `Quick test_tally_reset;
    Alcotest.test_case "timeseries average" `Quick test_timeseries_average;
    Alcotest.test_case "timeseries window" `Quick test_timeseries_window;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "batch means mean" `Quick test_batch_means_mean;
    Alcotest.test_case "batch means partial batch" `Quick
      test_batch_means_partial_batch_excluded;
    Alcotest.test_case "batch means constant" `Quick
      test_batch_means_constant_signal;
    Alcotest.test_case "batch means reset" `Quick test_batch_means_reset;
    QCheck_alcotest.to_alcotest prop_batch_ci_covers_true_mean;
    QCheck_alcotest.to_alcotest prop_tally_mean_matches_list;
    QCheck_alcotest.to_alcotest prop_tally_mean_within_bounds;
    Alcotest.test_case "hdr basic" `Quick test_hdr_basic;
    Alcotest.test_case "hdr clamps" `Quick test_hdr_clamps;
    QCheck_alcotest.to_alcotest prop_hdr_differential;
    QCheck_alcotest.to_alcotest prop_hdr_conservation;
    QCheck_alcotest.to_alcotest prop_hdr_cumulative;
  ]
