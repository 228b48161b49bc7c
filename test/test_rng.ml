open Desim

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "same stream" true (Rng.float a = Rng.float b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 16 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 16 (fun _ -> Rng.next_int64 b) in
  Alcotest.(check bool) "different streams differ" false (xs = ys)

let test_float_range () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float r in
    if x < 0. || x >= 1. then Alcotest.fail "float out of [0,1)"
  done

let test_exponential_mean () =
  let r = Rng.create 11 in
  let n = 200_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:2.5
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f close to 2.5" mean)
    true
    (abs_float (mean -. 2.5) < 0.05)

let test_exponential_zero_mean () =
  let r = Rng.create 3 in
  Alcotest.(check (float 0.)) "zero mean" 0. (Rng.exponential r ~mean:0.)

let test_int_range_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 10_000 do
    let x = Rng.int_range r ~lo:4 ~hi:12 in
    if x < 4 || x > 12 then Alcotest.fail "int_range out of bounds"
  done

let test_int_range_covers () =
  let r = Rng.create 6 in
  let seen = Array.make 9 false in
  for _ = 1 to 10_000 do
    seen.(Rng.int_range r ~lo:4 ~hi:12 - 4) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_sample_without_replacement () =
  let r = Rng.create 8 in
  for _ = 1 to 500 do
    let s = Rng.sample_without_replacement r ~n:20 ~k:8 in
    Alcotest.(check int) "k elements" 8 (List.length s);
    let sorted = List.sort_uniq Int.compare s in
    Alcotest.(check int) "distinct" 8 (List.length sorted);
    List.iter
      (fun x -> if x < 0 || x >= 20 then Alcotest.fail "out of range")
      s
  done

let test_sample_full () =
  let r = Rng.create 9 in
  let s = Rng.sample_without_replacement r ~n:5 ~k:5 in
  Alcotest.(check (list int))
    "permutation of 0..4" [ 0; 1; 2; 3; 4 ]
    (List.sort Int.compare s)

let test_bool_probability () =
  let r = Rng.create 12 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool r ~p:0.25 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "p=0.25 got %.3f" frac)
    true
    (abs_float (frac -. 0.25) < 0.01)

let test_split_independence () =
  let parent = Rng.create 99 in
  let c1 = Rng.split parent in
  let c2 = Rng.split parent in
  let xs = List.init 16 (fun _ -> Rng.next_int64 c1) in
  let ys = List.init 16 (fun _ -> Rng.next_int64 c2) in
  Alcotest.(check bool) "children differ" false (xs = ys)

(* Literal outputs of the splitmix64 streams, recorded when the state was
   a boxed [int64] and the sampler used a hash table: a change to the
   state's representation or to the sampler must reproduce them bit for
   bit, since every plan and service time of a run is drawn from them. *)
let test_golden_stream () =
  let r = Rng.create 42 in
  Alcotest.(check (list int64))
    "first 8 draws of create 42"
    [
      -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
      885919558081284366L; -353919125003956057L; 4337243929683858115L;
      5152897204343404489L; 2820384354626331986L;
    ]
    (List.init 8 (fun _ -> Rng.next_int64 r));
  let r = Rng.create 42 in
  let child = Rng.split r in
  Alcotest.(check (list int64))
    "split child"
    [ 6168158941143839527L; -3019913106490840865L ]
    (List.init 2 (fun _ -> Rng.next_int64 child));
  Alcotest.(check int64) "parent after split" 2958219263312191191L
    (Rng.next_int64 r);
  let r = Rng.create 42 in
  Alcotest.(check (float 0.)) "float" 0x1.31367e26140c7p-1 (Rng.float r);
  Alcotest.(check int) "int 1000" 595 (Rng.int r 1000);
  Alcotest.(check (float 0.)) "exponential ~mean:2." 0x1.74bbe0bc63d11p-2
    (Rng.exponential r ~mean:2.);
  let r = Rng.create 42 in
  Alcotest.(check (list int))
    "sample ~n:1200 ~k:8"
    [ 670; 162; 582; 83; 1023; 44; 1158; 740 ]
    (Rng.sample_without_replacement r ~n:1200 ~k:8);
  Alcotest.(check (list int))
    "sample ~n:20 ~k:20"
    [ 4; 12; 17; 3; 18; 8; 5; 13; 16; 19; 2; 9; 11; 14; 15; 0; 7; 6; 1; 10 ]
    (Rng.sample_without_replacement r ~n:20 ~k:20);
  Alcotest.(check int64) "draw after the samples" (-892783100617406102L)
    (Rng.next_int64 r)

let prop_uniform_in_range =
  QCheck.Test.make ~name:"uniform stays in range" ~count:500
    QCheck.(pair (float_bound_exclusive 100.) (float_bound_exclusive 100.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let r = Rng.create 1 in
      let x = Rng.uniform r ~lo ~hi in
      x >= lo && (x <= hi))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
    Alcotest.test_case "exponential zero mean" `Quick test_exponential_zero_mean;
    Alcotest.test_case "int_range bounds" `Quick test_int_range_bounds;
    Alcotest.test_case "int_range covers" `Quick test_int_range_covers;
    Alcotest.test_case "sample w/o replacement" `Quick
      test_sample_without_replacement;
    Alcotest.test_case "sample full range" `Quick test_sample_full;
    Alcotest.test_case "bool probability" `Slow test_bool_probability;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "golden stream" `Quick test_golden_stream;
    QCheck_alcotest.to_alcotest prop_uniform_in_range;
  ]
