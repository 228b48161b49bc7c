(* Open-loop arrival subsystem: spec codec round-trips, Poisson and
   profile sampling determinism, segment-boundary exactness, admission
   control (shed policies, deadline expiry, MPL limiter) with the
   offered = admitted + shed + expired + still-queued conservation
   identity, closed-loop equivalence, metastable recovery after a flash
   crowd, and a seeded random-spec sweep as the capstone. *)

open Ddbm_model

(* --- spec codec ----------------------------------------------------- *)

let test_codec_roundtrip_handpicked () =
  let specs =
    [
      "";
      "qps=50";
      "qps=5000,cap=128,mpl=32";
      "qps=20,cap=4,shed=oldest,deadline=0.5,mpl=8,retry-base=0.2,retry-cap=3";
      "profile=hold:40/5";
      "profile=ramp:0..50000/60,hold:50000/120";
      "profile=sine:60~80/3/8,spike:20^300/10,mpl=4";
      "profile=hold:0/5,ramp:10..0/2,cap=2";
    ]
  in
  List.iter
    (fun spec ->
      match Arrival.of_spec spec with
      | Error msg -> Alcotest.fail (spec ^ ": " ^ msg)
      | Ok a -> (
          let printed = Arrival.to_spec a in
          match Arrival.of_spec printed with
          | Error msg -> Alcotest.fail (printed ^ ": " ^ msg)
          | Ok b ->
              Alcotest.(check bool)
                (Printf.sprintf "%S round-trips (via %S)" spec printed)
                true (a = b)))
    specs;
  Alcotest.(check string) "zero prints empty" "" (Arrival.to_spec Arrival.zero)

let test_codec_rejects_invalid () =
  List.iter
    (fun spec ->
      match Arrival.of_spec spec with
      | Ok _ -> Alcotest.fail ("accepted " ^ spec)
      | Error _ -> ())
    [
      "qps=0";
      "qps=-5";
      "qps=x";
      "wibble=1";
      "qps=10,profile=hold:1/1";
      (* admission keys without a rate process make no sense *)
      "cap=4";
      "shed=oldest";
      "mpl=8";
      "profile=hold:10/-1";
      "profile=ramp:10/5";
      "profile=";
      "qps=10,shed=sideways";
      "qps=10,retry-base=2,retry-cap=1";
    ]

(* A single-value key given twice is an error, not the last value
   silently winning. *)
let test_codec_rejects_repeated_key () =
  Alcotest.(check (result reject string))
    "cap twice" (Error "arrivals: repeated key \"cap\"")
    (Result.map ignore (Arrival.of_spec "qps=5,cap=4,cap=8"))

(* A four-segment profile with every admission key off its default: the
   printed form is a file format, so it is pinned byte for byte. *)
let test_codec_pinned () =
  let a =
    {
      Arrival.process =
        Arrival.Profile
          [
            Arrival.Hold { rate = 40.; duration = 5. };
            Arrival.Ramp { rate_from = 0.; rate_to = 50.5; duration = 2.5 };
            Arrival.Sine { mean = 60.; amplitude = 80.; period = 3.; duration = 8. };
            Arrival.Spike { base = 20.; peak = 300.; duration = 0.1 };
          ];
      queue_cap = 128;
      shed = Arrival.Reject_oldest;
      deadline = 0.5;
      mpl = 32;
      retry_base = 0.2;
      retry_cap = 3.;
    }
  in
  Alcotest.(check string) "spec prints"
    "profile=hold:40/5,ramp:0..50.5/2.5,sine:60~80/3/8,\
     spike:20^300/0.10000000000000001,cap=128,shed=oldest,deadline=0.5,\
     mpl=32,retry-base=0.20000000000000001,retry-cap=3"
    (Arrival.to_spec a)

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"arrival spec codec round-trips" ~count:200
    (QCheck.make Ddbm_check.Config_gen.gen_arrivals ~print:Arrival.to_spec)
    (fun a ->
      match Arrival.of_spec (Arrival.to_spec a) with
      | Ok b -> a = b
      | Error msg -> QCheck.Test.fail_report msg)

(* --- sampling determinism and boundary exactness -------------------- *)

let sample_all spec ~seed ~horizon =
  let a =
    match Arrival.of_spec spec with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let rng = Desim.Rng.create seed in
  let rec go now acc =
    match Arrival.next_arrival a rng ~now ~horizon with
    | None -> List.rev acc
    | Some at -> go at (at :: acc)
  in
  go 0. []

let test_poisson_deterministic_per_seed () =
  let xs = sample_all "qps=25" ~seed:7 ~horizon:40. in
  let ys = sample_all "qps=25" ~seed:7 ~horizon:40. in
  let zs = sample_all "qps=25" ~seed:8 ~horizon:40. in
  Alcotest.(check bool) "draws exist" true (List.length xs > 100);
  Alcotest.(check (list (float 0.))) "same seed, same arrivals" xs ys;
  Alcotest.(check bool) "different seed, different arrivals" true (xs <> zs);
  (* loose rate sanity: ~25/s over 40 s *)
  let n = float_of_int (List.length xs) in
  Alcotest.(check bool)
    (Printf.sprintf "count %.0f near 1000" n)
    true
    (n > 800. && n < 1200.);
  List.iter2
    (fun a b ->
      if b <= a then
        Alcotest.failf "arrivals not strictly increasing: %.17g then %.17g" a b)
    (List.filteri (fun i _ -> i < List.length xs - 1) xs)
    (List.tl xs)

let test_profile_boundaries_exact () =
  (* a dead middle segment: no arrival may land in (5, 10], and the
     profile ends at 15 — no arrival past it even with a larger horizon *)
  let xs = sample_all "profile=hold:40/5,hold:0/5,hold:40/5" ~seed:11 ~horizon:100. in
  Alcotest.(check bool) "both live segments produced arrivals" true
    (List.exists (fun t -> t <= 5.) xs && List.exists (fun t -> t > 10.) xs);
  List.iter
    (fun t ->
      if t > 5. && t <= 10. then
        Alcotest.failf "arrival %.17g inside the zero-rate segment" t;
      if t > 15. then Alcotest.failf "arrival %.17g past the profile end" t)
    xs

let test_rate_function () =
  let a =
    match Arrival.of_spec "profile=ramp:0..100/10,hold:20/5" with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (float 1e-9)) "ramp start" 0. (Arrival.rate a ~at:0.);
  Alcotest.(check (float 1e-9)) "ramp midpoint" 50. (Arrival.rate a ~at:5.);
  Alcotest.(check (float 1e-9)) "hold segment" 20. (Arrival.rate a ~at:12.);
  Alcotest.(check (float 1e-9)) "past the end" 0. (Arrival.rate a ~at:16.);
  Alcotest.(check (float 1e-9)) "qps is flat" 7.
    (Arrival.rate
       (match Arrival.of_spec "qps=7" with Ok a -> a | Error m -> Alcotest.fail m)
       ~at:123.)

(* --- end-to-end machine runs ---------------------------------------- *)

let open_params ?(algorithm = Params.Twopl) ?(seed = 42) ?(warmup = 2.)
    ?(measure = 15.) spec =
  let arrivals =
    match Arrival.of_spec spec with
    | Ok a -> a
    | Error msg -> Alcotest.fail msg
  in
  let d = Params.default in
  {
    d with
    Params.database =
      {
        d.Params.database with
        Params.num_proc_nodes = 2;
        partitioning_degree = 2;
      };
    workload =
      { d.Params.workload with Params.num_terminals = 8; think_time = 0. };
    cc = { d.Params.cc with Params.algorithm };
    run = { d.Params.run with Params.seed; warmup; measure };
    arrivals;
  }

let check_conforming name (r : Ddbm.Sim_result.t) =
  match Ddbm_check.Invariants.check r with
  | [] -> ()
  | errs -> Alcotest.fail (name ^ ": " ^ String.concat "; " errs)

let conservation name (r : Ddbm.Sim_result.t) =
  check_conforming name r;
  Alcotest.(check int)
    (name ^ ": offered = admitted + shed + expired + still_queued")
    r.Ddbm.Sim_result.offered
    (r.Ddbm.Sim_result.admitted + r.Ddbm.Sim_result.shed
   + r.Ddbm.Sim_result.expired + r.Ddbm.Sim_result.still_queued)

let test_shed_newest_conserves_at_2x_capacity () =
  (* mpl 4 and a 4-deep queue against ~30 offered/s: far beyond capacity,
     most arrivals must be shed, and the books must still balance *)
  let r = Ddbm.Machine.run (open_params "qps=30,cap=4,mpl=4") in
  conservation "reject-newest" r;
  Alcotest.(check bool) "commits happened" true (r.Ddbm.Sim_result.commits > 0);
  Alcotest.(check bool) "overload shed arrivals" true
    (r.Ddbm.Sim_result.shed > r.Ddbm.Sim_result.admitted / 2);
  Alcotest.(check bool) "queue depth bounded by cap" true
    (r.Ddbm.Sim_result.queue_depth_max <= 4);
  Alcotest.(check bool) "mean_active bounded by mpl" true
    (r.Ddbm.Sim_result.mean_active <= 4. +. 1e-6)

let test_shed_oldest_conserves_at_2x_capacity () =
  let r = Ddbm.Machine.run (open_params "qps=30,cap=4,mpl=4,shed=oldest") in
  conservation "reject-oldest" r;
  Alcotest.(check bool) "overload shed arrivals" true
    (r.Ddbm.Sim_result.shed > 0);
  Alcotest.(check bool) "queue depth bounded by cap" true
    (r.Ddbm.Sim_result.queue_depth_max <= 4)

let test_deadline_expires_queued_arrivals () =
  let r = Ddbm.Machine.run (open_params "qps=30,cap=16,mpl=1,deadline=0.5") in
  conservation "deadline" r;
  Alcotest.(check bool) "stale arrivals expired" true
    (r.Ddbm.Sim_result.expired > 0)

let test_unlimited_mpl_admits_everything () =
  (* without an MPL gate every arrival dispatches immediately: the queue
     never forms and nothing is shed *)
  let r = Ddbm.Machine.run (open_params ~measure:10. "qps=5") in
  conservation "mpl=0" r;
  Alcotest.(check int) "admitted = offered" r.Ddbm.Sim_result.offered
    r.Ddbm.Sim_result.admitted;
  Alcotest.(check int) "nothing shed" 0 r.Ddbm.Sim_result.shed;
  Alcotest.(check int) "nothing queued" 0 r.Ddbm.Sim_result.queue_depth_max

let test_open_loop_deterministic () =
  let params = open_params "profile=spike:5^120/4,hold:10/30,cap=8,mpl=6" in
  let a = Ddbm.Machine.run params in
  let b = Ddbm.Machine.run params in
  Alcotest.(check bool) "same seed + same spec = identical results" true
    (Ddbm.Sim_result.equal a b);
  conservation "determinism run" a

let test_open_loop_serializable () =
  let params = open_params ~algorithm:Params.Opt "qps=25,cap=8,mpl=8" in
  let m = Ddbm.Machine.create params in
  let audit = Ddbm.Machine.enable_audit m in
  let r = Ddbm.Machine.execute m in
  (match Ddbm.Audit.check audit with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("audit: " ^ msg));
  conservation "audited OPT overload" r

let test_metastable_recovery_after_flash_crowd () =
  (* a flash crowd hammers the machine for a few seconds, then traffic
     settles at a trickle. Measuring after the crowd: the queue must have
     drained (no metastable backlog) and goodput must track the offered
     trickle again. *)
  let r =
    Ddbm.Machine.run
      (open_params ~warmup:20. ~measure:28.
         "profile=spike:1^150/10,hold:1/50,cap=32,mpl=8")
  in
  conservation "flash crowd" r;
  Alcotest.(check bool) "the crowd overloaded the machine" true
    (r.Ddbm.Sim_result.shed > 0);
  Alcotest.(check bool) "queue drained after the crowd" true
    (r.Ddbm.Sim_result.still_queued <= 2);
  Alcotest.(check bool)
    (Printf.sprintf "goodput recovered to the offered trickle (tput %.3f)"
       r.Ddbm.Sim_result.throughput)
    true
    (r.Ddbm.Sim_result.throughput > 0.5 && r.Ddbm.Sim_result.throughput < 3.);
  (* queue stats are windowed: the measurement window opens with the
     crowd's residual backlog still draining, so the max reflects that
     backlog — but it must only shrink, never climb back toward the cap *)
  Alcotest.(check bool)
    (Printf.sprintf "post-crowd queue only drains (max %d, still %d)"
       r.Ddbm.Sim_result.queue_depth_max r.Ddbm.Sim_result.still_queued)
    true
    (r.Ddbm.Sim_result.queue_depth_max <= 24)

(* --- closed-loop equivalence ---------------------------------------- *)

let test_closed_loop_untouched () =
  (* the empty spec is the degenerate closed loop: no arrival runtime is
     installed and the overload counters must all read zero *)
  (match Arrival.of_spec "" with
  | Ok a -> Alcotest.(check bool) "of_spec \"\" is zero" true (a = Arrival.zero)
  | Error msg -> Alcotest.fail msg);
  let d = Params.default in
  let params =
    {
      d with
      Params.database =
        { d.Params.database with Params.num_proc_nodes = 2; partitioning_degree = 2 };
      workload =
        { d.Params.workload with Params.num_terminals = 8; think_time = 1. };
      run = { d.Params.run with Params.warmup = 2.; measure = 10. };
    }
  in
  let r = Ddbm.Machine.run params in
  check_conforming "closed loop" r;
  Alcotest.(check int) "offered = 0" 0 r.Ddbm.Sim_result.offered;
  Alcotest.(check int) "admitted = 0" 0 r.Ddbm.Sim_result.admitted;
  Alcotest.(check int) "shed = 0" 0 r.Ddbm.Sim_result.shed;
  Alcotest.(check int) "expired = 0" 0 r.Ddbm.Sim_result.expired;
  Alcotest.(check int) "still_queued = 0" 0 r.Ddbm.Sim_result.still_queued;
  Alcotest.(check int) "queue_depth_max = 0" 0 r.Ddbm.Sim_result.queue_depth_max;
  Alcotest.(check (float 0.)) "queue_depth_mean = 0" 0.
    r.Ddbm.Sim_result.queue_depth_mean

let test_validate_rejects_fresh_restart_with_open_loop () =
  let p = open_params "qps=10" in
  let p =
    { p with Params.run = { p.Params.run with Params.fresh_restart_plan = true } }
  in
  match Params.validate p with
  | Ok () -> Alcotest.fail "accepted fresh_restart_plan with open-loop arrivals"
  | Error _ -> ()

(* --- result plumbing ------------------------------------------------- *)

let test_diff_detects_overload_mismatch () =
  let r = Ddbm.Machine.run (open_params ~measure:8. "qps=20,cap=4,mpl=4") in
  let mentions field diffs =
    List.exists (fun line -> Astring_contains.contains line field) diffs
  in
  List.iter
    (fun (field, doctor) ->
      let diffs = Ddbm.Sim_result.diff r (doctor r) in
      Alcotest.(check bool) ("doctored " ^ field ^ " detected") true
        (diffs <> [] && mentions field diffs))
    [
      ("offered", fun r -> { r with Ddbm.Sim_result.offered = r.Ddbm.Sim_result.offered + 1 });
      ("shed", fun r -> { r with Ddbm.Sim_result.shed = r.Ddbm.Sim_result.shed - 1 });
      ("expired", fun r -> { r with Ddbm.Sim_result.expired = 99 });
      ("still_queued", fun r -> { r with Ddbm.Sim_result.still_queued = 7 });
      ("queue_depth_max", fun r -> { r with Ddbm.Sim_result.queue_depth_max = 99 });
      ( "queue_depth_mean",
        fun r -> { r with Ddbm.Sim_result.queue_depth_mean = 1e9 } );
    ];
  Alcotest.(check bool) "undoctored result is equal to itself" true
    (Ddbm.Sim_result.equal r r)

let test_pp_and_csv_carry_overload_fields () =
  let open_r = Ddbm.Machine.run (open_params ~measure:8. "qps=20,cap=4,mpl=4") in
  let closed_r = Ddbm.Machine.run (open_params ~measure:8. "") in
  let render r = Format.asprintf "%a" Ddbm.Sim_result.pp r in
  Alcotest.(check bool) "open-loop pp has an overload section" true
    (Astring_contains.contains (render open_r) "overload:");
  Alcotest.(check bool) "closed-loop pp has none" false
    (Astring_contains.contains (render closed_r) "overload:");
  (* the CSV row must stay aligned with the header *)
  let cols s = List.length (String.split_on_char ',' s) in
  Alcotest.(check int) "csv row width matches header"
    (cols Ddbm.Sim_result.csv_header)
    (cols (Ddbm.Sim_result.to_csv_row open_r))

(* --- capstone: seeded random-spec sweep ------------------------------ *)

let sweep_count () =
  match Sys.getenv_opt "DDBM_ARRIVAL_SWEEP" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 50)
  | None -> 50

(* Random open-loop specs (the conformance generator's distribution:
   constant rates and multi-segment profiles, flash crowds, tiny queues
   against 2x-plus overload) each run end-to-end: serializability audit,
   conservation, bounded queue, bounded population. Alternates 2PL and
   OPT so both blocking and restart regimes face every overload shape. *)
let test_random_spec_sweep () =
  let st = Random.State.make [| 0xA881 |] (* lint: allow ambient *) in
  let rec draw_open () =
    let a = QCheck.Gen.generate1 ~rand:st Ddbm_check.Config_gen.gen_arrivals in
    if Arrival.open_loop a then a else draw_open ()
  in
  let crafted =
    (* always include the canonical 2x-capacity overload and a flash
       crowd, whatever the random draws produce *)
    [ "qps=40,cap=4,mpl=4"; "profile=spike:5^200/5,hold:5/10,cap=8,mpl=8" ]
    |> List.map (fun s ->
           match Arrival.of_spec s with
           | Ok a -> a
           | Error msg -> Alcotest.fail msg)
  in
  let n = sweep_count () in
  let specs =
    crafted @ List.init (Stdlib.max 0 (n - List.length crafted)) (fun _ -> draw_open ())
  in
  List.iteri
    (fun i arrivals ->
      let spec = Arrival.to_spec arrivals in
      let algorithm = if i mod 2 = 0 then Params.Twopl else Params.Opt in
      let params =
        { (open_params ~algorithm ~seed:(1000 + i) ~warmup:1. ~measure:5. "qps=1")
          with Params.arrivals = arrivals }
      in
      let m = Ddbm.Machine.create params in
      let audit = Ddbm.Machine.enable_audit m in
      let r = Ddbm.Machine.execute m in
      (match Ddbm.Audit.check audit with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "spec %S: audit: %s" spec msg);
      conservation (Printf.sprintf "spec %S" spec) r;
      if r.Ddbm.Sim_result.queue_depth_max > arrivals.Arrival.queue_cap then
        Alcotest.failf "spec %S: queue_depth_max %d beyond cap %d" spec
          r.Ddbm.Sim_result.queue_depth_max arrivals.Arrival.queue_cap;
      if
        arrivals.Arrival.mpl > 0
        && r.Ddbm.Sim_result.mean_active > float_of_int arrivals.Arrival.mpl +. 1e-6
      then
        Alcotest.failf "spec %S: mean_active %.3f beyond mpl %d" spec
          r.Ddbm.Sim_result.mean_active arrivals.Arrival.mpl)
    specs

let suite =
  [
    Alcotest.test_case "codec round-trips handpicked specs" `Quick
      test_codec_roundtrip_handpicked;
    Alcotest.test_case "codec rejects invalid specs" `Quick
      test_codec_rejects_invalid;
    Alcotest.test_case "codec rejects a repeated key" `Quick
      test_codec_rejects_repeated_key;
    Alcotest.test_case "codec prints as pinned" `Quick test_codec_pinned;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 0xA117 |] (* lint: allow ambient *))
      prop_spec_roundtrip;
    Alcotest.test_case "poisson arrivals deterministic per seed" `Quick
      test_poisson_deterministic_per_seed;
    Alcotest.test_case "profile segment boundaries exact" `Quick
      test_profile_boundaries_exact;
    Alcotest.test_case "rate function" `Quick test_rate_function;
    Alcotest.test_case "reject-newest conserves at 2x capacity" `Slow
      test_shed_newest_conserves_at_2x_capacity;
    Alcotest.test_case "reject-oldest conserves at 2x capacity" `Slow
      test_shed_oldest_conserves_at_2x_capacity;
    Alcotest.test_case "deadline expires queued arrivals" `Slow
      test_deadline_expires_queued_arrivals;
    Alcotest.test_case "unlimited mpl admits everything" `Slow
      test_unlimited_mpl_admits_everything;
    Alcotest.test_case "open loop deterministic per seed" `Slow
      test_open_loop_deterministic;
    Alcotest.test_case "open-loop overload stays serializable" `Slow
      test_open_loop_serializable;
    Alcotest.test_case "metastable recovery after a flash crowd" `Slow
      test_metastable_recovery_after_flash_crowd;
    Alcotest.test_case "closed loop pays and records nothing" `Slow
      test_closed_loop_untouched;
    Alcotest.test_case "fresh restart plan rejected with open loop" `Quick
      test_validate_rejects_fresh_restart_with_open_loop;
    Alcotest.test_case "diff detects doctored overload counters" `Slow
      test_diff_detects_overload_mismatch;
    Alcotest.test_case "pp and csv carry the overload fields" `Slow
      test_pp_and_csv_carry_overload_fields;
    Alcotest.test_case "random arrival-spec sweep" `Slow test_random_spec_sweep;
  ]
