(* Open-loop arrival process and admission-control spec.

   The closed-loop terminal model caps offered load at NumTerminals; an
   arrival spec replaces the per-terminal fibers with a single rate
   process sampled on its own RNG stream, so millions of users cost one
   pending timer. The spec also carries the host-side admission knobs
   (queue capacity, shed policy, deadline, MPL limiter, retry backoff)
   so one string round-trips through replay artifacts, exactly like
   [Fault_plan]. [zero] (process = [Closed]) is the degenerate spec: the
   machine installs no arrival runtime at all and the legacy terminal
   loop runs untouched. *)

type segment =
  | Hold of { rate : float; duration : float }
  | Ramp of { rate_from : float; rate_to : float; duration : float }
  | Sine of { mean : float; amplitude : float; period : float; duration : float }
  | Spike of { base : float; peak : float; duration : float }

type process = Closed | Qps of float | Profile of segment list
type shed_policy = Reject_newest | Reject_oldest

type t = {
  process : process;
  queue_cap : int;
  shed : shed_policy;
  deadline : float;
  mpl : int;
  retry_base : float;
  retry_cap : float;
}

let zero =
  {
    process = Closed;
    queue_cap = 64;
    shed = Reject_newest;
    deadline = 0.;
    mpl = 0;
    retry_base = 0.1;
    retry_cap = 5.;
  }

let open_loop t =
  match t.process with Closed -> false | Qps _ | Profile _ -> true

(* ------------------------------------------------------------------ *)
(* Rate function                                                       *)

let seg_duration = function
  | Hold { duration; _ }
  | Ramp { duration; _ }
  | Sine { duration; _ }
  | Spike { duration; _ } ->
      duration

(* Instantaneous rate [u] seconds into the segment, clamped >= 0 (a sine
   whose amplitude exceeds its mean bottoms out at zero load). The spike
   decays exponentially from [peak] toward [base] with time constant
   duration/8, so the crowd is essentially gone by segment end. *)
let seg_rate seg u =
  match seg with
  | Hold { rate; _ } -> rate
  | Ramp { rate_from; rate_to; duration } ->
      rate_from +. ((rate_to -. rate_from) *. (u /. duration))
  | Sine { mean; amplitude; period; _ } ->
      Float.max 0. (mean +. (amplitude *. sin (2. *. Float.pi *. u /. period)))
  | Spike { base; peak; duration } ->
      base +. ((peak -. base) *. exp (-.u /. (duration /. 8.)))

let seg_max_rate = function
  | Hold { rate; _ } -> rate
  | Ramp { rate_from; rate_to; _ } -> Float.max rate_from rate_to
  | Sine { mean; amplitude; _ } -> Float.max 0. (mean +. amplitude)
  | Spike { base; peak; _ } -> Float.max base peak

(* Offered rate at absolute time [at]. Profiles start at t = 0 and do not
   wrap: past the last segment the rate is zero (arrivals stop). *)
let rate t ~at =
  match t.process with
  | Closed -> 0.
  | Qps r -> r
  | Profile segs ->
      let rec walk start = function
        | [] -> 0.
        | seg :: rest ->
            let stop = start +. seg_duration seg in
            if at < stop then seg_rate seg (at -. start) else walk stop rest
      in
      if at < 0. then 0. else walk 0. segs

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)

(* Next arrival strictly after [now], or None if the process produces no
   further arrival before [horizon]. Time-varying segments are sampled
   by Lewis-Shedler thinning against the segment's max rate; a proposal
   that crosses a segment boundary restarts at the boundary (valid by
   memorylessness), which makes segment boundaries exact: a zero-rate
   segment contributes no arrivals and costs no draws. Constant-rate
   stretches (qps=, hold:) skip the thinning draw entirely. *)
let next_arrival t rng ~now ~horizon =
  match t.process with
  | Closed -> None
  | Qps r ->
      if r <= 0. then None
      else
        let at = now +. Desim.Rng.exponential rng ~mean:(1. /. r) in
        if at > horizon then None else Some at
  | Profile segs ->
      let rec walk start segs now =
        if now > horizon then None
        else
          match segs with
          | [] -> None
          | seg :: rest ->
              let stop = start +. seg_duration seg in
              if now >= stop then walk stop rest now
              else
                let lam = seg_max_rate seg in
                if lam <= 0. then walk stop rest stop
                else
                  let cand =
                    now +. Desim.Rng.exponential rng ~mean:(1. /. lam)
                  in
                  if cand >= stop then walk stop rest stop
                  else if cand > horizon then None
                  else
                    let accept =
                      match seg with
                      | Hold _ -> true
                      | Ramp _ | Sine _ | Spike _ ->
                          Desim.Rng.float rng < seg_rate seg (cand -. start) /. lam
                    in
                    if accept then Some cand else walk start (seg :: rest) cand
      in
      walk 0. segs now

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

let ( let* ) = Result.bind
let check cond msg = if cond then Ok () else Error msg

(* Same cap as Fault_plan: keeps the codec's "%.17g" exponent-free. *)
let max_time = 1e9
let max_segments = 64
let max_queue_cap = 1_000_000
let finite_in ~lo ~hi v = Float.is_finite v && v >= lo && v <= hi

let validate_segment seg =
  let* () =
    check
      (finite_in ~lo:1e-9 ~hi:max_time (seg_duration seg))
      "arrivals: segment duration must be positive"
  in
  match seg with
  | Hold { rate; _ } ->
      check (finite_in ~lo:0. ~hi:max_time rate) "arrivals: hold rate out of range"
  | Ramp { rate_from; rate_to; _ } ->
      let* () =
        check
          (finite_in ~lo:0. ~hi:max_time rate_from)
          "arrivals: ramp start rate out of range"
      in
      check
        (finite_in ~lo:0. ~hi:max_time rate_to)
        "arrivals: ramp end rate out of range"
  | Sine { mean; amplitude; period; _ } ->
      let* () =
        check
          (finite_in ~lo:0. ~hi:max_time mean)
          "arrivals: sine mean out of range"
      in
      let* () =
        check
          (finite_in ~lo:0. ~hi:max_time amplitude)
          "arrivals: sine amplitude out of range"
      in
      check
        (finite_in ~lo:1e-9 ~hi:max_time period)
        "arrivals: sine period must be positive"
  | Spike { base; peak; _ } ->
      let* () =
        check
          (finite_in ~lo:0. ~hi:max_time base)
          "arrivals: spike base out of range"
      in
      check
        (finite_in ~lo:0. ~hi:max_time peak)
        "arrivals: spike peak out of range"

let validate t =
  let* () =
    match t.process with
    | Closed -> Ok ()
    | Qps r ->
        check
          (finite_in ~lo:1e-9 ~hi:max_time r)
          "arrivals: qps must be positive"
    | Profile segs ->
        let* () = check (segs <> []) "arrivals: profile needs a segment" in
        let* () =
          check
            (List.length segs <= max_segments)
            "arrivals: too many profile segments"
        in
        List.fold_left
          (fun acc seg ->
            let* () = acc in
            validate_segment seg)
          (Ok ()) segs
  in
  let* () =
    check
      (t.queue_cap >= 1 && t.queue_cap <= max_queue_cap)
      "arrivals: cap must be in [1, 1000000]"
  in
  let* () =
    check (finite_in ~lo:0. ~hi:max_time t.deadline)
      "arrivals: deadline out of range"
  in
  let* () = check (t.mpl >= 0) "arrivals: mpl must be >= 0" in
  let* () =
    check
      (finite_in ~lo:1e-9 ~hi:max_time t.retry_base)
      "arrivals: retry-base must be positive"
  in
  check
    (finite_in ~lo:t.retry_base ~hi:max_time t.retry_cap)
    "arrivals: retry-cap must be >= retry-base"

(* ------------------------------------------------------------------ *)
(* Spec codec                                                          *)

let g = Printf.sprintf "%.17g"

let segment_to_string = function
  | Hold { rate; duration } -> Printf.sprintf "hold:%s/%s" (g rate) (g duration)
  | Ramp { rate_from; rate_to; duration } ->
      Printf.sprintf "ramp:%s..%s/%s" (g rate_from) (g rate_to) (g duration)
  | Sine { mean; amplitude; period; duration } ->
      Printf.sprintf "sine:%s~%s/%s/%s" (g mean) (g amplitude) (g period)
        (g duration)
  | Spike { base; peak; duration } ->
      Printf.sprintf "spike:%s^%s/%s" (g base) (g peak) (g duration)

let to_spec t =
  let items = ref [] in
  let add s = items := s :: !items in
  (* added in reverse display order: the last [add] prints first *)
  if not (Float.equal t.retry_cap zero.retry_cap) then
    add ("retry-cap=" ^ g t.retry_cap);
  if not (Float.equal t.retry_base zero.retry_base) then
    add ("retry-base=" ^ g t.retry_base);
  if t.mpl <> zero.mpl then add (Printf.sprintf "mpl=%d" t.mpl);
  if not (Float.equal t.deadline 0.) then add ("deadline=" ^ g t.deadline);
  (match t.shed with
  | Reject_newest -> ()
  | Reject_oldest -> add "shed=oldest");
  if t.queue_cap <> zero.queue_cap then add (Printf.sprintf "cap=%d" t.queue_cap);
  (match t.process with
  | Closed -> ()
  | Qps r -> add ("qps=" ^ g r)
  | Profile segs ->
      (* tail segments as bare items, profile= on the head, so the head
         prints first: profile=s1,s2,s3,... *)
      let rec go = function
        | [] -> ()
        | [ first ] -> add ("profile=" ^ segment_to_string first)
        | seg :: earlier ->
            add (segment_to_string seg);
            go earlier
      in
      go (List.rev segs));
  String.concat "," !items

let parse_float k v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "arrivals: bad number %S for %s" v k)

let parse_int k v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "arrivals: bad integer %S for %s" v k)

let split2 sep v =
  match String.index_opt v sep with
  | None -> None
  | Some i ->
      Some (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))

let parse_segment v =
  let bad () =
    Error
      (Printf.sprintf
         "arrivals: bad segment %S (want hold:R/D, ramp:A..B/D, sine:M~A/P/D \
          or spike:B^P/D)"
         v)
  in
  match split2 ':' v with
  | None -> bad ()
  | Some (kind, body) -> (
      match kind with
      | "hold" -> (
          match split2 '/' body with
          | None -> bad ()
          | Some (r, d) ->
              let* rate = parse_float "hold" r in
              let* duration = parse_float "hold" d in
              Ok (Hold { rate; duration }))
      | "ramp" -> (
          match split2 '/' body with
          | None -> bad ()
          | Some (rates, d) -> (
              (* A..B: cut at the ".." separator *)
              let n = String.length rates in
              let rec dotdot i =
                if i + 1 >= n then None
                else if rates.[i] = '.' && rates.[i + 1] = '.' then Some i
                else dotdot (i + 1)
              in
              match dotdot 0 with
              | None -> bad ()
              | Some i ->
                  let a = String.sub rates 0 i in
                  let b = String.sub rates (i + 2) (n - i - 2) in
                  let* rate_from = parse_float "ramp" a in
                  let* rate_to = parse_float "ramp" b in
                  let* duration = parse_float "ramp" d in
                  Ok (Ramp { rate_from; rate_to; duration })))
      | "sine" -> (
          match split2 '~' body with
          | None -> bad ()
          | Some (m, rest) -> (
              match split2 '/' rest with
              | None -> bad ()
              | Some (a, rest) -> (
                  match split2 '/' rest with
                  | None -> bad ()
                  | Some (p, d) ->
                      let* mean = parse_float "sine" m in
                      let* amplitude = parse_float "sine" a in
                      let* period = parse_float "sine" p in
                      let* duration = parse_float "sine" d in
                      Ok (Sine { mean; amplitude; period; duration }))))
      | "spike" -> (
          match split2 '^' body with
          | None -> bad ()
          | Some (b, rest) -> (
              match split2 '/' rest with
              | None -> bad ()
              | Some (p, d) ->
                  let* base = parse_float "spike" b in
                  let* peak = parse_float "spike" p in
                  let* duration = parse_float "spike" d in
                  Ok (Spike { base; peak; duration })))
      | _ -> bad ())

let of_spec s =
  let items =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  (* (spec, profile segments in reverse, profile seen) accumulator: a bare
     item (no '=') is a continuation segment of an open profile=, so the
     ISSUE-style "profile=ramp:0..50/60,hold:50/120" parses whole. *)
  let* t, segs_rev, in_profile =
    List.fold_left
      (fun acc item ->
        let* t, segs_rev, in_profile = acc in
        match String.index_opt item '=' with
        | None ->
            if in_profile then
              let* seg = parse_segment item in
              Ok (t, seg :: segs_rev, true)
            else
              Error
                (Printf.sprintf
                   "arrivals: bad item %S (want key=value, or a profile \
                    segment after profile=)"
                   item)
        | Some i -> (
            let k = String.trim (String.sub item 0 i) in
            let v =
              String.trim (String.sub item (i + 1) (String.length item - i - 1))
            in
            match k with
            | "qps" ->
                let* r = parse_float k v in
                if in_profile then
                  Error "arrivals: qps= and profile= are exclusive"
                else Ok ({ t with process = Qps r }, segs_rev, false)
            | "profile" -> (
                let* seg = parse_segment v in
                match t.process with
                | Qps _ -> Error "arrivals: qps= and profile= are exclusive"
                | Closed | Profile _ -> Ok (t, seg :: segs_rev, true))
            | "cap" ->
                let* n = parse_int k v in
                Ok ({ t with queue_cap = n }, segs_rev, in_profile)
            | "shed" -> (
                match v with
                | "newest" -> Ok ({ t with shed = Reject_newest }, segs_rev, in_profile)
                | "oldest" -> Ok ({ t with shed = Reject_oldest }, segs_rev, in_profile)
                | _ ->
                    Error
                      (Printf.sprintf
                         "arrivals: shed must be newest or oldest, not %S" v))
            | "deadline" ->
                let* f = parse_float k v in
                Ok ({ t with deadline = f }, segs_rev, in_profile)
            | "mpl" ->
                let* n = parse_int k v in
                Ok ({ t with mpl = n }, segs_rev, in_profile)
            | "retry-base" ->
                let* f = parse_float k v in
                Ok ({ t with retry_base = f }, segs_rev, in_profile)
            | "retry-cap" ->
                let* f = parse_float k v in
                Ok ({ t with retry_cap = f }, segs_rev, in_profile)
            | _ -> Error (Printf.sprintf "arrivals: unknown key %S" k)))
      (Ok (zero, [], false))
      items
  in
  let t =
    if in_profile then { t with process = Profile (List.rev segs_rev) } else t
  in
  let* () =
    match t.process with
    | Closed ->
        (* admission knobs without a rate process have nothing to govern *)
        check (to_spec t = "") "arrivals: admission keys need qps= or profile="
    | Qps _ | Profile _ -> Ok ()
  in
  let* () = validate t in
  Ok t

let pp fmt t =
  let s = to_spec t in
  Format.pp_print_string fmt (if s = "" then "(closed loop)" else s)
