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

open Spec

let ( let* ) = Result.bind
let max_segments = 64
let max_queue_cap = 1_000_000

let segment_checks seg =
  let rate what r =
    (finite_in ~lo:0. ~hi:max_time r, "arrivals: " ^ what ^ " out of range")
  in
  ( finite_in ~lo:1e-9 ~hi:max_time (seg_duration seg),
    "arrivals: segment duration must be positive" )
  ::
  (match seg with
  | Hold { rate = r; _ } -> [ rate "hold rate" r ]
  | Ramp { rate_from; rate_to; _ } ->
      [ rate "ramp start rate" rate_from; rate "ramp end rate" rate_to ]
  | Sine { mean; amplitude; period; _ } ->
      [
        rate "sine mean" mean;
        rate "sine amplitude" amplitude;
        ( finite_in ~lo:1e-9 ~hi:max_time period,
          "arrivals: sine period must be positive" );
      ]
  | Spike { base; peak; _ } -> [ rate "spike base" base; rate "spike peak" peak ])

(* every check, in reporting order: the rate process first *)
let validate t =
  checks
    ((match t.process with
     | Closed -> []
     | Qps r ->
         [ (finite_in ~lo:1e-9 ~hi:max_time r, "arrivals: qps must be positive") ]
     | Profile segs ->
         (segs <> [], "arrivals: profile needs a segment")
         :: ( List.length segs <= max_segments,
              "arrivals: too many profile segments" )
         :: List.concat_map segment_checks segs)
    @ [
        ( t.queue_cap >= 1 && t.queue_cap <= max_queue_cap,
          "arrivals: cap must be in [1, 1000000]" );
        ( finite_in ~lo:0. ~hi:max_time t.deadline,
          "arrivals: deadline out of range" );
        (t.mpl >= 0, "arrivals: mpl must be >= 0");
        ( finite_in ~lo:1e-9 ~hi:max_time t.retry_base,
          "arrivals: retry-base must be positive" );
        ( finite_in ~lo:t.retry_base ~hi:max_time t.retry_cap,
          "arrivals: retry-cap must be >= retry-base" );
      ])

(* ------------------------------------------------------------------ *)
(* Spec codec                                                          *)

(* A segment prints as KIND:x0<s1>x1<s2>..., its numbers joined by the
   separators of its kind. *)
let segment_kinds =
  [
    ("hold", [ "/" ], fun x -> Hold { rate = x.(0); duration = x.(1) });
    ( "ramp",
      [ ".."; "/" ],
      fun x -> Ramp { rate_from = x.(0); rate_to = x.(1); duration = x.(2) } );
    ( "sine",
      [ "~"; "/"; "/" ],
      fun x ->
        Sine { mean = x.(0); amplitude = x.(1); period = x.(2); duration = x.(3) }
    );
    ( "spike",
      [ "^"; "/" ],
      fun x -> Spike { base = x.(0); peak = x.(1); duration = x.(2) } );
  ]

let segment_to_string seg =
  let kind, xs =
    match seg with
    | Hold { rate; duration } -> ("hold", [ rate; duration ])
    | Ramp { rate_from; rate_to; duration } ->
        ("ramp", [ rate_from; rate_to; duration ])
    | Sine { mean; amplitude; period; duration } ->
        ("sine", [ mean; amplitude; period; duration ])
    | Spike { base; peak; duration } -> ("spike", [ base; peak; duration ])
  in
  let _, seps, _ = List.find (fun (k, _, _) -> k = kind) segment_kinds in
  kind ^ ":"
  ^ String.concat "" (List.map2 (fun sep x -> sep ^ print Float x) ("" :: seps) xs)

let segment_of_string v =
  let ( let* ) = Option.bind in
  let rec numbers body = function
    | [] -> Option.map (fun x -> [ x ]) (float_of_string_opt body)
    | sep :: seps ->
        let* x, rest = cut sep body in
        let* x = float_of_string_opt x in
        let* xs = numbers rest seps in
        Some (x :: xs)
  in
  let segment =
    let* kind, body = cut ":" v in
    let* _, seps, make = List.find_opt (fun (k, _, _) -> k = kind) segment_kinds in
    let* xs = numbers body seps in
    Some (make (Array.of_list xs))
  in
  Option.to_result segment
    ~none:
      (Printf.sprintf
         "arrivals: bad segment %S (want hold:R/D, ramp:A..B/D, sine:M~A/P/D \
          or spike:B^P/D)"
         v)

let exclusive () = raise (Reject "arrivals: qps= and profile= are exclusive")

(* in printing order; at most one of qps and profile is set *)
let keys =
  [
    many "qps" Float
      (fun t -> match t.process with Qps r -> [ r ] | Closed | Profile _ -> [])
      (fun t r ->
        match t.process with
        | Profile _ -> exclusive ()
        | Closed | Qps _ -> { t with process = Qps r });
    many ~bare:true "profile"
      (Nested (segment_to_string, segment_of_string))
      (fun t -> match t.process with Profile segs -> segs | Closed | Qps _ -> [])
      (fun t seg ->
        match t.process with
        | Qps _ -> exclusive ()
        | Closed -> { t with process = Profile [ seg ] }
        | Profile segs -> { t with process = Profile (segs @ [ seg ]) });
    one "cap" Int (fun t -> t.queue_cap)
      (fun t queue_cap -> { t with queue_cap });
    one "shed"
      (Named
         ( (function Reject_newest -> "newest" | Reject_oldest -> "oldest"),
           function
           | "newest" -> Some Reject_newest
           | "oldest" -> Some Reject_oldest
           | _ -> None ))
      (fun t -> t.shed)
      (fun t shed -> { t with shed });
    one "deadline" Float (fun t -> t.deadline)
      (fun t deadline -> { t with deadline });
    one "mpl" Int (fun t -> t.mpl) (fun t mpl -> { t with mpl });
    one "retry-base" Float (fun t -> t.retry_base)
      (fun t retry_base -> { t with retry_base });
    one "retry-cap" Float (fun t -> t.retry_cap)
      (fun t retry_cap -> { t with retry_cap });
  ]

let to_spec t = to_items keys ~zero t

let of_spec s =
  let* t = of_items ~prefix:"arrivals:" keys ~zero s in
  let* () =
    match t.process with
    | Closed ->
        (* admission knobs without a rate process have nothing to govern *)
        checks
          [ (to_spec t = "", "arrivals: admission keys need qps= or profile=") ]
    | Qps _ | Profile _ -> Ok ()
  in
  let* () = validate t in
  Ok t

let pp fmt t =
  let s = to_spec t in
  Format.pp_print_string fmt (if s = "" then "(closed loop)" else s)
