type crash = { target : Ids.node_ref; at : float; duration : float }

type t = {
  crashes : crash list;
  crash_rate : float;
  mean_repair : float;
  msg_loss : float;
  msg_dup : float;
  msg_delay : float;
  recrash : float;
  torn_tail : float;
  timeout : float;
  timeout_cap : float;
  timeout_jitter : float;
  max_retries : int;
  fault_seed : int;
  chaos : string list;
}

let zero =
  {
    crashes = [];
    crash_rate = 0.;
    mean_repair = 1.;
    msg_loss = 0.;
    msg_dup = 0.;
    msg_delay = 0.;
    recrash = 0.;
    torn_tail = 0.;
    timeout = 1.;
    timeout_cap = 8.;
    timeout_jitter = 0.;
    max_retries = 4;
    fault_seed = 0;
    chaos = [];
  }

let active t =
  t.crashes <> [] || t.crash_rate > 0. || t.msg_loss > 0. || t.msg_dup > 0.
  || t.msg_delay > 0. || t.recrash > 0. || t.torn_tail > 0.

let is_zero t = (not (active t)) && t.chaos = []

(* every chaos switch the CC layer implements *)
let chaos_names = [ "broken-lock-conversion" ]
let broken_lock_conversion t = List.mem "broken-lock-conversion" t.chaos

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

open Spec

let ( let* ) = Result.bind

(* every check, in reporting order: crashes first *)
let validate ~num_proc_nodes t =
  let crash c =
    [
      (match c.target with
      | Ids.Host -> (true, "")
      | Ids.Proc i ->
          ( i >= 0 && i < num_proc_nodes,
            "faults: crash target proc " ^ string_of_int i ^ " out of range" ));
      (finite_in ~lo:0. ~hi:max_time c.at, "faults: crash time out of range");
      ( finite_in ~lo:0. ~hi:max_time c.duration && c.duration > 0.,
        "faults: crash duration must be positive" );
    ]
  in
  checks
    (List.concat_map crash t.crashes
    @ [
        ( finite_in ~lo:0. ~hi:max_time t.crash_rate,
          "faults: crash-rate out of range" );
        ( (Float.equal t.crash_rate 0. && Float.equal t.recrash 0.)
          || finite_in ~lo:1e-9 ~hi:max_time t.mean_repair,
          "faults: mttr must be positive when crash-rate or recrash > 0" );
        ( finite_in ~lo:0. ~hi:1. t.msg_loss && t.msg_loss < 1.,
          "faults: loss must be in [0, 1)" );
        (finite_in ~lo:0. ~hi:1. t.msg_dup, "faults: dup must be in [0, 1]");
        (finite_in ~lo:0. ~hi:max_time t.msg_delay, "faults: delay out of range");
        (finite_in ~lo:0. ~hi:1. t.recrash, "faults: recrash must be in [0, 1]");
        ( finite_in ~lo:0. ~hi:1. t.torn_tail,
          "faults: torn-tail must be in [0, 1]" );
        ( finite_in ~lo:1e-9 ~hi:max_time t.timeout,
          "faults: timeout must be positive" );
        ( finite_in ~lo:t.timeout ~hi:max_time t.timeout_cap,
          "faults: timeout-cap must be >= timeout" );
        ( finite_in ~lo:0. ~hi:1. t.timeout_jitter,
          "faults: jitter must be in [0, 1]" );
        (t.max_retries >= 1, "faults: retries must be >= 1");
      ]
    @ List.map
        (fun name ->
          ( List.mem name chaos_names,
            Printf.sprintf "faults: unknown chaos fault %S (known: %s)" name
              (String.concat ", " chaos_names) ))
        t.chaos)

(* ------------------------------------------------------------------ *)
(* Spec codec                                                          *)

let crash_to_string c =
  Printf.sprintf "%s@%s+%s"
    (match c.target with Ids.Host -> "host" | Ids.Proc i -> string_of_int i)
    (print Float c.at) (print Float c.duration)

let crash_of_string v =
  let ( let* ) = Option.bind in
  let crash =
    let* tgt, rest = cut "@" v in
    let* at, duration = cut "+" rest in
    let* target =
      if tgt = "host" then Some Ids.Host
      else Option.map (fun i -> Ids.Proc i) (int_of_string_opt tgt)
    in
    let* at = float_of_string_opt at in
    let* duration = float_of_string_opt duration in
    Some { target; at; duration }
  in
  Option.to_result crash
    ~none:(Printf.sprintf "faults: bad crash spec %S (want TGT@AT+DUR)" v)

(* in printing order *)
let keys =
  [
    one "loss" Float (fun t -> t.msg_loss)
      (fun t msg_loss -> { t with msg_loss });
    one "dup" Float (fun t -> t.msg_dup) (fun t msg_dup -> { t with msg_dup });
    one "delay" Float (fun t -> t.msg_delay)
      (fun t msg_delay -> { t with msg_delay });
    many "crash"
      (Nested (crash_to_string, crash_of_string))
      (fun t -> t.crashes)
      (fun t c -> { t with crashes = t.crashes @ [ c ] });
    one "crash-rate" Float (fun t -> t.crash_rate)
      (fun t crash_rate -> { t with crash_rate });
    one "mttr" Float (fun t -> t.mean_repair)
      (fun t mean_repair -> { t with mean_repair });
    one "recrash" Float (fun t -> t.recrash)
      (fun t recrash -> { t with recrash });
    one "torn-tail" Float (fun t -> t.torn_tail)
      (fun t torn_tail -> { t with torn_tail });
    one "timeout" Float (fun t -> t.timeout)
      (fun t timeout -> { t with timeout });
    one "timeout-cap" Float (fun t -> t.timeout_cap)
      (fun t timeout_cap -> { t with timeout_cap });
    one "jitter" Float (fun t -> t.timeout_jitter)
      (fun t timeout_jitter -> { t with timeout_jitter });
    one "retries" Int (fun t -> t.max_retries)
      (fun t max_retries -> { t with max_retries });
    one "fault-seed" Int (fun t -> t.fault_seed)
      (fun t fault_seed -> { t with fault_seed });
    many "chaos"
      (Nested (Fun.id, Result.ok))
      (fun t -> t.chaos)
      (fun t name -> { t with chaos = t.chaos @ [ name ] });
  ]

let to_spec t = to_items keys ~zero t

let of_spec s =
  let* t = of_items ~prefix:"faults:" keys ~zero s in
  (* range-check everything that does not need the machine size, so the
     CLI rejects a bad spec before a run starts *)
  let* () = validate ~num_proc_nodes:Stdlib.max_int t in
  Ok t

let pp fmt t =
  let s = to_spec t in
  Format.pp_print_string fmt (if s = "" then "(none)" else s)
