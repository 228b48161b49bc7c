(** Runtime record of one execution attempt of a transaction.

    A transaction keeps its identity ([tid], [startup_ts], [plan], and
    origination time) across restarts but every attempt gets a fresh
    instance so that stale abort requests and stale lock-table entries can
    never touch a successor attempt. *)

(** Why an attempt was aborted. *)
type abort_reason =
  | Local_deadlock  (** 2PL: victim of block-time local detection *)
  | Global_deadlock  (** 2PL: victim of the Snoop detector *)
  | Wounded  (** WW: wounded by an older transaction *)
  | Bto_conflict  (** BTO: out-of-timestamp-order access *)
  | Cert_failed  (** OPT: local certification rejected a read/write *)
  | Died  (** wait-die: the younger requester aborted itself *)
  | Peer_abort  (** another cohort of the same transaction aborted *)
  | Crashed  (** a participating node (or the host) crashed mid-attempt *)
  | Timed_out  (** a 2PC step exhausted its retry budget *)

let abort_reason_name = function
  | Local_deadlock -> "local-deadlock"
  | Global_deadlock -> "global-deadlock"
  | Wounded -> "wounded"
  | Bto_conflict -> "bto-conflict"
  | Cert_failed -> "cert-failed"
  | Died -> "died"
  | Peer_abort -> "peer-abort"
  | Crashed -> "crashed"
  | Timed_out -> "timed-out"

(** Raised inside a cohort process to unwind to its abort handler. *)
exception Aborted of abort_reason

(** Whether the coordinator has decided to commit the attempt: the one
    fact wound-wait's "wounds are not fatal in the second phase of commit"
    rule needs. An abort decision sets [doomed] instead. *)
type phase = Working | Decided_commit

type t = {
  tid : int;
  attempt : int;
  origin_time : float;  (** first submission time (attempt 1) *)
  attempt_time : float;  (** this attempt's start time *)
  startup_ts : Timestamp.t;
      (** initial startup timestamp; identical across attempts. Used for
          2PL victim selection and wound-wait seniority. *)
  cc_ts : Timestamp.t;
      (** timestamp used by timestamp-based CC for this attempt. Equals
          [startup_ts] on attempt 1; BTO redraws it on each restart. *)
  mutable commit_ts : Timestamp.t option;  (** OPT certification timestamp *)
  plan : Plan.t;
  mutable phase : phase;
  mutable doomed : bool;
      (** set as soon as any party decides this attempt must abort *)
}

let placeholder () =
  let ts = { Timestamp.time = 0.; uniq = -1 } in
  {
    tid = -1;
    attempt = 0;
    origin_time = 0.;
    attempt_time = 0.;
    startup_ts = ts;
    cc_ts = ts;
    commit_ts = None;
    plan = { Plan.relation = -1; cohorts = [] };
    phase = Working;
    doomed = true;
  }

let key t = (t.tid, t.attempt)
let same_attempt a b = a.tid = b.tid && a.attempt = b.attempt

let compare_attempt a b =
  match Int.compare a.tid b.tid with
  | 0 -> Int.compare a.attempt b.attempt
  | n -> n

module Key = struct
  type t = int

  (* The attempt below the tid: the integer order is the (tid, attempt)
     order, and the top bit stays clear. *)
  let attempt_bits = 24
  let attempt_limit = 1 lsl attempt_bits
  let tid_limit = 1 lsl (Sys.int_size - 1 - attempt_bits)

  let make ~tid ~attempt =
    if tid < 0 || tid >= tid_limit || attempt < 0 || attempt >= attempt_limit
    then
      invalid_arg
        (Printf.sprintf "Txn.Key.make: tid %d, attempt %d out of range" tid
           attempt);
    (tid lsl attempt_bits) lor attempt

  let tid k = k lsr attempt_bits
  let attempt k = k land (attempt_limit - 1)
  let equal = Int.equal
  let compare = Int.compare
  let hash k = (tid k * 65599) + attempt k
end

module Key_table = Hashtbl.Make (Key)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = same_attempt
  let hash t = (t.tid * 65599) + t.attempt
end)

(** [older a b] per wound-wait seniority: true when [a] started strictly
    before [b]. *)
let older a b = Timestamp.compare a.startup_ts b.startup_ts < 0

(** True once the coordinator has decided to commit the attempt. *)
let in_second_phase t =
  match t.phase with Decided_commit -> true | Working -> false

let pp fmt t = Format.fprintf fmt "T%d.%d" t.tid t.attempt
