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

(** Coordinator-side protocol phase, used e.g. by wound-wait's "wounds are
    not fatal in the second phase of commit" rule. *)
type phase =
  | Working  (** cohorts executing reads/writes *)
  | Voting  (** prepare sent, collecting votes *)
  | Decided_commit  (** phase two: commit decision made *)
  | Decided_abort
  | Finished

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
    phase = Finished;
    doomed = true;
  }

let key t = (t.tid, t.attempt)
let same_attempt a b = a.tid = b.tid && a.attempt = b.attempt

let compare_attempt a b =
  match Int.compare a.tid b.tid with
  | 0 -> Int.compare a.attempt b.attempt
  | n -> n

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = same_attempt
  let hash t = (t.tid * 65599) + t.attempt
end)

(** [older a b] per wound-wait seniority: true when [a] started strictly
    before [b]. *)
let older a b = Timestamp.compare a.startup_ts b.startup_ts < 0

(** True once the coordinator has entered the second phase of commit. *)
let in_second_phase t =
  match t.phase with
  | Decided_commit | Finished -> true
  | Working | Voting | Decided_abort -> false

let pp fmt t = Format.fprintf fmt "T%d.%d" t.tid t.attempt
