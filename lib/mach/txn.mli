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

val abort_reason_name : abort_reason -> string

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

(** A fresh attempt that never runs (tid -1, already doomed): the
    initial value of a field that later holds a real attempt. *)
val placeholder : unit -> t

(** [(tid, attempt)] — the hashtable key distinguishing attempts. *)
val key : t -> int * int

(** The attempt's identity [(tid, attempt)] packed into one immediate
    int, the attempt in the low bits: what the write-ahead logs and the
    host's decision log key their tables on, so a lookup builds no tuple
    and hashes no block. *)
module Key : sig
  type t = private int

  (** Tids lie in [\[0, tid_limit)] and attempts in
      [\[0, attempt_limit)]: 2{^38} and 2{^24} on a 64-bit host. *)
  val tid_limit : int

  val attempt_limit : int

  (** Raises [Invalid_argument] when [tid] or [attempt] is negative or
      at its limit or above. *)
  val make : tid:int -> attempt:int -> t

  val tid : t -> int
  val attempt : t -> int

  (** By tid, then by attempt: the order of {!key}. *)
  val compare : t -> t -> int

  val equal : t -> t -> bool
end

(** Hash table keyed on {!Key}, hashed [tid * 65599 + attempt] as
    {!Table} is. Folds visit bindings in hash order; sort what
    escapes. *)
module Key_table : Hashtbl.S with type key = Key.t

val same_attempt : t -> t -> bool

(** Order by [(tid, attempt)] — the order of {!key}, without building
    the tuple. *)
val compare_attempt : t -> t -> int

(** Hash table keyed on the attempt: {!same_attempt} equality and an
    integer hash of [tid] and [attempt]. Folds visit bindings in hash
    order; sort what escapes. *)
module Table : Hashtbl.S with type key = t

(** [older a b] per wound-wait seniority: true when [a] started strictly
    before [b]. *)
val older : t -> t -> bool

(** True once the coordinator has decided to commit the attempt. *)
val in_second_phase : t -> bool

val pp : Format.formatter -> t -> unit
