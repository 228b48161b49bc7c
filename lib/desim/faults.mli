(** Fault-injection primitives for discrete-event simulations: a
    lossy/duplicating/delaying {!Link} judged by a dedicated {!Rng}
    stream. Its verdicts are ordinary simulation events, so a seeded run
    replays exactly. *)

module Link : sig
  (** A message-fault judge: per message, decides drop, duplication and
      extra delivery delay from a dedicated RNG stream. *)

  type t

  (** [create rng ~loss ~dup ~delay]: [loss] and [dup] are per-message
      probabilities; [delay] is the mean of an exponential extra delivery
      delay (0 = none). Decisions with a zero parameter consume no
      randomness. *)
  val create : Rng.t -> loss:float -> dup:float -> delay:float -> t

  (** Judge one message: the result is one extra-delay value per copy to
      deliver ([0.] = deliver immediately), or [[]] when the message is
      dropped. A duplicated message yields two copies. On a link with
      neither delay nor duplication a kept message's verdict is one
      shared [[0.]], so judging allocates nothing. *)
  val judge : t -> float list
end
