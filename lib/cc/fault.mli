(** Chaos switches: named behavioral faults in the CC layer.

    The conformance harness must be able to prove that its end-to-end
    serializability audit catches real concurrency control bugs, not just
    that correct algorithms pass it. Each flag deliberately breaks one
    protocol decision; all flags are off by default.

    The flags are domain-local: the lock table reads them on its hot path,
    and parallel sweep workers each run their own machine with their own
    fault plan, so a process-global flag would leak one worker's chaos
    into another's run. They are {e managed} exclusively through the typed
    fault plan: [Machine.create] calls {!apply} with the plan's [chaos]
    names, overwriting every flag in the calling domain to exactly the
    plan's set. *)

(** When set, the lock table grants a read-to-write conversion even when
    the converter is not the sole holder — two readers of the same page
    can then both upgrade and write concurrently, producing lost updates
    under 2PL/WW/2PL-D that the multiversion audit must flag. *)
val broken_lock_conversion : unit -> bool

(** Names of the faults currently active in this domain. *)
val active : unit -> string list

(** Turn all faults off in this domain (test teardown). *)
val reset : unit -> unit

(** [apply names] overwrites the whole registry for this domain: exactly
    the listed flags are set, all others cleared. Rejects unknown names
    (with the registry left fully cleared, never half-applied). *)
val apply : string list -> (unit, string) result
