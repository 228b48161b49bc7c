(** Chaos switches: named behavioral faults in the CC layer.

    The conformance harness must be able to prove that its end-to-end
    serializability audit catches real concurrency control bugs, not just
    that correct algorithms pass it. Each flag here deliberately breaks
    one protocol decision; all flags are off by default.

    The flags are domain-local: the lock table reads them on its hot
    path, and parallel sweep workers each run their own machine with
    their own fault plan, so a process-global flag would leak one
    worker's chaos into another's run. They are {e managed} exclusively
    through the typed fault plan: [Machine.create] calls {!apply} with
    the plan's [chaos] names, overwriting every flag in the calling
    domain to exactly the plan's set. A run therefore cannot inherit
    chaos state from a previous run, and the active set is always
    recorded in replay artifacts with the rest of the plan. *)

type flags = { mutable broken_lock_conversion : bool }

let flags : flags Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { broken_lock_conversion = false })

(** When set, the lock table grants a read-to-write conversion even when
    the converter is not the sole holder — two readers of the same page
    can then both upgrade and write concurrently, producing lost updates
    under 2PL/WW/2PL-D that the multiversion audit must flag. *)
let broken_lock_conversion () = (Domain.DLS.get flags).broken_lock_conversion

let all =
  [
    ( "broken-lock-conversion",
      ( broken_lock_conversion,
        fun v -> (Domain.DLS.get flags).broken_lock_conversion <- v ) );
  ]

(** Names of the faults currently active in this domain. *)
let active () =
  List.filter_map
    (fun (name, (get, _)) -> if get () then Some name else None)
    all

(** Turn all faults off in this domain (test teardown). *)
let reset () = List.iter (fun (_, (_, set)) -> set false) all

(** [apply names] overwrites the whole registry for this domain: exactly
    the listed flags are set, all others cleared. Rejects unknown names
    (with the registry left fully cleared, never half-applied). *)
let apply names_to_set =
  reset ();
  List.fold_left
    (fun acc name ->
      match acc with
      | Error _ as e -> e
      | Ok () -> (
          match List.assoc_opt name all with
          | Some (_, set) ->
              set true;
              Ok ()
          | None ->
              reset ();
              Error (Printf.sprintf "unknown chaos fault %S" name)))
    (Ok ()) names_to_set
