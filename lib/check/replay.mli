(** Self-contained replay artifacts for conformance failures.

    An artifact is a small line-oriented text file — `key = value`, one
    per line — carrying everything needed to re-execute a failing run:
    the complete parameter record (algorithm, seed, fault plan, and
    durability model included), and the failure kind and detail. Floats
    are printed with ["%.17g"] so they round-trip bit-for-bit.

    `ddbm_cli replay <file>` feeds an artifact back through
    {!Conformance.replay_file}. *)

open Ddbm_model

type artifact = {
  params : Params.t;
      (** full configuration; algorithm in [params.cc], fault plan
          (including chaos switches) in [params.faults] *)
  kind : string;  (** failure class: audit, invariant, determinism, ... *)
  detail : string;  (** human-readable description of the failure *)
}

(** The parameter record as one [key = value] line per key, in a fixed
    order; total — every record encodes. *)
val params_to_string : Params.t -> string

(** Inverse of {!params_to_string}. Unknown keys are rejected; the keys
    added by later schema versions (the durability block, [faults],
    [arrivals]) default to their off values when absent, so old artifacts
    stay readable. *)
val params_of_string : string -> (Params.t, string) result

(** Write the artifact into [dir] (created if missing) as multi-line
    [key = value] text under a deterministic name built from its
    algorithm, seed and failure kind, so a repeated failure overwrites
    its earlier artifact; returns the full path. *)
val write : dir:string -> artifact -> string

val load : string -> (artifact, string) result
