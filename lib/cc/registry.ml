(** Construction of a node's concurrency control manager by algorithm. *)

open Ddbm_model

let make (algorithm : Params.cc_algorithm) (hooks : Cc_intf.hooks) :
    Cc_intf.node_cc =
  match algorithm with
  | Params.No_dc -> No_dc.make hooks
  | Params.Bto -> Bto.make hooks
  | Params.Opt -> Opt_cert.make hooks
  | Params.Twopl | Params.Wound_wait | Params.Wait_die | Params.Twopl_defer
  | Params.O2pl ->
      Locking.make algorithm hooks

(** Every registered algorithm, in a stable order. The conformance
    harness runs each of these on every generated configuration. *)
let all =
  [
    Params.No_dc;
    Params.Twopl;
    Params.Wound_wait;
    Params.Bto;
    Params.Opt;
    Params.Wait_die;
    Params.Twopl_defer;
    Params.O2pl;
  ]
