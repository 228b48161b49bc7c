(** Labelled series of (x, y) points — one reproduced figure — with
    aligned-table and CSV rendering for the bench harness. *)

type point = { x : float; y : float }
type series = { label : string; points : point list }

type t = {
  id : string;  (** e.g. "fig5" *)
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

(** X values, taken from the first series. *)
val xs : t -> float list

(** Aligned text table: one row per x, one column per series. *)
val to_table : t -> string

val to_csv : t -> string
