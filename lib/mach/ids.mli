(** Identifier types shared across the machine model. *)

(** A node of the database machine: the single host node (terminals,
    coordinators) or one of the processing nodes (data, cohorts). *)
type node_ref = Host | Proc of int

val node_ref_equal : node_ref -> node_ref -> bool
val pp_node_ref : Format.formatter -> node_ref -> unit

(** A page of a file; files model relation partitions.

    A page is an immediate integer, the file in the high bits and the
    index in the low ones, so plans, lock entries, log records, audit
    keys and events hold pages without a block of their own: a
    transaction's pages live as long as its plan and its locks, which
    outlive a minor collection, so a boxed page would be promoted with
    them. *)
module Page : sig
  type t = private int

  (** Files and indexes lie in [\[0, file_limit)] and
      [\[0, index_limit)]: 2{^30} each on a 64-bit host. *)
  val file_limit : int

  val index_limit : int

  (** Raises [Invalid_argument] when [file] or [index] is negative or
      at its limit or above. *)
  val make : file:int -> index:int -> t

  (** The page whose integer is [i]: the inverse of [(p :> int)].
      Raises [Invalid_argument] when [i] is no page's integer. *)
  val of_int : int -> t

  val file : t -> int
  val index : t -> int

  (** By file, then by index. *)
  val compare : t -> t -> int

  val equal : t -> t -> bool

  (** [file * 1_000_003 + index]: {!Page_table}'s bucket order, which a
      fold over a page table follows, depends on it. *)
  val hash : t -> int

  val pp : Format.formatter -> t -> unit
end

(** Hashtable keyed by pages. *)
module Page_table : Hashtbl.S with type key = Page.t
