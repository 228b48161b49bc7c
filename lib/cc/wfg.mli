(** Waits-for graphs and cycle detection, used by 2PL's block-time local
    deadlock detection and by the Snoop global detector. Vertices are
    transaction attempts; doomed attempts count as already removed. *)

open Ddbm_model

type t

val create : unit -> t

(** Add [waiter] waits-for [holder]. Self-edges are dropped. *)
val add_edge : t -> waiter:Txn.t -> holder:Txn.t -> unit

(** The graph of an edge list. Built from a {!Cc_intf.compare_edge}-sorted
    list, each vertex's successors are its distinct holders in descending
    attempt order. *)
val of_edges : Cc_intf.edge list -> t

(** The one depth-first cycle search: [find_cycle ~successors ~alive
    start] is a cycle containing [start] (its members in path order,
    [start] first), following [successors] in list order and skipping
    vertices that are not [alive], or [None] (also when [start] is not
    alive). *)
val find_cycle :
  successors:(Txn.t -> Txn.t list) ->
  alive:(Txn.t -> bool) ->
  Txn.t ->
  Txn.t list option

(** [find_cycle_through t start] is {!find_cycle} over [t]'s edges,
    ignoring doomed vertices. *)
val find_cycle_through : t -> Txn.t -> Txn.t list option

(** Youngest member of a cycle: the most recent initial startup time —
    the paper's victim selection rule. Raises on an empty list. *)
val youngest : Txn.t list -> Txn.t

(** Repeatedly find a cycle anywhere, victimize its youngest member, and
    continue until acyclic; returns the victims. *)
val break_all_cycles : t -> Txn.t list
