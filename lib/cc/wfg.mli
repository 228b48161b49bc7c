(** Waits-for graphs and the one cycle search, used by 2PL's block-time
    local deadlock detection (over the lock table's footprints, through
    {!Search}) and by the Snoop global detector (over a graph built with
    {!of_edges}). Vertices are transaction attempts; doomed attempts
    count as already removed. A search marks the vertices it enters with
    its own number and keeps the successors still to try on one stack
    that outlives it, so it allocates only the cycle it returns. *)

open Ddbm_model

(** {1 The search} *)

(** The state of the searches over one graph, reused by each: the
    current search's number (its stamp), the successor stack and the
    path. *)
type 'v state

val state : unit -> 'v state

(** The current search's number. *)
val stamp : 'v state -> int

(** [push_ordered st ~order v] pushes a successor of the vertex being
    entered among those pushed so far, keeping them sorted by [order]
    (the first is tried first) and dropping [v] when an equal one is
    there. *)
val push_ordered : 'v state -> order:('v -> 'v -> int) -> 'v -> unit

(** A graph to search. A vertex that is not [alive] (doomed or removed)
    breaks every edge through it. *)
module type GRAPH = sig
  type g
  type v

  val txn : v -> Txn.t
  val same : v -> v -> bool
  val alive : v -> bool
  val state : g -> v state

  (** [enter g st v] is [false] when [v] already bears [stamp st];
      otherwise it marks [v] with it, pushes [v]'s successors in the
      order they are to be tried, and is [true]. *)
  val enter : g -> v state -> v -> bool
end

(** The depth-first search, built once per kind of graph. *)
module Search (G : GRAPH) : sig
  (** [find_cycle g start] is a cycle containing [start] (its members in
      path order, [start] first), or [None] (also when [start] is not
      alive). *)
  val find_cycle : G.g -> G.v -> Txn.t list option
end

(** {1 Snoop's graph} *)

type t

val create : unit -> t

(** Add [waiter] waits-for [holder]. Self-edges are dropped. *)
val add_edge : t -> waiter:Txn.t -> holder:Txn.t -> unit

(** The graph of an edge list. A vertex's successors are its distinct
    holders in reverse order of their first edge in the list. From one
    {!Cc_intf.compare_edge}-sorted list, that is descending attempt
    order. Snoop passes the sorted snapshots of the nodes concatenated,
    the last reply first and its own node's last. So the holders the
    Snoop node reports come first, then those of each replying node in
    the order the replies arrived, each node's in descending attempt
    order; a holder that several nodes report sits with the last of them
    to reply. *)
val of_edges : Cc_intf.edge list -> t

(** [find_cycle_through t start] is the cycle through [start] that the
    search finds over [t]'s edges, ignoring doomed vertices. *)
val find_cycle_through : t -> Txn.t -> Txn.t list option

(** Youngest member of a cycle: the most recent initial startup time —
    the paper's victim selection rule. Raises on an empty list. *)
val youngest : Txn.t list -> Txn.t

(** Repeatedly find a cycle, victimize its youngest member, and continue
    until acyclic; returns the victims, the last found first. Vertices
    are tried in attempt order, each again after every victim found
    through it. *)
val break_all_cycles : t -> Txn.t list
