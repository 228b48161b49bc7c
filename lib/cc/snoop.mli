(** The rotating "Snoop" global deadlock detector for 2PL (Section 2.2),
    after Distributed INGRES [Ston79]: each processing node in turn waits
    [detection_interval], gathers waits-for edges from every node (one
    request and one reply message per remote node), breaks every global
    cycle by aborting its youngest member, and passes the token on. *)

open Ddbm_model

type t

val create :
  Desim.Engine.t ->
  net:Net.t ->
  num_nodes:int ->
  detection_interval:float ->
  edges_of:(int -> Cc_intf.edge list) ->
  request_abort:(from_node:int -> Txn.t -> Txn.abort_reason -> unit) ->
  t

(** Run one collection + detection pass as [snoop_node] (blocking;
    exposed for tests). *)
val detection_round : t -> snoop_node:int -> unit

(** Attach (or detach, with [None]) an observer called after every
    detection round with the collecting node, the number of waits-for
    edges gathered, and the victims selected. *)
val set_on_round :
  t -> (node:int -> edges:int -> victims:int -> unit) option -> unit

(** Start the rotating detector process (node 0 first). *)
val start : t -> unit

(** Completed detection rounds. *)
val rounds : t -> int
