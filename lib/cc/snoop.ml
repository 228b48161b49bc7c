(** The rotating "Snoop" global deadlock detector for 2PL (Section 2.2),
    modeled after Distributed INGRES [Ston79].

    Each processing node takes a turn as the Snoop node: after waiting
    [detection_interval], it gathers waits-for edges from every node (one
    request and one reply message per remote node), unions them, breaks
    every global cycle by aborting the youngest member, and passes the
    Snoop responsibility to the next node with a token message. *)

open Desim
open Ddbm_model

type t = {
  eng : Engine.t;
  net : Net.t;
  num_nodes : int;
  detection_interval : float;
  edges_of : int -> Cc_intf.edge list;
      (** waits-for snapshot of a processing node *)
  request_abort : from_node:int -> Txn.t -> Txn.abort_reason -> unit;
  mutable rounds : int;
  mutable on_round : (node:int -> edges:int -> victims:int -> unit) option;
      (** observer of completed detection rounds (for typed tracing) *)
}

let create eng ~net ~num_nodes ~detection_interval ~edges_of ~request_abort =
  {
    eng;
    net;
    num_nodes;
    detection_interval;
    edges_of;
    request_abort;
    rounds = 0;
    on_round = None;
  }

(** Attach (or detach) the per-round observer. *)
let set_on_round t on_round = t.on_round <- on_round

(* Collect edges from every node. Requests go out in parallel; each remote
   node replies with its snapshot (taken at reply time). *)
let collect t ~snoop_node =
  (* Count the expected replies before sending anything: with a zero
     message cost, deliveries run synchronously inside the send call. *)
  let pending = ref (t.num_nodes - 1) in
  let collected = ref (t.edges_of snoop_node) in
  let all_in : unit Ivar.t = Ivar.create () in
  for j = 0 to t.num_nodes - 1 do
    if j <> snoop_node then begin
      Net.send_async t.net ~src:(Ids.Proc snoop_node) ~dst:(Ids.Proc j)
        (fun () ->
          let edges = t.edges_of j in
          Net.send_async t.net ~src:(Ids.Proc j) ~dst:(Ids.Proc snoop_node)
            (fun () ->
              collected := edges @ !collected;
              decr pending;
              if !pending = 0 then Ivar.fill all_in ()))
    end
  done;
  if !pending > 0 then Ivar.read all_in;
  !collected

let detection_round t ~snoop_node =
  t.rounds <- t.rounds + 1;
  let edges = collect t ~snoop_node in
  let graph = Wfg.of_edges edges in
  let victims = Wfg.break_all_cycles graph in
  List.iter
    (fun victim ->
      t.request_abort ~from_node:snoop_node victim Txn.Global_deadlock)
    victims;
  match t.on_round with
  | Some f ->
      f ~node:snoop_node ~edges:(List.length edges)
        ~victims:(List.length victims)
  | None -> ()

(** Start the rotating detector process. Runs for the whole simulation. *)
let start t =
  Engine.spawn t.eng (fun () ->
      let rec turn snoop_node =
        Engine.wait t.detection_interval;
        detection_round t ~snoop_node;
        let next = (snoop_node + 1) mod t.num_nodes in
        (* pass the Snoop token to the next node *)
        if next <> snoop_node then begin
          let arrived : unit Ivar.t = Ivar.create () in
          Net.send_async t.net ~src:(Ids.Proc snoop_node) ~dst:(Ids.Proc next)
            (fun () -> Ivar.fill arrived ());
          Ivar.read arrived
        end;
        turn next
      in
      turn 0)

let rounds t = t.rounds
