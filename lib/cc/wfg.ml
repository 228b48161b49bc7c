(** Waits-for graphs and cycle detection.

    One depth-first search ({!find_cycle}) serves both detectors: 2PL's
    block-time local detection runs it from the requester over the lock
    table's on-demand successors ({!Lock_table.find_cycle_through}), and
    the Snoop global detector runs it over a graph built from the union
    of every node's edges. Vertices are transaction attempts; edges
    through doomed attempts are treated as already broken. *)

open Ddbm_model

type vertex = {
  txn : Txn.t;
  mutable succ : Txn.t list;
      (** distinct holders [txn] waits for, most recently added first *)
}

type t = vertex Txn.Table.t

let create () : t = Txn.Table.create 64

let vertex t txn =
  match Txn.Table.find_opt t txn with
  | Some v -> v
  | None ->
      let v = { txn; succ = [] } in
      Txn.Table.add t txn v;
      v

let add_edge t ~(waiter : Txn.t) ~(holder : Txn.t) =
  if not (Txn.same_attempt waiter holder) then begin
    let w = vertex t waiter in
    ignore (vertex t holder);
    if not (List.exists (Txn.same_attempt holder) w.succ) then
      w.succ <- holder :: w.succ
  end

let of_edges edges =
  let t = create () in
  List.iter
    (fun { Cc_intf.waiter; holder } -> add_edge t ~waiter ~holder)
    edges;
  t

let successors t txn =
  match Txn.Table.find_opt t txn with Some v -> v.succ | None -> []

let find_cycle ~successors ~alive start =
  if not (alive start) then None
  else begin
    let visited = Txn.Table.create 16 in
    let rec dfs path txn = first path txn (successors txn)
    and first path txn = function
      | [] -> None
      | next :: rest ->
          if Txn.same_attempt next start then Some (List.rev (txn :: path))
          else if (not (alive next)) || Txn.Table.mem visited next then
            first path txn rest
          else begin
            Txn.Table.replace visited next ();
            match dfs (txn :: path) next with
            | None -> first path txn rest
            | found -> found
          end
    in
    Txn.Table.replace visited start ();
    dfs [] start
  end

let not_doomed (txn : Txn.t) = not txn.Txn.doomed

let find_cycle_through t start =
  find_cycle ~successors:(successors t) ~alive:not_doomed start

(** Youngest member of a cycle = most recent initial startup time (the
    paper's deadlock victim rule). *)
let youngest cycle =
  match cycle with
  | [] -> invalid_arg "Wfg.youngest: empty cycle"
  | first :: rest ->
      List.fold_left
        (fun acc (txn : Txn.t) ->
          if Timestamp.compare txn.Txn.startup_ts acc.Txn.startup_ts > 0 then
            txn
          else acc)
        first rest

(** Repeatedly find a cycle anywhere in the graph, select its youngest
    member as the victim, remove it, and continue until acyclic. Returns
    the victims (used by the Snoop detector). *)
let break_all_cycles t =
  let removed = Txn.Table.create 8 in
  let alive txn = not_doomed txn && not (Txn.Table.mem removed txn) in
  let victims = ref [] in
  (* Visit vertices in attempt order, not bucket order, so the cycle found
     first (and hence the victim set when cycles overlap) is independent
     of hash-table layout. *)
  let vertices =
    Txn.Table.fold (fun _ v acc -> v.txn :: acc) t []
    |> List.sort Txn.compare_attempt
  in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun txn ->
        if not !progress then
          match find_cycle ~successors:(successors t) ~alive txn with
          | Some cycle ->
              let victim = youngest cycle in
              Txn.Table.replace removed victim ();
              victims := victim :: !victims;
              progress := true
          | None -> ())
      vertices
  done;
  !victims
