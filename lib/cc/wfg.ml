(** Waits-for graphs and cycle detection.

    One depth-first search ({!Search}) serves both detectors: 2PL's
    block-time local detection runs it from the requester over the lock
    table's footprints ({!Lock_table.find_cycle_through}), and the Snoop
    global detector runs it over a graph built from the union of every
    node's edges. Vertices are transaction attempts; edges through doomed
    attempts are treated as already broken.

    The search allocates only the cycle it returns. A vertex marks its
    visit with the search's number (its stamp), so no visited set is
    built, and the successors of the vertices on the current path sit
    frame after frame on one stack that the graph keeps from search to
    search. *)

open Ddbm_model

(* One graph's search state, reused by every search over it. Frame [d]
   of the path is [path.(d)] with its successors at [stack.(next.(d))]
   .. [stack.(stop.(d) - 1)], the next one to try first; the vertex being
   entered pushes its successors from [base] up. [high] and [deep] are
   the most of the stack and the path the search has used. *)
type 'v state = {
  mutable stamp : int;  (** the current search's number *)
  mutable stack : 'v array;
  mutable top : int;
  mutable base : int;
  mutable high : int;
  mutable path : 'v array;
  mutable deep : int;
  mutable next : int array;
  mutable stop : int array;
}

let state () =
  {
    stamp = 0;
    stack = [||];
    top = 0;
    base = 0;
    high = 0;
    path = [||];
    deep = 0;
    next = [||];
    stop = [||];
  }

let stamp st = st.stamp

(* [a] in an array of twice its length, the rest filled with [x]. *)
let grow a x =
  let n = Array.length a in
  let b = Array.make (max 8 (2 * n)) x in
  Array.blit a 0 b 0 n;
  b

let push st v =
  if st.top = Array.length st.stack then st.stack <- grow st.stack v;
  st.stack.(st.top) <- v;
  st.top <- st.top + 1;
  if st.top > st.high then st.high <- st.top

(* The slot for [v] in the entered vertex's successors below [i], which
   [order] sorts; -1 when an equal one is there. *)
let rec slot st ~order v i =
  if i = st.base then i
  else
    let c = order st.stack.(i - 1) v in
    if c = 0 then -1 else if c < 0 then i else slot st ~order v (i - 1)

let push_ordered st ~order v =
  let i = slot st ~order v st.top in
  if i >= 0 then begin
    push st v;
    Array.blit st.stack i st.stack (i + 1) (st.top - 1 - i);
    st.stack.(i) <- v
  end

module type GRAPH = sig
  type g
  type v

  val txn : v -> Txn.t
  val same : v -> v -> bool
  val alive : v -> bool
  val state : g -> v state
  val enter : g -> v state -> v -> bool
end

module Search (G : GRAPH) = struct
  let reserve st d v =
    if d = Array.length st.path then begin
      st.path <- grow st.path v;
      st.next <- grow st.next 0;
      st.stop <- grow st.stop 0
    end

  (* Open frame [d] for [v], entered just now. *)
  let frame st d v =
    reserve st d v;
    st.path.(d) <- v;
    st.next.(d) <- st.base;
    st.stop.(d) <- st.top;
    if d > st.deep then st.deep <- d

  (* Try frame [d]'s next successor; back up a frame when none is left.
     The depth of the last vertex of the cycle found, or -1. *)
  let rec step g st start d =
    let i = st.next.(d) in
    if i = st.stop.(d) then
      if d = 0 then -1
      else begin
        st.top <- st.stop.(d - 1);
        step g st start (d - 1)
      end
    else begin
      let v = st.stack.(i) in
      st.next.(d) <- i + 1;
      if G.same v start then d
      else begin
        st.base <- st.top;
        if G.alive v && G.enter g st v then begin
          frame st (d + 1) v;
          step g st start (d + 1)
        end
        else step g st start d
      end
    end

  let rec members st i acc =
    if i < 0 then acc else members st (i - 1) (G.txn st.path.(i) :: acc)

  let find_cycle g start =
    if not (G.alive start) then None
    else begin
      let st = G.state g in
      st.stamp <- st.stamp + 1;
      st.top <- 0;
      st.base <- 0;
      st.high <- 0;
      st.deep <- 0;
      ignore (G.enter g st start : bool);
      frame st 0 start;
      let cycle =
        match step g st start 0 with -1 -> None | d -> Some (members st d [])
      in
      (* A lock table keeps its state from block to block: left in place,
         the attempts this search pushed would stay reachable after they
         finish, and the next minor collection would promote them. *)
      Array.fill st.stack 0 st.high start;
      Array.fill st.path 0 (st.deep + 1) start;
      cycle
    end
end

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

type vertex = {
  txn : Txn.t;
  mutable succ : vertex list;
      (** distinct holders [txn] waits for, most recently added first *)
  mutable seen : int;  (** stamp of the last search that entered it *)
  mutable removed : bool;  (** a victim of the running [break_all_cycles] *)
}

type t = {
  vertices : vertex Txn.Table.t;
  mutable waiters : vertex list;  (** the vertices with successors *)
  search : vertex state;
}

let create () =
  { vertices = Txn.Table.create 64; waiters = []; search = state () }

(* [mem] before [find]: a miss raising [Not_found] costs more than the
   second lookup, and [find_opt] allocates on every hit. *)
let vertex t txn =
  if Txn.Table.mem t.vertices txn then Txn.Table.find t.vertices txn
  else begin
    let v = { txn; succ = []; seen = 0; removed = false } in
    Txn.Table.add t.vertices txn v;
    v
  end

let add_edge t ~(waiter : Txn.t) ~(holder : Txn.t) =
  if not (Txn.same_attempt waiter holder) then begin
    let w = vertex t waiter in
    let h = vertex t holder in
    match w.succ with
    | [] ->
        t.waiters <- w :: t.waiters;
        w.succ <- [ h ]
    | succ -> if not (List.memq h succ) then w.succ <- h :: succ
  end

let of_edges edges =
  let t = create () in
  List.iter
    (fun { Cc_intf.waiter; holder } -> add_edge t ~waiter ~holder)
    edges;
  t

let rec push_all st = function
  | [] -> ()
  | v :: rest ->
      push st v;
      push_all st rest

module Graph = Search (struct
  type g = t
  type v = vertex

  let txn v = v.txn
  let same = ( == )
  let alive v = not (v.txn.Txn.doomed || v.removed)
  let state t = t.search

  let enter _ st v =
    v.seen <> st.stamp
    && begin
         v.seen <- st.stamp;
         push_all st v.succ;
         true
       end
end)

let find_cycle_through t txn =
  match Txn.Table.find t.vertices txn with
  | v -> Graph.find_cycle t v
  | exception Not_found -> None

let by_attempt a b = Txn.compare_attempt a.txn b.txn

(** Find a cycle, victimize its youngest member, and go on until no
    cycle is left; returns the victims, the last found first (used by
    the Snoop detector). Vertices are tried in attempt order, not bucket
    order, so the cycles found (and hence the victims when cycles
    overlap) do not depend on hash-table layout; a vertex that waits for
    nothing starts no cycle and is not tried. A vertex with no cycle
    through it keeps none once victims leave the graph, so the scan
    retries the current vertex after each victim and moves on only when
    it has no cycle left: it finds the cycles a scan that restarts from
    the first vertex after each victim finds. *)
let break_all_cycles t =
  let vs = Array.of_list t.waiters in
  Array.sort by_attempt vs;
  let rec break_through v victims =
    match Graph.find_cycle t v with
    | None -> victims
    | Some cycle ->
        let victim = youngest cycle in
        (Txn.Table.find t.vertices victim).removed <- true;
        break_through v (victim :: victims)
  in
  let victims = Array.fold_left (fun acc v -> break_through v acc) [] vs in
  Array.iter (fun v -> v.removed <- false) vs;
  victims
