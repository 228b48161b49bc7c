(** The source component: generates transaction access plans (Section 3.2).

    Each terminal belongs to a class determined by its index: the
    [num_terminals] terminals are split evenly into [num_relations] groups
    and group [i] generates transactions that access every partition of
    relation [i].

    Plan generation draws from one independent splitmix64 stream *per
    terminal* (and per-page CPU demands from yet another stream), so the
    sequence of plans a terminal submits is a pure function of the seed
    and the non-CC parameters: the k-th plan of terminal [i] is identical
    no matter which concurrency control algorithm runs or how executions
    interleave. This is the common-random-numbers discipline the paper
    uses to compare algorithms, and the conformance harness checks it
    across algorithms via {!fingerprints}. *)

open Ids

type t = {
  params : Params.t;
  catalog : Catalog.t;
  plan_rngs : Desim.Rng.t array;  (** one independent stream per terminal *)
  instr_rng : Desim.Rng.t;  (** per-page CPU demand draws *)
  layouts : (int * int list) list option array;
      (** per relation, once its first plan is drawn: each node holding
          a partition of it (in cohort order) with its files there *)
  mutable fingerprint_log : int list array option;
      (** when enabled, per-terminal log of plan fingerprints, newest
          first *)
  mutable ops : Plan.op array;
      (** the cohort being drawn: its ops, written in place, partition
          after partition; grown when a cohort needs more room *)
}

let no_op = Plan.op (Page.make ~file:0 ~index:0) ~update:false

let create params catalog rng =
  let num_terminals = params.Params.workload.Params.num_terminals in
  {
    params;
    catalog;
    plan_rngs = Array.init num_terminals (fun _ -> Desim.Rng.split rng);
    instr_rng = Desim.Rng.split rng;
    layouts = Array.make params.Params.database.Params.num_relations None;
    fingerprint_log = None;
    ops = Array.make 64 no_op;
  }

(** Relation accessed by transactions from [terminal]. *)
let relation_of_terminal t ~terminal =
  let w = t.params.Params.workload and d = t.params.Params.database in
  terminal * d.Params.num_relations / w.Params.num_terminals

(** Mean think time, exposed for the terminal loop. *)
let think_time t = t.params.Params.workload.Params.think_time

(** Draw the number of pages accessed in one partition: uniform integer in
    [mean/2, 3*mean/2], capped by the file size (footnote 12). *)
let draw_page_count t rng =
  let w = t.params.Params.workload in
  let mean = w.Params.pages_per_partition in
  let lo = Int.max 1 (mean / 2) and hi = 3 * mean / 2 in
  let hi = Int.min hi t.params.Params.database.Params.file_size in
  Desim.Rng.int_range rng ~lo ~hi

(* One partition's page indexes, ascending. Pages are accessed in
   ascending page order, as a partition scan would: this gives the
   approximate global lock-ordering discipline that keeps 2PL's deadlock
   rate at the modest levels the paper reports (see DESIGN.md). *)
let draw_partition_pages t rng =
  let pages = Array.make (draw_page_count t rng) 0 in
  Desim.Rng.sample_into rng ~n:t.params.Params.database.Params.file_size pages;
  (* Insertion sort: a partition holds a handful of pages, for which
     [Array.sort]'s heap sort costs several times more. *)
  for i = 1 to Array.length pages - 1 do
    let v = pages.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && pages.(!j) > v do
      pages.(!j + 1) <- pages.(!j);
      decr j
    done;
    pages.(!j + 1) <- v
  done;
  pages

(* Partition [file]'s ops, written into [t.ops] from [at]: its pages are
   drawn, then their update flags in page order. Returns where the next
   partition's ops start. *)
let draw_partition_ops t rng ~file at =
  let pages = draw_partition_pages t rng in
  let n = Array.length pages in
  if at + n > Array.length t.ops then begin
    let ops = Array.make (2 * (at + n)) no_op in
    Array.blit t.ops 0 ops 0 at;
    t.ops <- ops
  end;
  let p = t.params.Params.workload.Params.write_prob in
  for i = 0 to n - 1 do
    let page = Page.make ~file ~index:pages.(i) in
    t.ops.(at + i) <- Plan.op page ~update:(Desim.Rng.bool rng ~p)
  done;
  at + n

(* The ops of the partitions in [files], file by file, as one array. *)
let rec draw_partitions t rng at = function
  | [] -> Array.sub t.ops 0 at
  | file :: files ->
      draw_partitions t rng (draw_partition_ops t rng ~file at) files

(* --- plan fingerprints (conformance harness support) --------------- *)

(* FNV-1a-style mixing over the plan's structural content, kept within
   OCaml's native int range. *)
let mix h x = (h lxor x) * 0x100000001b3 land max_int

let plan_fingerprint (plan : Plan.t) =
  let h = mix 0x14650FB0739D0383 plan.Plan.relation in
  List.fold_left
    (fun h (c : Plan.cohort_plan) ->
      let h = mix h c.Plan.node in
      let h =
        Array.fold_left
          (fun h op ->
            let page = Plan.page op in
            let h = mix h (Page.file page) in
            let h = mix h (Page.index page) in
            mix h (if Plan.update op then 1 else 0))
          h c.Plan.ops
      in
      List.fold_left
        (fun h p -> mix (mix h (Page.file p)) (Page.index p))
        h c.Plan.apply_ops)
    h plan.Plan.cohorts

(** Start logging a fingerprint of every generated plan (off by default;
    costs memory proportional to the number of plans). *)
let enable_fingerprints t =
  t.fingerprint_log <- Some (Array.make (Array.length t.plan_rngs) [])

(** Per-terminal fingerprints of the plans generated so far, in generation
    order. Empty array when {!enable_fingerprints} was not called. *)
let fingerprints t =
  match t.fingerprint_log with
  | None -> [||]
  | Some log -> Array.map List.rev log

(* Where [relation]'s partitions live, looked up in the catalog on the
   relation's first plan only. *)
let layout t ~relation =
  match t.layouts.(relation) with
  | Some l -> l
  | None ->
      let l =
        List.map
          (fun (node_ref : node_ref) ->
            match node_ref with
            | Proc node -> (node, Catalog.files_at t.catalog ~relation ~node)
            | Host -> invalid_arg "Workload: data stored at host")
          (Catalog.nodes_of_relation t.catalog ~relation)
      in
      t.layouts.(relation) <- Some l;
      l

(* Replica application sites: every updated page is installed at each of
   its copy nodes other than the primary cohort's. [applies.(n)] lists
   node [n]'s pages, the last found first; the array is built only when a
   replica copy turns up, so without replication it stays empty. *)
let add_replica_pages t applies primary_node ops =
  let db = t.params.Params.database in
  for i = 0 to Array.length ops - 1 do
    let op = ops.(i) in
    if Plan.update op then
      for k = 1 to db.Params.replication - 1 do
        let page = Plan.page op in
        let copy_node = Catalog.copy_node t.catalog ~file:(Page.file page) k in
        if copy_node <> primary_node then begin
          if Array.length !applies = 0 then
            applies := Array.make db.Params.num_proc_nodes [];
          let a = !applies in
          a.(copy_node) <- page :: a.(copy_node)
        end
      done
  done

let replica_applies t primaries =
  let applies = ref [||] in
  if t.params.Params.database.Params.replication > 1 then
    List.iter
      (fun (c : Plan.cohort_plan) ->
        add_replica_pages t applies c.Plan.node c.Plan.ops)
      primaries;
  !applies

(* Node [node]'s replica pages, which then leave [applies]. *)
let take_applies applies node =
  let pages = applies.(node) in
  applies.(node) <- [];
  pages

(* One primary cohort per node of the relation's layout, in layout order,
   without replica duties yet. *)
let rec draw_cohorts t rng = function
  | [] -> []
  | (node, files) :: layout ->
      let ops = draw_partitions t rng 0 files in
      { Plan.node; ops; apply_ops = [] } :: draw_cohorts t rng layout

(* The primary cohorts with their replica duties, and an update-only
   cohort, in node order, for each node that holds copies but runs no
   primary accesses. *)
let with_applies applies primaries =
  let cohorts =
    List.map
      (fun (c : Plan.cohort_plan) ->
        { c with Plan.apply_ops = take_applies applies c.Plan.node })
      primaries
  in
  let update_only = ref [] in
  for node = Array.length applies - 1 downto 0 do
    if applies.(node) <> [] then
      update_only :=
        { Plan.node; ops = [||]; apply_ops = applies.(node) } :: !update_only
  done;
  match !update_only with [] -> cohorts | extra -> cohorts @ extra

(** Generate a fresh access plan for a transaction from [terminal]: one
    cohort per node holding a primary of the terminal's relation, plus
    (under replication) update-application duties at every node holding a
    copy of an updated page — update-only cohorts are appended, in node
    order, when such a node runs no primary accesses. *)
let generate_plan t ~terminal =
  let rng = t.plan_rngs.(terminal) in
  let relation = relation_of_terminal t ~terminal in
  let primaries = draw_cohorts t rng (layout t ~relation) in
  let applies = replica_applies t primaries in
  let cohorts =
    if Array.length applies = 0 then primaries
    else with_applies applies primaries
  in
  let plan = { Plan.relation; cohorts } in
  (match t.fingerprint_log with
  | Some log -> log.(terminal) <- plan_fingerprint plan :: log.(terminal)
  | None -> ());
  plan

(** Per-page processing cost draw (exponential, mean InstPerPage). *)
let draw_page_instructions t =
  Desim.Rng.exponential t.instr_rng
    ~mean:t.params.Params.workload.Params.inst_per_page
