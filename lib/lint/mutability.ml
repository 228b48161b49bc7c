(** Classification of top-level mutable state.

    A top-level binding is *shared mutable state* when its right-hand
    side allocates something writable at module-initialization time:
    the value then exists once per process and is visible to every
    domain that can reach the binding. The classifier looks at the RHS
    syntactically, without descending into function bodies — a
    [Hashtbl.create] inside [fun () -> ...] allocates per call, but
    [let f = let tbl = Hashtbl.create 4 in fun x -> ...] hides shared
    state behind a closure and is classified mutable.

    Domain-safe idioms are deliberately exempt:
    - [Domain.DLS.new_key] (domain-local by construction);
    - [Mutex.create] / [Condition.create] / [Semaphore] (the guard
      itself, not the guarded state). *)

open Parsetree

type kind =
  | Ref  (** [ref e] *)
  | Container of string  (** [Hashtbl.create], [Queue.create], ... *)
  | Array  (** array literal or [Array.make]-family *)
  | Bytes  (** [Bytes.create]-family *)
  | Mutable_record of string  (** record literal with a mutable field *)
  | Atomic
      (** [Atomic.make]: race-free, but cross-domain update order is
          still nondeterministic *)
  | Lazy_block  (** [lazy e]: a shared suspension (rule D9's concern) *)

let kind_to_string = function
  | Ref -> "ref cell"
  | Container m -> String.lowercase_ascii m ^ " (mutable container)"
  | Array -> "mutable array"
  | Bytes -> "mutable bytes"
  | Mutable_record field ->
      Printf.sprintf "record with mutable field '%s'" field
  | Atomic -> "atomic (nondeterministic cross-domain ordering)"
  | Lazy_block -> "lazy suspension"

(* ------------------------------------------------------------------ *)
(* Mutable-field census                                                 *)

(** Field names declared [mutable] anywhere in the scanned tree. Name-
    rather than type-based: the untyped parsetree cannot connect a
    record literal to its declaration, so a literal mentioning any
    known-mutable field name is treated as constructing mutable state
    (over-approximation, precise in this tree where field names are
    distinctive). *)
let mutable_fields files =
  let fields = Hashtbl.create 32 in
  let record_decl decl =
    match decl.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun l ->
            match l.pld_mutable with
            | Asttypes.Mutable ->
                Hashtbl.replace fields l.pld_name.Location.txt ()
            | Asttypes.Immutable -> ())
          labels
    | Ptype_variant _ | Ptype_abstract | Ptype_open -> ()
  in
  let super = Ast_iterator.default_iterator in
  let type_declaration iter decl =
    record_decl decl;
    super.type_declaration iter decl
  in
  let it = { super with type_declaration } in
  List.iter (fun (_, structure) -> it.structure it structure) files;
  fields

(* ------------------------------------------------------------------ *)
(* RHS classification                                                   *)

let container_modules = [ "Hashtbl"; "Queue"; "Buffer"; "Stack" ]

let allocator_fns =
  [ "create"; "make"; "init"; "of_seq"; "of_list"; "copy"; "of_string" ]

let is_safe_allocation lid =
  match lid with
  | Longident.Ldot (Longident.Ldot (Longident.Lident "Domain", "DLS"), _) ->
      true
  | Longident.Ldot (Longident.Lident ("Mutex" | "Condition" | "Semaphore"), _)
    ->
      true
  | _ -> false

let allocation_kind lid =
  let fn = Graph.last_of lid in
  match Graph.owner_of lid with
  | Some m when List.exists (String.equal m) container_modules
                && List.exists (String.equal fn) allocator_fns ->
      Some (Container m)
  | Some "Array"
    when List.exists (String.equal fn)
           [ "make"; "init"; "of_list"; "copy"; "append"; "concat"; "sub";
             "make_matrix" ] ->
      Some Array
  | Some "Bytes" when List.exists (String.equal fn) allocator_fns ->
      Some Bytes
  | Some "Atomic" when String.equal fn "make" -> Some Atomic
  | _ -> (
      match lid with
      | Longident.Lident "ref"
      | Longident.Ldot (Longident.Lident "Stdlib", "ref") ->
          Some Ref
      | _ -> None)

(** First mutable allocation in [expr], skipping function bodies (a
    per-call allocation is not shared) and safe-by-construction
    allocations (DLS keys, mutexes). *)
let classify ~fields expr =
  let found = ref None in
  let note k = match !found with Some _ -> () | None -> found := Some k in
  let rec go e =
    match !found with
    | Some _ -> ()
    | None -> (
        match e.pexp_desc with
        | Pexp_fun _ | Pexp_function _ -> ()
        | Pexp_newtype (_, inner) -> go inner
        | Pexp_lazy _ -> note Lazy_block
        | Pexp_array _ -> note Array
        | Pexp_record (record_fields, base) ->
            let mut =
              List.find_opt
                (fun ({ Location.txt = lid; _ }, _) ->
                  Hashtbl.mem fields (Graph.last_of lid))
                record_fields
            in
            (match mut with
            | Some ({ Location.txt = lid; _ }, _) ->
                note (Mutable_record (Graph.last_of lid))
            | None ->
                List.iter (fun (_, fe) -> go fe) record_fields;
                Option.iter go base)
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args)
          ->
            if is_safe_allocation lid then ()
            else (
              (match allocation_kind lid with
              | Some k -> note k
              | None -> ());
              match !found with
              | Some _ -> ()
              | None -> List.iter (fun (_, a) -> go a) args)
        | Pexp_let (_, vbs, body) ->
            List.iter (fun vb -> go vb.pvb_expr) vbs;
            go body
        | Pexp_sequence (a, b) ->
            go a;
            go b
        | Pexp_tuple es -> List.iter go es
        | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
            Option.iter go arg
        | Pexp_constraint (inner, _) | Pexp_coerce (inner, _, _) -> go inner
        | Pexp_ifthenelse (c, t, f) ->
            go c;
            go t;
            Option.iter go f
        | Pexp_open (_, inner) -> go inner
        | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
            go scrut;
            List.iter (fun c -> go c.pc_rhs) cases
        | _ -> ())
  in
  go expr;
  !found

(* ------------------------------------------------------------------ *)
(* Census over the graph                                                *)

type entry = { e_key : Graph.key; e_kind : kind; e_file : string; e_line : int }

let in_test path = String.starts_with ~prefix:"test/" path

(** Every top-level binding of the graph that allocates mutable state,
    in deterministic (module, value) order. A field declared under
    [test/] classifies only bindings under [test/]: the census is by
    name, so a test record's [mutable log] would otherwise make every
    record literal with a [log] field in the library look mutable. *)
let census ~files graph =
  let all_fields = mutable_fields files in
  let fields =
    mutable_fields (List.filter (fun (path, _) -> not (in_test path)) files)
  in
  List.filter_map
    (fun (b : Graph.binding) ->
      let fields = if in_test b.Graph.b_file then all_fields else fields in
      Option.map
        (fun k ->
          { e_key = b.Graph.b_key; e_kind = k; e_file = b.Graph.b_file;
            e_line = b.Graph.b_line })
        (classify ~fields b.Graph.b_expr))
    (Graph.all_bindings graph)

let find census key =
  List.find_opt (fun e -> Graph.key_equal e.e_key key) census
