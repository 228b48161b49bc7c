(** The determinism-hazard rules, implemented over the untyped parsetree
    ([compiler-libs.common]: {!Parse.implementation} + {!Ast_iterator}).

    Working without types keeps the pass dependency-free and fast, at the
    price of syntactic heuristics; each rule documents its blind spots.
    The rules err toward precision (no finding on idiomatic clean code)
    because the tree is kept at zero non-baselined findings. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                    *)

let rec last_of = function
  | Longident.Lident n -> n
  | Longident.Ldot (_, n) -> n
  | Longident.Lapply (_, p) -> last_of p

let rec root_of = function
  | Longident.Lident n -> n
  | Longident.Ldot (p, _) -> root_of p
  | Longident.Lapply (p, _) -> root_of p

(* Module component naming the value, e.g. [Hashtbl] in
   [Stdlib.Hashtbl.fold]. *)
let owner_of = function
  | Longident.Ldot (p, _) -> Some (last_of p)
  | Longident.Lident _ | Longident.Lapply _ -> None

let fn_of = function
  | Longident.Lident n | Longident.Ldot (_, n) -> Some n
  | Longident.Lapply _ -> None

(* ------------------------------------------------------------------ *)
(* Locations                                                            *)

let line_of (loc : Location.t) = loc.loc_start.Lexing.pos_lnum
let col_of (loc : Location.t) =
  loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol

let loc_equal (a : Location.t) (b : Location.t) =
  Int.equal a.loc_start.Lexing.pos_cnum b.loc_start.Lexing.pos_cnum
  && Int.equal a.loc_end.Lexing.pos_cnum b.loc_end.Lexing.pos_cnum

(* ------------------------------------------------------------------ *)
(* Context: the protected variant types (D6)                            *)

(** Variant constructors of the machine's lifecycle-event and
    coordinator-message types, collected from the tree itself (so the
    rule stays correct when events are added). *)
type ctx = { variant_groups : (string * string list) list }
    (** (qualifying module name, constructor names) *)

let empty_ctx = { variant_groups = [] }

(* Which declarations feed D6: (path suffix, module name, type names). *)
let protected_types =
  [
    ("lib/mach/event.ml", "Event", [ "t" ]);
    ("lib/core/messages.ml", "Messages", [ "cohort_msg"; "coord_msg" ]);
  ]

let collect_ctx files =
  let groups = ref [] in
  List.iter
    (fun (path, structure) ->
      List.iter
        (fun (suffix, qualifier, type_names) ->
          if String.ends_with ~suffix path then
            List.iter
              (fun item ->
                match item.pstr_desc with
                | Pstr_type (_, decls) ->
                    List.iter
                      (fun decl ->
                        if
                          List.exists
                            (String.equal decl.ptype_name.Location.txt)
                            type_names
                        then
                          match decl.ptype_kind with
                          | Ptype_variant ctors ->
                              let names =
                                List.map
                                  (fun c -> c.pcd_name.Location.txt)
                                  ctors
                              in
                              groups := (qualifier, names) :: !groups
                          | Ptype_abstract | Ptype_record _ | Ptype_open ->
                              ())
                      decls
                | _ -> ())
              structure)
        protected_types)
    files;
  { variant_groups = List.rev !groups }

(* ------------------------------------------------------------------ *)
(* Syntactic classifiers                                                *)

let is_stdlib_qualified lid n =
  match lid with
  | Longident.Ldot (Longident.Lident "Stdlib", m) -> String.equal m n
  | _ -> false

(* [compare] that can only be the polymorphic one: bare (unless the file
   rebinds [compare] somewhere, a file-granular shadowing test) or
   [Stdlib.]-qualified. *)
let is_poly_compare ~shadowed lid =
  (match lid with
  | Longident.Lident "compare" -> not shadowed
  | _ -> false)
  || is_stdlib_qualified lid "compare"

let is_poly_hash lid =
  match lid with
  | Longident.Ldot (p, ("hash" | "seeded_hash")) ->
      String.equal (last_of p) "Hashtbl"
  | _ -> false

let eq_operator lid =
  match lid with
  | Longident.Lident (("=" | "<>") as op) -> Some op
  | Longident.Ldot (Longident.Lident "Stdlib", (("=" | "<>") as op)) ->
      Some op
  | _ -> None

(* A module that is (or instantiates) a hash table, by naming
   convention: [Hashtbl] itself or a [Hashtbl.Make] instance named
   [Table] / [..._table] / [...Tbl] (e.g. [Txn.Table], [Page_table]). *)
let is_hashtable_module m =
  String.equal m "Hashtbl" || String.equal m "Table"
  ||
  let l = String.lowercase_ascii m in
  String.ends_with ~suffix:"_table" l || String.ends_with ~suffix:"tbl" l

let hashtable_escape lid =
  match (owner_of lid, fn_of lid) with
  | Some m, Some fn when is_hashtable_module m -> (
      match fn with
      | "iter" -> Some `Iter
      | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values" -> Some `Escape
      | _ -> None)
  | _ -> None

(* D3: ambient nondeterminism sources. *)
let ambient_source lid =
  let root = root_of lid in
  match (root, fn_of lid) with
  | "Random", _ -> Some "Random"
  | "Sys", Some "time" -> Some "Sys.time"
  | "Unix", Some ("gettimeofday" | "time") -> Some "Unix wall clock"
  | "Hashtbl", Some "randomize" -> Some "Hashtbl.randomize"
  | _ -> None

(* Operand that is syntactically a structured value: constructor or
   polymorphic variant *carrying an argument*, tuple, record, or array.
   Nullary constructors ([None], [[]], [Committed], ...) are immediate
   values — comparing them with (=) is deterministic and idiomatic, so
   they are deliberately out of scope. *)
let rec is_compound e =
  match e.pexp_desc with
  | Pexp_construct (_, Some _)
  | Pexp_variant (_, Some _)
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ ->
      true
  | Pexp_construct (_, None) | Pexp_variant (_, None) -> false
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> is_compound e
  | _ -> false

(* Operand that is syntactically a float: a float literal or float
   arithmetic. (Blind spot: a plain float-typed variable is invisible
   without types.) *)
let rec is_floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply
      ( {
          pexp_desc =
            Pexp_ident
              { txt = Longident.Lident ("+." | "-." | "*." | "/." | "**" | "~-.");
                _ };
          _;
        },
        _ ) ->
      true
  | Pexp_constraint (e, _) -> is_floatish e
  | _ -> false

(* An explicit-comparator sort: [List.sort f], [Array.sort f], ... where
   [f] is not itself bare polymorphic [compare]. *)
let is_explicit_sort ~shadowed e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, args) -> (
      match (owner_of lid, fn_of lid) with
      | Some ("List" | "Array" | "ListLabels" | "ArrayLabels"), Some
          ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") -> (
          match
            List.find_opt
              (fun (label, _) ->
                match label with
                | Asttypes.Nolabel -> true
                | Asttypes.Labelled _ | Asttypes.Optional _ -> false)
              args
          with
          | Some
              (_, { pexp_desc = Pexp_ident { txt = cmp_lid; _ }; _ }) ->
              not (is_poly_compare ~shadowed cmp_lid)
          | Some _ -> true
          | None -> false)
      | _ -> false)
  | _ -> false

(* An application whose result carries hash-table contents out in
   iteration order: [Hashtbl.fold ...], [Hashtbl.to_seq ...]. *)
let is_escape_app e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = lid; _ }; _ }, _) -> (
      match hashtable_escape lid with Some `Escape -> true | _ -> false)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* File-granular [compare] shadowing                                    *)

let shadows_compare structure =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let value_binding iter vb =
    (match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = "compare"; _ } -> found := true
    | _ -> ());
    super.value_binding iter vb
  in
  let it = { super with value_binding } in
  it.structure it structure;
  !found

(* ------------------------------------------------------------------ *)
(* D6: catch-all over protected variants                                *)

(* Top-level constructor heads of a case pattern, through or-patterns,
   aliases and constraints. *)
let rec pattern_heads p =
  match p.ppat_desc with
  | Ppat_construct ({ txt = lid; _ }, _) -> (
      match lid with
      | Longident.Lident n -> [ (None, n) ]
      | Longident.Ldot (path, n) -> [ (Some (last_of path), n) ]
      | Longident.Lapply _ -> [])
  | Ppat_or (a, b) -> pattern_heads a @ pattern_heads b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> pattern_heads p
  | Ppat_open (_, p) -> pattern_heads p
  | _ -> []

let rec catch_all_loc p =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> Some p.ppat_loc
  | Ppat_or (a, b) -> (
      match catch_all_loc a with Some l -> Some l | None -> catch_all_loc b)
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) ->
      catch_all_loc p
  | _ -> None

(* Does this case list match one of the protected variant types? A
   qualified constructor ([Event.Committed _]) is conclusive; otherwise
   two distinct unqualified constructor names from the same type are
   required, to avoid misfiring on unrelated variants that happen to
   share one name. *)
let matches_protected ctx heads =
  List.exists
    (fun (qualifier, ctors) ->
      let qualified_hit =
        List.exists
          (fun (q, n) ->
            match q with
            | Some q ->
                String.equal q qualifier
                && List.exists (String.equal n) ctors
            | None -> false)
          heads
      in
      let unqualified_hits =
        List.filter_map
          (fun (q, n) ->
            match q with
            | None when List.exists (String.equal n) ctors -> Some n
            | _ -> None)
          heads
        |> List.sort_uniq String.compare
      in
      qualified_hit || List.length unqualified_hits >= 2)
    ctx.variant_groups

(* ------------------------------------------------------------------ *)
(* The scan                                                             *)

let scan ctx ~path structure =
  let findings = ref [] in
  let add ~rule ~loc ~msg ~hint =
    findings :=
      Finding.v ~rule ~file:path ~line:(line_of loc) ~col:(col_of loc) ~msg
        ~hint
      :: !findings
  in
  let shadowed = shadows_compare structure in
  let in_rng = String.ends_with ~suffix:"lib/desim/rng.ml" path in
  let d6_scope =
    String.starts_with ~prefix:"lib/" path
    || String.starts_with ~prefix:"bin/" path
  in
  (* Hashtbl.fold/to_seq applications sanctioned by an enclosing
     explicit-comparator sort; recorded top-down before the node itself
     is visited. *)
  let sunk = ref [] in
  let mark_sunk e = sunk := e.pexp_loc :: !sunk in
  let is_sunk e = List.exists (loc_equal e.pexp_loc) !sunk in

  let check_ident ~applied lid loc =
    (match ambient_source lid with
    | Some what when not in_rng ->
        add ~rule:Finding.Ambient ~loc
          ~msg:(what ^ " is ambient nondeterminism")
          ~hint:
            "draw from the seeded Desim.Rng streams (lib/desim/rng.ml); \
             wall-clock profiling needs a '(* lint: allow ambient *)'"
    | _ -> ());
    if is_poly_compare ~shadowed lid then
      add ~rule:Finding.Poly_compare ~loc
        ~msg:
          (if applied then "polymorphic compare applied to its arguments"
           else "polymorphic compare used as a first-class comparator")
        ~hint:
          "use a typed comparator (Int.compare, Float.compare, \
           Page.compare, ...)";
    if is_poly_hash lid then
      add ~rule:Finding.Poly_compare ~loc
        ~msg:"polymorphic Hashtbl.hash"
        ~hint:"hash the scalar fields explicitly (see Ids.Page.hash)";
    if (not applied) && Option.is_some (eq_operator lid) then
      add ~rule:Finding.Poly_compare ~loc
        ~msg:"polymorphic equality used as a first-class function"
        ~hint:"pass a typed equality (Int.equal, String.equal, ...)"
  in

  let check_eq_apply op args loc =
    match args with
    | (_, a) :: (_, b) :: _ ->
        if is_floatish a || is_floatish b then
          add ~rule:Finding.Float_eq ~loc
            ~msg:
              (Printf.sprintf "float (%s) comparison" op)
            ~hint:
              "exact float equality is a simulated-time hazard: compare \
               with Float.equal (intent explicit) or an epsilon"
        else if is_compound a || is_compound b then
          add ~rule:Finding.Poly_compare ~loc
            ~msg:
              (Printf.sprintf
                 "polymorphic (%s) on a structured operand" op)
            ~hint:
              "match on the shape instead (List.is_empty, Option.is_none, \
               a typed equal)"
    | [ _ ] ->
        (* partial application: the comparison escapes as a function *)
        add ~rule:Finding.Poly_compare ~loc
          ~msg:"polymorphic equality used as a first-class function"
          ~hint:"pass a typed equality (Int.equal, String.equal, ...)"
    | [] -> ()
  in

  let check_cases loc cases =
    if d6_scope then
      let heads = List.concat_map (fun c -> pattern_heads c.pc_lhs) cases in
      if matches_protected ctx heads then
        match
          List.find_map (fun c -> catch_all_loc c.pc_lhs) cases
        with
        | Some wild_loc ->
            add ~rule:Finding.Catch_all_event ~loc:wild_loc
              ~msg:
                "catch-all branch over the lifecycle-event/message variants"
              ~hint:
                "enumerate the remaining constructors so new events cannot \
                 be dropped silently"
        | None -> ignore loc
  in

  let super = Ast_iterator.default_iterator in
  let expr iter e =
    match e.pexp_desc with
    | Pexp_ident { txt = lid; _ } -> check_ident ~applied:false lid e.pexp_loc
    | Pexp_apply (head, args) ->
        (match head.pexp_desc with
        | Pexp_ident { txt = lid; _ } -> (
            check_ident ~applied:true lid head.pexp_loc;
            (match eq_operator lid with
            | Some op -> check_eq_apply op args e.pexp_loc
            | None -> ());
            (match hashtable_escape lid with
            | Some `Iter ->
                add ~rule:Finding.Hashtbl_order ~loc:e.pexp_loc
                  ~msg:"Hashtbl.iter visits bindings in hash order"
                  ~hint:
                    "fold to a list and sort with an explicit comparator, \
                     or justify commutativity with '(* lint: allow \
                     hashtbl-order *)'"
            | Some `Escape when not (is_sunk e) ->
                add ~rule:Finding.Hashtbl_order ~loc:e.pexp_loc
                  ~msg:
                    "hash-order-dependent result escapes without an \
                     explicit-comparator sort"
                  ~hint:
                    "pipe into List.sort with a typed comparator before \
                     the result escapes"
            | Some `Escape | None -> ());
            (* Sanction folds that feed an explicit sort. *)
            match (fn_of lid, args) with
            | Some "|>", [ (_, lhs); (_, rhs) ]
              when is_escape_app lhs && is_explicit_sort ~shadowed rhs ->
                mark_sunk lhs
            | Some "@@", [ (_, f); (_, x) ]
              when is_escape_app x && is_explicit_sort ~shadowed f ->
                mark_sunk x
            | _ ->
                if is_explicit_sort ~shadowed e then
                  List.iter
                    (fun (_, a) -> if is_escape_app a then mark_sunk a)
                    args)
        | _ -> iter.Ast_iterator.expr iter head);
        List.iter (fun (_, a) -> iter.Ast_iterator.expr iter a) args
    | Pexp_match (_, cases) | Pexp_function cases ->
        check_cases e.pexp_loc cases;
        super.expr iter e
    | _ -> super.expr iter e
  in
  let value_binding iter vb =
    (* [let compare = compare]: rebinding the polymorphic comparator
       (e.g. in a [Set.Make] argument) shadows itself, so the ordinary
       ident check above would miss it. *)
    (match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
    | Ppat_var { txt = "compare"; _ }, Pexp_ident { txt = lid; _ }
      when shadowed
           && (match lid with
              | Longident.Lident "compare" -> true
              | _ -> is_stdlib_qualified lid "compare") ->
        add ~rule:Finding.Poly_compare ~loc:vb.pvb_loc
          ~msg:"rebinding the polymorphic compare"
          ~hint:"write an explicit comparator over the key's fields"
    | _ -> ());
    super.value_binding iter vb
  in
  let it = { super with expr; value_binding } in
  it.structure it structure;
  List.rev !findings
