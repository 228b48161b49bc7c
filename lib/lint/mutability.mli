(** Classification of top-level mutable state: which bindings of the
    {!Graph} allocate something writable at module-initialization time
    (shared across every domain that can reach them). Allocations inside
    function bodies are per-call and not counted; [Domain.DLS.new_key]
    and mutex/condition/semaphore creation are domain-safe and exempt. *)

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

val kind_to_string : kind -> string

val mutable_fields : (string * Parsetree.structure) list -> (string, unit) Hashtbl.t
(** Field names declared [mutable] anywhere in the scanned tree
    (name-based: the untyped parsetree cannot connect a record literal
    to its declaration). *)

val classify :
  fields:(string, unit) Hashtbl.t -> Parsetree.expression -> kind option
(** First mutable allocation in a right-hand side, skipping function
    bodies and domain-safe allocations. *)

type entry = { e_key : Graph.key; e_kind : kind; e_file : string; e_line : int }

val census : files:(string * Parsetree.structure) list -> Graph.t -> entry list
(** Every top-level binding that allocates mutable state, in
    deterministic (module, value) order. Fields declared under [test/]
    classify only bindings under [test/]. *)

val find : entry list -> Graph.key -> entry option
