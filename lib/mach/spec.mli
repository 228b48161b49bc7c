(** Key tables for the configuration's text forms.

    Each key of a text form is declared once: its name, the kind of its
    value, and how to read and write that value in the record. Printing
    and parsing both walk the same table, so the two directions cannot
    drift apart. Two framings read a table: the {e item} form
    ["k=v,k=v"] of fault plans and arrival specs prints only the values
    that differ from a zero record; the {e line} form of replay
    artifacts prints every key as one ["k = v"] line and requires each
    key that is not optional. *)

type _ kind =
  | Float : float kind  (** printed ["%.17g"], so it reads back bit for bit *)
  | Int : int kind
  | Bool : bool kind
  | Named : ('a -> string) * (string -> 'a option) -> 'a kind
      (** a constant printed by its name *)
  | Nested : ('a -> string) * (string -> ('a, string) result) -> 'a kind
      (** a value with its own grammar and error messages *)

type 'r key

(** [one name kind get set]: a key holding one value. An [optional] key
    may be absent from the line form, leaving the zero record's value. *)
val one :
  ?optional:bool -> string -> 'a kind -> ('r -> 'a) -> ('r -> 'a -> 'r) -> 'r key

(** [many name kind items add]: a key printed once per element of
    [items]; parsing [add]s each element. With [bare], the elements after
    the first print without ["name="], and an item without ['='] is one
    more element of the last such key parsed. *)
val many :
  ?bare:bool -> string -> 'a kind -> ('r -> 'a list) -> ('r -> 'a -> 'r) -> 'r key

(** Raised by a setter to refuse a value given the keys parsed before it;
    parsing returns the message. *)
exception Reject of string

val to_items : 'r key list -> zero:'r -> 'r -> string

(** Error messages start with [prefix]; an unknown key, or a key of
    {!one} given twice, is an error. *)
val of_items :
  prefix:string -> 'r key list -> zero:'r -> string -> ('r, string) result

val to_lines : 'r key list -> 'r -> string

(** Parse [(key, value)] pairs; an unknown or repeated key, or an absent
    key that is not optional, is an error. *)
val of_lines :
  prefix:string -> 'r key list -> zero:'r -> (string * string) list ->
  ('r, string) result

val print : 'a kind -> 'a -> string

(** [cut sep s] splits [s] around the first occurrence of [sep]. *)
val cut : string -> string -> (string * string) option

(** Split at the first ['='], trimming both sides. *)
val split_kv : string -> (string * string) option

(** Cap on time-like values, so ["%.17g"] never prints an exponent with
    a ['+'] in it (which would collide with the crash-entry separator). *)
val max_time : float

val finite_in : lo:float -> hi:float -> float -> bool

(** The message of the first condition that fails. *)
val checks : (bool * string) list -> (unit, string) result
