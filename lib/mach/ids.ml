(** Identifier types shared across the machine model. *)

(** A node of the database machine: the single host node (terminals,
    coordinators) or one of the processing nodes (data, cohorts). *)
type node_ref = Host | Proc of int

let node_ref_equal a b =
  match (a, b) with
  | Host, Host -> true
  | Proc i, Proc j -> i = j
  | Host, Proc _ | Proc _, Host -> false

let pp_node_ref fmt = function
  | Host -> Format.pp_print_string fmt "host"
  | Proc i -> Format.fprintf fmt "proc%d" i

(** A page of a file; files model relation partitions. *)
module Page = struct
  type t = int

  (* The file above the index: the integer order is the (file, index)
     order. Both fields get the same width, which leaves the top bits of
     the native int clear (a plan packs a page with a flag below it). *)
  let index_bits = (Sys.int_size - 3) / 2
  let file_limit = 1 lsl index_bits
  let index_limit = 1 lsl index_bits

  let make ~file ~index =
    if file < 0 || file >= file_limit || index < 0 || index >= index_limit
    then
      invalid_arg
        (Printf.sprintf "Ids.Page.make: file %d, index %d out of range" file
           index);
    (file lsl index_bits) lor index

  let of_int i =
    if i < 0 || i lsr index_bits >= file_limit then
      invalid_arg (Printf.sprintf "Ids.Page.of_int: %d is no page" i);
    i

  let file t = t lsr index_bits
  let index t = t land (index_limit - 1)
  let compare = Int.compare
  let equal = Int.equal
  let hash t = (file t * 1_000_003) + index t
  let pp fmt t = Format.fprintf fmt "f%d/p%d" (file t) (index t)
end

(** Hashtable keyed by pages. *)
module Page_table = Hashtbl.Make (struct
  type t = Page.t

  let equal = Page.equal
  let hash = Page.hash
end)
