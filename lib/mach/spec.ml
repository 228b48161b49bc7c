type _ kind =
  | Float : float kind
  | Int : int kind
  | Bool : bool kind
  | Named : ('a -> string) * (string -> 'a option) -> 'a kind
  | Nested : ('a -> string) * (string -> ('a, string) result) -> 'a kind

type 'r key =
  | One : {
      name : string;
      kind : 'a kind;
      get : 'r -> 'a;
      set : 'r -> 'a -> 'r;
      optional : bool;
    }
      -> 'r key
  | Many : {
      name : string;
      kind : 'a kind;
      items : 'r -> 'a list;
      add : 'r -> 'a -> 'r;
      bare : bool;
    }
      -> 'r key

let one ?(optional = false) name kind get set =
  One { name; kind; get; set; optional }

let many ?(bare = false) name kind items add =
  Many { name; kind; items; add; bare }

exception Reject of string

let ( let* ) = Result.bind
let name = function One { name; _ } | Many { name; _ } -> name

let print : type a. a kind -> a -> string = function
  | Float -> Printf.sprintf "%.17g"
  | Int -> string_of_int
  | Bool -> string_of_bool
  | Named (to_string, _) | Nested (to_string, _) -> to_string

let equal : type a. a kind -> a -> a -> bool = function
  | Float -> Float.equal
  | Int -> Int.equal
  | Bool -> Bool.equal
  | Named (to_string, _) | Nested (to_string, _) ->
      fun a b -> String.equal (to_string a) (to_string b)

let parse : type a.
    prefix:string -> string -> a kind -> string -> (a, string) result =
 fun ~prefix key kind v ->
  let known what = function
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "%s bad %s %S for %s" prefix what v key)
  in
  match kind with
  | Float -> known "number" (float_of_string_opt v)
  | Int -> known "integer" (int_of_string_opt v)
  | Bool -> known "boolean" (bool_of_string_opt v)
  | Named (_, of_string) -> known "value" (of_string v)
  | Nested (_, of_string) -> of_string v

let find ~prefix keys k =
  match List.find_opt (fun key -> name key = k) keys with
  | Some key -> Ok key
  | None -> Error (Printf.sprintf "%s unknown key %S" prefix k)

let set ~prefix key t v =
  let apply name kind f =
    let* x = parse ~prefix name kind v in
    try Ok (f t x) with Reject msg -> Error msg
  in
  match key with
  | One { name; kind; set; _ } -> apply name kind set
  | Many { name; kind; add; _ } -> apply name kind add

let cut sep s =
  let n = String.length sep and len = String.length s in
  let rec from i =
    if i + n > len then None
    else if String.sub s i n = sep then
      Some (String.sub s 0 i, String.sub s (i + n) (len - i - n))
    else from (i + 1)
  in
  from 0

let split_kv s =
  Option.map (fun (k, v) -> (String.trim k, String.trim v)) (cut "=" s)

let to_items keys ~zero t =
  List.concat_map
    (function
      | One { name; kind; get; _ } ->
          if equal kind (get t) (get zero) then []
          else [ name ^ "=" ^ print kind (get t) ]
      | Many { name; kind; items; bare; _ } ->
          List.mapi
            (fun i x ->
              if bare && i > 0 then print kind x else name ^ "=" ^ print kind x)
            (items t))
    keys
  |> String.concat ","

let of_items ~prefix keys ~zero s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun item -> item <> "")
  |> List.fold_left
       (fun acc item ->
         let* t, open_key, seen = acc in
         match (split_kv item, open_key) with
         | Some (k, v), _ ->
             let* key = find ~prefix keys k in
             let* () =
               match key with
               | One _ when List.mem k seen ->
                   Error (Printf.sprintf "%s repeated key %S" prefix k)
               | One _ | Many _ -> Ok ()
             in
             let* t = set ~prefix key t v in
             Ok
               ( t,
                 (match key with
                 | Many { bare = true; _ } -> Some key
                 | Many { bare = false; _ } | One _ -> open_key),
                 k :: seen )
         | None, Some key ->
             let* t = set ~prefix key t item in
             Ok (t, open_key, seen)
         | None, None ->
             Error (Printf.sprintf "%s bad item %S (want key=value)" prefix item))
       (Ok (zero, None, []))
  |> Result.map (fun (t, _, _) -> t)

let to_lines keys t =
  List.concat_map
    (function
      | One { name; kind; get; _ } -> [ name ^ " = " ^ print kind (get t) ]
      | Many { name; kind; items; _ } ->
          List.map (fun x -> name ^ " = " ^ print kind x) (items t))
    keys
  |> String.concat "\n"

let of_lines ~prefix keys ~zero assoc =
  let* t =
    List.fold_left
      (fun acc (k, v) ->
        let* t = acc in
        let* key = find ~prefix keys k in
        match key with
        | One _ when List.length (List.filter (fun (k', _) -> k' = k) assoc) > 1
          ->
            Error (Printf.sprintf "%s repeated key %S" prefix k)
        | One _ | Many _ -> set ~prefix key t v)
      (Ok zero) assoc
  in
  let absent = function
    | One { name; optional = false; _ } -> not (List.mem_assoc name assoc)
    | One { optional = true; _ } | Many _ -> false
  in
  match List.find_opt absent keys with
  | Some key -> Error (Printf.sprintf "%s missing field %S" prefix (name key))
  | None -> Ok t

let max_time = 1e9
let finite_in ~lo ~hi v = Float.is_finite v && v >= lo && v <= hi

let checks conds =
  match List.find_opt (fun (ok, _) -> not ok) conds with
  | Some (_, msg) -> Error msg
  | None -> Ok ()
