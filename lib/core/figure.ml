(** Data representation for reproduced figures: labelled series of (x, y)
    points, plus pretty-printing as the tables the bench harness emits. *)

type point = { x : float; y : float }

type series = { label : string; points : point list }

type t = {
  id : string;  (** e.g. "fig2" *)
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

let xs t =
  match t.series with
  | [] -> []
  | s :: _ -> List.map (fun p -> p.x) s.points

(** Value of [series] at [x], if present. *)
let value_at series x =
  List.find_map
    (fun p -> if Float.equal p.x x then Some p.y else None)
    series.points

let number fmt v =
  if Float.is_nan v then "-"
  else if Float.abs v >= 1000. then Printf.sprintf "%.0f" v
  else Printf.sprintf fmt v

(** Render as an aligned text table: one row per x, one column per series. *)
let to_table t =
  let buf = Buffer.create 1024 in
  let xs = xs t in
  let headers = t.xlabel :: List.map (fun s -> s.label) t.series in
  let rows =
    List.map
      (fun x ->
        number "%.4g" x
        :: List.map
             (fun s ->
               match value_at s x with
               | Some y -> number "%.4g" y
               | None -> "-")
             t.series)
      xs
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let pad w s = String.make (Stdlib.max 0 (w - String.length s)) ' ' ^ s in
  let emit_row cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (List.nth widths i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf
    (Printf.sprintf "== %s: %s ==\n   (y = %s)\n" t.id t.title t.ylabel);
  emit_row headers;
  emit_row (List.map (fun w -> String.make w '-') widths);
  List.iter emit_row rows;
  Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (String.concat ","
       (t.xlabel :: List.map (fun s -> s.label) t.series));
  Buffer.add_char buf '\n';
  List.iter
    (fun x ->
      Buffer.add_string buf (Printf.sprintf "%g" x);
      List.iter
        (fun s ->
          Buffer.add_char buf ',';
          match value_at s x with
          | Some y -> Buffer.add_string buf (Printf.sprintf "%g" y)
          | None -> ())
        t.series;
      Buffer.add_char buf '\n')
    (xs t);
  Buffer.contents buf
