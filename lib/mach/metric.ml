(** Typed metric registry and exposition (Prometheus text + JSON).

    A registry is an ordered list of metric families; each family has a
    stable name, a help string, a kind, and labeled samples. Machines build
    one at end of run ({!Machine.registry}) from their windowed metrics, the
    per-node rollups, and the tail-latency histograms; the CLI serializes it
    behind [--metrics-out]. Families are rendered in registration order and
    labels in the order given, so exposition output is deterministic. *)

open Desim

type kind = Counter | Gauge | Histogram

type value = V of float | H of Stats.Hdr.t

type sample = { labels : (string * string) list; value : value }

type family = {
  name : string;
  help : string;
  kind : kind;
  samples : sample list;
}

type t = family list

(** Quantiles every histogram family exposes, matching the tentpole set. *)
let quantiles = [ 0.5; 0.9; 0.95; 0.99; 0.999 ]

let sample ?(labels = []) value = { labels; value }

let family ~name ~help ~kind samples = { name; help; kind; samples }

let gauge ~name ~help v = family ~name ~help ~kind:Gauge [ sample (V v) ]

(* ------------------------------------------------------------------ *)
(* Rendering *)

let fmt_float x =
  if Float.is_nan x then "0"
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else if x > 0. then "1e308"
  else "-1e308"

let escape ~quote s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels buf labels =
  match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape ~quote:true v);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}'

let prom_line buf name labels v =
  Buffer.add_string buf name;
  prom_labels buf labels;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (fmt_float v);
  Buffer.add_char buf '\n'

(** Prometheus text exposition format. Histogram families are rendered as
    summaries (explicit [quantile] label per sample plus [_sum]/[_count]),
    which carries p50..p999 directly without a scrape-side
    [histogram_quantile] step; the full bucket detail lives in the JSON
    rendering. *)
let to_prometheus (t : t) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" f.name (escape ~quote:false f.help));
      let kind =
        match f.kind with
        | Counter -> "counter"
        | Gauge -> "gauge"
        | Histogram -> "summary"
      in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.name kind);
      List.iter
        (fun s ->
          match s.value with
          | V v -> prom_line buf f.name s.labels v
          | H h ->
              List.iter
                (fun q ->
                  prom_line buf f.name
                    (s.labels @ [ ("quantile", Printf.sprintf "%g" q) ])
                    (Stats.Hdr.quantile h q))
                quantiles;
              prom_line buf (f.name ^ "_sum") s.labels (Stats.Hdr.total h);
              prom_line buf (f.name ^ "_count") s.labels
                (float_of_int (Stats.Hdr.count h)))
        f.samples)
    t;
  Buffer.contents buf

let json_str buf s =
  Buffer.add_char buf '"';
  Buffer.add_string buf (escape ~quote:true s);
  Buffer.add_char buf '"'

let json_labels buf labels =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      json_str buf k;
      Buffer.add_char buf ':';
      json_str buf v)
    labels;
  Buffer.add_char buf '}'

(** JSON rendering: one object per family; histogram samples carry count,
    sum, the {!quantiles} set (keyed ["p50"], ["p99"], ...) and the
    non-empty cumulative buckets as [[upper_edge, cumulative_count]]
    pairs. *)
let to_json (t : t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"families\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"name\":";
      json_str buf f.name;
      Buffer.add_string buf ",\"help\":";
      json_str buf f.help;
      Buffer.add_string buf ",\"type\":";
      json_str buf
        (match f.kind with
        | Counter -> "counter"
        | Gauge -> "gauge"
        | Histogram -> "histogram");
      Buffer.add_string buf ",\"samples\":[";
      List.iteri
        (fun j s ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf "{\"labels\":";
          json_labels buf s.labels;
          (match s.value with
          | V v ->
              Buffer.add_string buf ",\"value\":";
              Buffer.add_string buf (fmt_float v)
          | H h ->
              Buffer.add_string buf
                (Printf.sprintf ",\"count\":%d" (Stats.Hdr.count h));
              Buffer.add_string buf ",\"sum\":";
              Buffer.add_string buf (fmt_float (Stats.Hdr.total h));
              Buffer.add_string buf ",\"quantiles\":{";
              List.iteri
                (fun k q ->
                  if k > 0 then Buffer.add_char buf ',';
                  json_str buf
                    (Printf.sprintf "p%s"
                       (String.concat ""
                          (String.split_on_char '.'
                             (Printf.sprintf "%g" (q *. 100.)))));
                  Buffer.add_char buf ':';
                  Buffer.add_string buf (fmt_float (Stats.Hdr.quantile h q)))
                quantiles;
              Buffer.add_string buf "},\"buckets\":[";
              List.iteri
                (fun k (le, cum) ->
                  if k > 0 then Buffer.add_char buf ',';
                  Buffer.add_string buf
                    (Printf.sprintf "[%s,%d]" (fmt_float le) cum))
                (Stats.Hdr.cumulative h);
              Buffer.add_char buf ']');
          Buffer.add_char buf '}')
        f.samples;
      Buffer.add_string buf "]}")
    t;
  Buffer.add_string buf "]}";
  Buffer.contents buf
