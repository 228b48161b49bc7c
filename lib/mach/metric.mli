(** Typed metric registry and exposition (Prometheus text + JSON).

    A registry is an ordered list of metric families: stable name, help
    string, kind, labeled samples. Machines build one at end of run from
    their windowed metrics, per-node utilization/queue rollups, and the
    tail-latency histograms; the CLI serializes it behind [--metrics-out].
    Families render in registration order and labels in the order given, so
    exposition output is deterministic. *)

type kind = Counter | Gauge | Histogram

type value =
  | V of float  (** counter / gauge reading *)
  | H of Desim.Stats.Hdr.t  (** histogram state *)

type sample = { labels : (string * string) list; value : value }

type family = {
  name : string;
  help : string;
  kind : kind;
  samples : sample list;
}

type t = family list

(** Quantiles every histogram family exposes: p50/p90/p95/p99/p999. *)
val quantiles : float list

val sample : ?labels:(string * string) list -> value -> sample
val family : name:string -> help:string -> kind:kind -> sample list -> family

(** Single-sample unlabeled family shorthand. *)
val gauge : name:string -> help:string -> float -> family

(** The body of a JSON string, also valid as a Prometheus label value:
    backslash, newline and the other control characters escaped, and the
    double quote too when [quote] (HELP text leaves it bare). *)
val escape : quote:bool -> string -> string

(** Prometheus text exposition format. Histogram families render as
    summaries — explicit [quantile]-labeled samples plus [_sum]/[_count] —
    so p50..p999 appear directly in the scrape; full bucket detail lives in
    {!to_json}. *)
val to_prometheus : t -> string

(** JSON rendering: [{"families":[...]}]; histogram samples carry count,
    sum, quantiles (["p50"].."p999"]) and non-empty cumulative buckets as
    [[upper_edge, cumulative_count]] pairs. *)
val to_json : t -> string
