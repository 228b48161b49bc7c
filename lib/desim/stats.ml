module Tally = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable total : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; total = 0. }

  let reset t =
    t.n <- 0;
    t.mean <- 0.;
    t.m2 <- 0.;
    t.total <- 0.

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean))

  let count t = t.n
  let total t = t.total
  let mean t = if t.n = 0 then 0. else t.mean
  let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)

  let ci95 t =
    if t.n < 2 then 0.
    else 1.96 *. stddev t /. sqrt (float_of_int t.n)
end

module Timeseries = struct
  type t = {
    mutable window_start : float;
    mutable last_time : float;
    mutable last_value : float;
    mutable area : float;
    mutable total_area : float;  (** lifetime area; never reset *)
  }

  let create ~now ~value =
    {
      window_start = now;
      last_time = now;
      last_value = value;
      area = 0.;
      total_area = 0.;
    }

  let[@inline] flush t ~now =
    if now > t.last_time then begin
      let slab = t.last_value *. (now -. t.last_time) in
      t.area <- t.area +. slab;
      t.total_area <- t.total_area +. slab;
      t.last_time <- now
    end

  let[@inline] update t ~now ~value =
    flush t ~now;
    t.last_value <- value

  let set_window t ~now =
    flush t ~now;
    t.window_start <- now;
    t.area <- 0.

  let value t = t.last_value

  let average t ~now =
    let span = now -. t.window_start in
    if span <= 0. then t.last_value
    else t.area +. (t.last_value *. (now -. t.last_time)) |> fun a -> a /. span

  let total_area t ~now =
    t.total_area +. (t.last_value *. Float.max 0. (now -. t.last_time))
end

module Utilization = struct
  type t = { clock : Engine.clock; ts : Timeseries.t }

  let create (clock : Engine.clock) =
    { clock; ts = Timeseries.create ~now:clock.now ~value:0. }

  let set_busy t ~busy =
    Timeseries.update t.ts ~now:t.clock.now ~value:(if busy then 1.0 else 0.0)

  let set_window t = Timeseries.set_window t.ts ~now:t.clock.now
  let value t = Timeseries.average t.ts ~now:t.clock.now
  let busy_time t = Timeseries.total_area t.ts ~now:t.clock.now
end

module Batch_means = struct
  type t = {
    batch_size : int;
    batch_stats : Tally.t;  (** one observation per completed batch *)
    mutable current_sum : float;
    mutable current_n : int;
    mutable total : int;
  }

  let create ~batch_size =
    assert (batch_size > 0);
    {
      batch_size;
      batch_stats = Tally.create ();
      current_sum = 0.;
      current_n = 0;
      total = 0;
    }

  let add t x =
    t.total <- t.total + 1;
    t.current_sum <- t.current_sum +. x;
    t.current_n <- t.current_n + 1;
    if t.current_n = t.batch_size then begin
      Tally.add t.batch_stats (t.current_sum /. float_of_int t.batch_size);
      t.current_sum <- 0.;
      t.current_n <- 0
    end

  let count t = t.total
  let batches t = Tally.count t.batch_stats
  let mean t = Tally.mean t.batch_stats

  (* two-sided 97.5% t quantiles for small degrees of freedom, then the
     normal approximation *)
  let t_quantile df =
    match df with
    | 1 -> 12.706
    | 2 -> 4.303
    | 3 -> 3.182
    | 4 -> 2.776
    | 5 -> 2.571
    | 6 -> 2.447
    | 7 -> 2.365
    | 8 -> 2.306
    | 9 -> 2.262
    | 10 -> 2.228
    | 15 -> 2.131
    | 20 -> 2.086
    | df when df <= 12 -> 2.2
    | df when df <= 17 -> 2.12
    | df when df <= 25 -> 2.07
    | df when df <= 40 -> 2.02
    | _ -> 1.96

  let ci95 t =
    let n = batches t in
    if n < 2 then 0.
    else
      t_quantile (n - 1) *. Tally.stddev t.batch_stats /. sqrt (float_of_int n)

  let reset t =
    Tally.reset t.batch_stats;
    t.current_sum <- 0.;
    t.current_n <- 0;
    t.total <- 0
end

module Hdr = struct
  (* Bucket edges are exactly representable (power-of-two octave times
     1 + s/2^sub_bits), and the bucket index is derived from the raw IEEE-754
     bits of the sample, so bucketing involves no float arithmetic at all:
     identical samples land in identical buckets on every host, which is what
     keeps quantiles bit-identical across --jobs layouts. *)
  let min_exp = -20 (* lowest octave: bucket 0 starts at 2^min_exp *)
  let max_exp = 12 (* values >= 2^max_exp clamp into the last bucket *)
  let sub_bits = 6 (* 2^sub_bits buckets per octave *)
  let nbuckets = (max_exp - min_exp) lsl sub_bits

  type t = { counts : int array; mutable n : int; mutable total : float }

  let create () = { counts = Array.make nbuckets 0; n = 0; total = 0. }

  let reset t =
    Array.fill t.counts 0 nbuckets 0;
    t.n <- 0;
    t.total <- 0.

  let count t = t.n
  let total t = t.total
  let rel_error = ldexp 1. (-sub_bits)

  let index x =
    if not (x > 0.) then 0 (* <= 0 and nan collapse into the first bucket *)
    else begin
      let bits = Int64.bits_of_float x in
      let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
      let sub =
        Int64.to_int
          (Int64.logand
             (Int64.shift_right_logical bits (52 - sub_bits))
             (Int64.of_int ((1 lsl sub_bits) - 1)))
      in
      (* subnormals have biased exponent 0 -> a large negative index -> 0 *)
      let i = ((biased - 1023 - min_exp) lsl sub_bits) lor sub in
      if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i
    end

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    let i = index x in
    t.counts.(i) <- t.counts.(i) + 1

  (* Lower edge of bucket [i], built directly from exponent/mantissa bits so
     it is the exact infimum of the floats that map to bucket [i]. Also valid
     for i = nbuckets (the upper edge of the last bucket). *)
  let lower_edge i =
    let octave = i asr sub_bits and sub = i land ((1 lsl sub_bits) - 1) in
    Int64.float_of_bits
      (Int64.logor
         (Int64.shift_left (Int64.of_int (octave + min_exp + 1023)) 52)
         (Int64.shift_left (Int64.of_int sub) (52 - sub_bits)))

  let upper_edge i = lower_edge (i + 1)

  (* Same rank convention as exact sorted-sample percentiles elsewhere in the
     repo: the order statistic at idx = min (n-1) (int (n*q)). We return the
     upper edge of the bucket holding that sample, so the result
     over-estimates the exact quantile by at most a factor 1 + 2^-sub_bits
     (for in-range samples). *)
  let quantile t q =
    if t.n = 0 then 0.
    else begin
      let idx =
        min (t.n - 1) (int_of_float (float_of_int t.n *. q))
      in
      let rec go i cum =
        if i >= nbuckets - 1 then upper_edge i
        else
          let cum = cum + t.counts.(i) in
          if cum > idx then upper_edge i else go (i + 1) cum
      in
      go 0 0
    end

  let cumulative t =
    let acc = ref [] and cum = ref 0 in
    for i = nbuckets - 1 downto 0 do
      if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
    done;
    List.map
      (fun (i, c) ->
        cum := !cum + c;
        (upper_edge i, !cum))
      !acc
end
