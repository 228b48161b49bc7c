(* The splitmix64 state lives unboxed in 8 bytes: an [int64] record
   field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

(* Inlined into every draw, so the output is not boxed either. *)
let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let next_int64 t = next t

let split t = of_state (next t)

(* 53 high bits -> float in [0,1). Inlined into the draws below, so
   their intermediate float is not boxed. *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let exponential t ~mean =
  assert (mean >= 0.0);
  if Float.equal mean 0.0 then 0.0
  else
    let u = float t in
    (* u is in [0,1); 1-u is in (0,1] so log is finite *)
    -.mean *. log (1.0 -. u)

let int t n =
  assert (n > 0);
  (* Rejection-free for simulation purposes: modulo bias is negligible for
     the small ranges used here (n << 2^63). *)
  let v = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem v (Int64.of_int n))

let int_range t ~lo ~hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t ~p = float t < p

(* The slot of the sparse map [pos.(0 .. m-1)] holding position [x], or
   [m] when [x] was never swapped into. *)
let rec slot pos m x s = if s < m && pos.(s) <> x then slot pos m x (s + 1) else s

let sample_into t ~n dst =
  let k = Array.length dst in
  assert (k <= n);
  (* Partial Fisher-Yates: step [i] swaps position [i] with a uniform
     [j >= i] and emits the value that lands at [i]. Only swapped-into
     positions hold a value other than their index; step [i] writes one,
     at [j] (position [i] is never read again), so at most [k] entries
     live in two small arrays, searched linearly: [k] is a page count per
     partition, and no hash table is built per call. *)
  let pos = Array.make k 0 and value = Array.make k 0 in
  let m = ref 0 in
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let si = slot pos !m i 0 and sj = slot pos !m j 0 in
    let vi = if si < !m then value.(si) else i in
    let vj = if sj < !m then value.(sj) else j in
    if sj < !m then value.(sj) <- vi
    else begin
      pos.(!m) <- j;
      value.(!m) <- vi;
      incr m
    end;
    dst.(i) <- vj
  done

let sample_without_replacement t ~n ~k =
  assert (0 <= k && k <= n);
  let a = Array.make k 0 in
  sample_into t ~n a;
  Array.fold_left (fun acc v -> v :: acc) [] a
