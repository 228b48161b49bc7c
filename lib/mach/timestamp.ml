(** Globally unique, totally ordered timestamps.

    Built from a simulated time plus a tie-breaking sequence number drawn
    from a shared allocator, as a real system would combine a clock with a
    site/sequence suffix. *)

type t = { time : float; uniq : int }

let compare a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.uniq b.uniq

let equal a b = compare a b = 0
let max a b = if Stdlib.( >= ) (compare a b) 0 then a else b
let ( < ) a b = compare a b < 0
let ( > ) a b = compare a b > 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0

let pp fmt t = Format.fprintf fmt "%.6f#%d" t.time t.uniq

(** Allocator of unique suffixes; one per simulation run. *)
module Clock = struct
  type ts = t
  type t = { mutable next : int }

  let create () = { next = 0 }

  let make t ~time =
    let uniq = t.next in
    t.next <- t.next + 1;
    { time; uniq }
end
