(* Entry [i] of [len] sits in cell [(head + i) land (capacity - 1)]. The
   float column is empty until the first [push_with], then as long as
   the cells, and a growth moves both to the front of arrays twice as
   long. *)
type 'a t = {
  blank : 'a;
  mutable cells : 'a array;  (* capacity 0 or a power of two *)
  mutable floats : float array;
  mutable head : int;
  mutable len : int;
}

type float_cell = { mutable value : float }

let create blank = { blank; cells = [||]; floats = [||]; head = 0; len = 0 }
let is_empty r = r.len = 0
let length r = r.len

let grow r =
  let cap = Array.length r.cells in
  let ncap = if cap = 0 then 4 else 2 * cap in
  let cells = Array.make ncap r.blank in
  for i = 0 to r.len - 1 do
    cells.(i) <- r.cells.((r.head + i) land (cap - 1))
  done;
  if Array.length r.floats > 0 then begin
    let floats = Array.make ncap 0. in
    for i = 0 to r.len - 1 do
      floats.(i) <- r.floats.((r.head + i) land (cap - 1))
    done;
    r.floats <- floats
  end;
  r.cells <- cells;
  r.head <- 0

(* Queue [x] and return its cell. *)
let[@inline] push_cell r x =
  if r.len = Array.length r.cells then grow r;
  let i = (r.head + r.len) land (Array.length r.cells - 1) in
  r.cells.(i) <- x;
  r.len <- r.len + 1;
  i

let push r x = ignore (push_cell r x : int)

let pop r =
  if r.len = 0 then invalid_arg "Ring.pop: empty";
  let i = r.head in
  let x = r.cells.(i) in
  r.cells.(i) <- r.blank;
  r.head <- (i + 1) land (Array.length r.cells - 1);
  r.len <- r.len - 1;
  x

let push_with r x c =
  let i = push_cell r x in
  if Array.length r.floats = 0 then
    r.floats <- Array.make (Array.length r.cells) 0.;
  r.floats.(i) <- c.value

let pop_with r c =
  if Array.length r.floats > 0 then c.value <- r.floats.(r.head);
  pop r
