type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable len : int;
}

let create ~cmp = { cmp; data = [||]; len = 0 }

let size h = h.len
let is_empty h = h.len = 0

let grow h x =
  let cap = Array.length h.data in
  if h.len = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nd = Array.make ncap x in
    Array.blit h.data 0 nd 0 h.len;
    h.data <- nd
  end

(* Both sifts move a hole instead of swapping: each level costs one write,
   and [x] is written once where the hole stops. *)
let sift_up h i x =
  let data = h.data in
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if h.cmp x data.(parent) < 0 then begin
      data.(!i) <- data.(parent);
      i := parent
    end
    else moving := false
  done;
  data.(!i) <- x

let sift_down h i x =
  let data = h.data and len = h.len in
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= len then moving := false
    else begin
      let r = l + 1 in
      let c = if r < len && h.cmp data.(r) data.(l) < 0 then r else l in
      if h.cmp data.(c) x < 0 then begin
        data.(!i) <- data.(c);
        i := c
      end
      else moving := false
    end
  done;
  data.(!i) <- x

let push h x =
  grow h x;
  h.len <- h.len + 1;
  sift_up h (h.len - 1) x

let peek h = if h.len = 0 then None else Some h.data.(0)

exception Empty

let top h =
  if h.len = 0 then raise Empty;
  h.data.(0)

let drop h =
  if h.len = 0 then raise Empty;
  h.len <- h.len - 1;
  if h.len > 0 then sift_down h 0 h.data.(h.len)

let pop h =
  if h.len = 0 then None
  else begin
    let x = top h in
    drop h;
    Some x
  end

let clear h =
  h.data <- [||];
  h.len <- 0

let fold h ~init ~f =
  let acc = ref init in
  for i = 0 to h.len - 1 do
    acc := f !acc h.data.(i)
  done;
  !acc
