(* The kernels' FIFO against Stdlib's [Queue]: random pushes and pops
   that wrap the ring around and grow it while wrapped, each entry with
   its float beside it, as the CPU's message class keeps its jobs'
   work. *)

open Desim

let test_matches_queue () =
  let rng = Rng.create 17 in
  let ring = Ring.create (-1) in
  let cell = { Ring.value = 0. } in
  let model = Queue.create () in
  for step = 1 to 20_000 do
    (* pushes outnumber pops early on, so the ring grows while wrapped;
       later pops catch up and drain it *)
    let push_bias = if step < 10_000 then 0.55 else 0.45 in
    if Queue.is_empty model || Rng.float rng < push_bias then begin
      let w = float_of_int step /. 8. in
      cell.value <- w;
      Ring.push_with ring step cell;
      Queue.push (step, w) model
    end
    else begin
      let x = Ring.pop_with ring cell in
      Alcotest.(check (pair int (float 0.)))
        "the oldest entry and its float" (Queue.pop model) (x, cell.value)
    end;
    Alcotest.(check int) "length" (Queue.length model) (Ring.length ring)
  done;
  while not (Queue.is_empty model) do
    ignore (Queue.pop model);
    ignore (Ring.pop ring : int)
  done;
  Alcotest.(check bool) "drained" true (Ring.is_empty ring);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Ring.pop: empty")
    (fun () -> ignore (Ring.pop ring : int))

(* A pop writes the blank into the cell it empties: a ring keeps nothing
   alive that it has handed out, the blank aside, as a disk must not keep
   a woken process's resolver and with it the process's stack. *)
let test_pop_keeps_nothing () =
  let ring = Ring.create [||] in
  let empty = Obj.reachable_words (Obj.repr ring) in
  for _ = 1 to 3 do
    Ring.push ring (Array.make 1_000 0)
  done;
  for _ = 1 to 3 do
    ignore (Ring.pop ring : int array)
  done;
  (* the cells, built on the first push, are all that is new *)
  Alcotest.(check int) "words kept" (empty + 5) (Obj.reachable_words (Obj.repr ring))

let suite =
  [
    Alcotest.test_case "matches a queue across wraps and growth" `Quick
      test_matches_queue;
    Alcotest.test_case "a pop keeps nothing alive" `Quick test_pop_keeps_nothing;
  ]
