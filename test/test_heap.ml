open Desim

let test_push_pop_sorted () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some x ->
        out := x :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 9; 5; 4; 3; 2; 1; 1 ] !out

let test_empty () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek none" None (Heap.peek h);
  Alcotest.(check (option int)) "pop none" None (Heap.pop h)

let test_peek_does_not_remove () =
  let h = Heap.create ~cmp:Int.compare in
  Heap.push h 7;
  Alcotest.(check (option int)) "peek" (Some 7) (Heap.peek h);
  Alcotest.(check int) "size" 1 (Heap.size h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with Some x -> drain (x :: acc) | None -> acc
      in
      let out = List.rev (drain []) in
      out = List.sort Int.compare xs)

let prop_heap_size =
  QCheck.Test.make ~name:"heap size tracks pushes" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      Heap.size h = List.length xs)

let suite =
  [
    Alcotest.test_case "push/pop sorted" `Quick test_push_pop_sorted;
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "peek does not remove" `Quick test_peek_does_not_remove;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_heap_size;
  ]
