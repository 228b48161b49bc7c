(* Dedicated ivar suite: multiple waiters resumed together, read after
   fill, and a fill from a sibling process. Complements the smoke tests
   in test_sync.ml. *)

open Desim

let test_all_waiters_resumed_with_value () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let got = ref [] in
  for i = 0 to 3 do
    Engine.spawn eng (fun () ->
        let v = Ivar.read iv in
        got := (i, v, Engine.now eng) :: !got)
  done;
  Engine.spawn eng (fun () ->
      Engine.wait 2.5;
      Ivar.fill iv 7);
  Engine.run eng;
  Alcotest.(check int) "all four resumed" 4 (List.length !got);
  List.iter
    (fun (_, v, t) ->
      Alcotest.(check int) "value" 7 v;
      Alcotest.(check (float 1e-9)) "resumed at fill time" 2.5 t)
    !got

let test_read_after_fill_is_immediate () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv "ready";
  let t_read = ref nan in
  Engine.spawn eng (fun () ->
      Engine.wait 4.;
      let (_ : string) = Ivar.read iv in
      t_read := Engine.now eng);
  Engine.run eng;
  (* a filled ivar must not block the reader *)
  Alcotest.(check (float 1e-9)) "no blocking" 4. !t_read

let test_fill_from_sibling_process () =
  (* the commit-protocol shape: a cohort fills the ivar a coordinator is
     reading, both being simulation processes *)
  let eng = Engine.create () in
  let iv = Ivar.create () in
  let order = ref [] in
  Engine.spawn eng (fun () ->
      order := "wait" :: !order;
      let v = Ivar.read iv in
      order := Printf.sprintf "got %d" v :: !order);
  Engine.spawn eng (fun () ->
      Engine.wait 1.;
      order := "fill" :: !order;
      Ivar.fill iv 99);
  Engine.run eng;
  Alcotest.(check (list string))
    "reader resumes after the fill"
    [ "wait"; "fill"; "got 99" ]
    (List.rev !order)

let suite =
  [
    Alcotest.test_case "all waiters resumed with the value" `Quick
      test_all_waiters_resumed_with_value;
    Alcotest.test_case "read after fill is immediate" `Quick
      test_read_after_fill_is_immediate;
    Alcotest.test_case "fill from sibling process" `Quick
      test_fill_from_sibling_process;
  ]
