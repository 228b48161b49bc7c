open Desim

let test_ivar_fill_before_read () =
  let eng = Engine.create () in
  let iv = Ivar.create () in
  Ivar.fill iv 5;
  let got = ref 0 in
  Engine.spawn eng (fun () -> got := Ivar.read iv);
  Engine.run eng;
  Alcotest.(check int) "immediate read" 5 !got

let test_ivar_double_fill () =
  let iv = Ivar.create () in
  Ivar.fill iv 1;
  Alcotest.check_raises "double fill"
    (Invalid_argument "Ivar.fill: already resolved") (fun () -> Ivar.fill iv 2)

let test_mailbox_order () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  Engine.spawn eng (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.spawn eng (fun () ->
      Mailbox.send mb "a";
      Engine.wait 1.;
      Mailbox.send mb "b";
      Mailbox.send mb "c");
  Engine.run eng;
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] (List.rev !got)

let test_mailbox_blocking_recv () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let t_recv = ref nan in
  Engine.spawn eng (fun () ->
      let (_ : int) = Mailbox.recv mb in
      t_recv := Engine.now eng);
  Engine.spawn eng (fun () ->
      Engine.wait 3.;
      Mailbox.send mb 1);
  Engine.run eng;
  Alcotest.(check (float 1e-9)) "woke at send time" 3. !t_recv

let test_mailbox_multiple_receivers () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let got = ref [] in
  for i = 1 to 2 do
    Engine.spawn eng (fun () ->
        let v = Mailbox.recv mb in
        got := (i, v) :: !got)
  done;
  Engine.spawn eng (fun () ->
      Mailbox.send mb "x";
      Mailbox.send mb "y");
  Engine.run eng;
  (* first-waiting receiver gets first message *)
  Alcotest.(check (list (pair int string)))
    "handed out in order"
    [ (1, "x"); (2, "y") ]
    (List.sort
       (fun (a, x) (b, y) ->
         match Int.compare a b with 0 -> String.compare x y | n -> n)
       !got)

let test_mailbox_try_recv () =
  let mb = Mailbox.create () in
  Alcotest.(check (option int)) "empty" None (Mailbox.try_recv mb);
  Mailbox.send mb 9;
  Alcotest.(check int) "length" 1 (Mailbox.length mb);
  Alcotest.(check (option int)) "nonempty" (Some 9) (Mailbox.try_recv mb);
  Alcotest.(check (option int)) "drained" None (Mailbox.try_recv mb)

let suite =
  [
    Alcotest.test_case "ivar fill before read" `Quick test_ivar_fill_before_read;
    Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
    Alcotest.test_case "mailbox order" `Quick test_mailbox_order;
    Alcotest.test_case "mailbox blocking recv" `Quick test_mailbox_blocking_recv;
    Alcotest.test_case "mailbox multiple receivers" `Quick
      test_mailbox_multiple_receivers;
    Alcotest.test_case "mailbox try_recv" `Quick test_mailbox_try_recv;
  ]
