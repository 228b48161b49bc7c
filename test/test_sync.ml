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

(* A zero-time receive polls: it takes a queued message at once and
   times out at once on an empty mailbox. *)
let test_mailbox_try_recv () =
  let eng = Engine.create () in
  let mb = Mailbox.create () in
  let polls = ref [] in
  let poll () = polls := Mailbox.recv_timeout mb eng ~timeout:0. :: !polls in
  Engine.spawn eng (fun () ->
      poll ();
      Mailbox.send mb 9;
      poll ();
      poll ());
  Engine.run eng;
  Alcotest.(check (list (option int)))
    "empty, nonempty, drained" [ None; Some 9; None ] (List.rev !polls);
  Alcotest.(check (float 0.)) "no time passed" 0. (Engine.now eng)

let suite =
  [
    Alcotest.test_case "ivar fill before read" `Quick test_ivar_fill_before_read;
    Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
    Alcotest.test_case "mailbox order" `Quick test_mailbox_order;
    Alcotest.test_case "mailbox blocking recv" `Quick test_mailbox_blocking_recv;
    Alcotest.test_case "mailbox try_recv" `Quick test_mailbox_try_recv;
  ]
