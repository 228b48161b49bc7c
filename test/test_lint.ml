(* ddbm-lint: rule classification on in-memory fixtures, suppression and
   baseline behaviour, JSON report well-formedness (reusing the
   observability suite's validating parser), and a self-run asserting the
   checked-in tree is clean.

   Fixtures are string literals, so this file's own AST never trips the
   rules it is testing. *)

let codes (r : Lint.Driver.report) =
  List.map (fun (f : Lint.Finding.t) -> Lint.Finding.code f.rule) r.findings

(* Scan a single fixture at a neutral lib/ path. *)
let scan ?(path = "lib/foo/fixture.ml") src =
  Lint.Driver.scan_sources [ (path, src) ]

let check_codes label expected report =
  Alcotest.(check (list string)) label expected (codes report)

(* --- D1: polymorphic compare --------------------------------------- *)

let test_d1 () =
  check_codes "bare comparator flagged" [ "D1" ]
    (scan "let sorted xs = List.sort compare xs");
  check_codes "typed comparator clean" []
    (scan "let sorted xs = List.sort Int.compare xs");
  check_codes "Stdlib.compare flagged" [ "D1" ]
    (scan "let c a b = Stdlib.compare a b");
  check_codes "(=) on argument-carrying constructor" [ "D1" ]
    (scan "let f x = x = Some 1");
  check_codes "(<>) on tuple operand" [ "D1" ]
    (scan "let f p a b = p <> (a, b)");
  check_codes "(=) on nullary constructor is idiomatic" []
    (scan "let f x = x = None");
  check_codes "(=) on ints is clean" [] (scan "let f x = x = 1");
  check_codes "first-class (=) flagged" [ "D1" ]
    (scan "let mem x xs = List.exists (( = ) x) xs");
  check_codes "Hashtbl.hash flagged" [ "D1" ]
    (scan "let h x = Hashtbl.hash x");
  check_codes "local typed compare shadows the polymorphic one" []
    (scan
       "let compare a b = Int.compare a.f b.f\n\
        let sorted xs = List.sort compare xs")

(* --- D2: hash-order escape ----------------------------------------- *)

let test_d2 () =
  check_codes "iter flagged" [ "D2" ]
    (scan "let dump h = Hashtbl.iter (fun k v -> Printf.printf \"%d%d\" k v) h");
  check_codes "escaping fold flagged" [ "D2" ]
    (scan "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h []");
  check_codes "fold sunk into typed sort is clean" []
    (scan
       "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h [] |> List.sort \
        Int.compare");
  (* a bare-compare sort does not sanction the fold: both hazards fire *)
  let r =
    scan
      "let keys h = Hashtbl.fold (fun k _ acc -> k :: acc) h [] |> List.sort \
       compare"
  in
  Alcotest.(check bool)
    "bare-compare sort sanctions nothing" true
    (List.mem "D2" (codes r) && List.mem "D1" (codes r));
  check_codes "module-named table via to_seq flagged" [ "D2" ]
    (scan "let all page_table = Page_table.to_seq page_table |> List.of_seq");
  check_codes "attempt-keyed Txn.Table fold flagged" [ "D2" ]
    (scan "let all t = Txn.Table.fold (fun k _ acc -> k :: acc) t []")

(* --- D3: ambient nondeterminism ------------------------------------ *)

let test_d3 () =
  check_codes "Random flagged" [ "D3" ] (scan "let roll () = Random.int 6");
  check_codes "Sys.time flagged" [ "D3" ] (scan "let t () = Sys.time ()");
  check_codes "Unix.gettimeofday flagged" [ "D3" ]
    (scan "let t () = Unix.gettimeofday ()");
  check_codes "rng.ml itself is exempt" []
    (scan ~path:"lib/desim/rng.ml" "let roll () = Random.int 6")

(* --- D4: float equality -------------------------------------------- *)

let test_d4 () =
  check_codes "float (=) flagged" [ "D4" ] (scan "let zero x = x = 0.0");
  check_codes "float (<>) flagged" [ "D4" ] (scan "let nz x = x <> 1.5");
  check_codes "float arithmetic operand flagged" [ "D4" ]
    (scan "let f a b c = a = b +. c");
  check_codes "Float.equal is the sanctioned spelling" []
    (scan "let zero x = Float.equal x 0.0")

(* --- D5: required interfaces --------------------------------------- *)

let test_d5 () =
  Alcotest.(check bool)
    "lib/mach requires an mli" true
    (Lint.Driver.mli_required ~path:"lib/mach/foo.ml");
  Alcotest.(check bool)
    "lib/desim requires an mli" true
    (Lint.Driver.mli_required ~path:"lib/desim/foo.ml");
  Alcotest.(check bool)
    "lib/cc requires an mli" true
    (Lint.Driver.mli_required ~path:"lib/cc/foo.ml");
  Alcotest.(check bool)
    "lib/par requires an mli" true
    (Lint.Driver.mli_required ~path:"lib/par/pool.ml");
  Alcotest.(check bool)
    "the lint library holds itself to the same rule" true
    (Lint.Driver.mli_required ~path:"lib/lint/race.ml");
  Alcotest.(check bool)
    "bin does not" false
    (Lint.Driver.mli_required ~path:"bin/ddbm_cli.ml")

(* --- D6: catch-all over protected variants ------------------------- *)

let event_fixture =
  ( "lib/mach/event.ml",
    "type t = Started of int | Finished of int | Cancelled of int" )

let test_d6 () =
  let scan2 use_src =
    Lint.Driver.scan_sources [ event_fixture; ("lib/core/use.ml", use_src) ]
  in
  let flagged =
    scan2 "let f e = match e with Event.Started _ -> 1 | _ -> 0"
  in
  check_codes "catch-all over Event flagged" [ "D6" ] flagged;
  Alcotest.(check (list string))
    "finding is in the consumer" [ "lib/core/use.ml" ]
    (List.map (fun (f : Lint.Finding.t) -> f.file) flagged.findings);
  check_codes "full enumeration clean" []
    (scan2
       "let f e = match e with Event.Started _ -> 1 | Event.Finished _ -> 2 \
        | Event.Cancelled _ -> 3");
  check_codes "unrelated match with wildcard clean" []
    (scan2 "let f s = match s with \"x\" -> 1 | _ -> 0");
  (* outside lib/ and bin/, predicate lambdas over events are fine *)
  check_codes "test code out of scope" []
    (Lint.Driver.scan_sources
       [
         event_fixture;
         ( "test/use.ml",
           "let f e = match e with Event.Started _ -> 1 | _ -> 0" );
       ])

(* --- suppression and baseline -------------------------------------- *)

let test_allow () =
  let r = scan "let sorted xs = List.sort compare xs (* lint: allow poly-compare *)" in
  check_codes "allow comment suppresses" [] r;
  Alcotest.(check int) "counted as suppressed" 1 r.suppressed;
  check_codes "allow on the preceding line" []
    (scan
       "(* lint: allow poly-compare *)\nlet sorted xs = List.sort compare xs");
  check_codes "allow does not reach two lines down" [ "D1" ]
    (scan
       "(* lint: allow poly-compare *)\nlet a = 1\n\
        let sorted xs = List.sort compare xs");
  check_codes "wrong rule does not suppress" [ "D1" ]
    (scan "let sorted xs = List.sort compare xs (* lint: allow ambient *)");
  let file_scope =
    scan "(* lint: allow ambient file *)\nlet a () = Random.int 2\nlet b () = Sys.time ()"
  in
  check_codes "file scope suppresses everywhere" [] file_scope;
  Alcotest.(check int) "both sites counted" 2 file_scope.suppressed;
  check_codes "rule code works as the token" []
    (scan "let roll () = Random.int 6 (* lint: allow D3 *)")

let test_parse_error () =
  check_codes "unparseable file reports P0" [ "P0" ] (scan "let let let")

(* An unreadable .ml file must surface as a P1 finding in the report,
   not silently drop out of the scan. A dangling symlink is the one
   unreadable shape that even a root-run test can produce. *)
let test_unreadable () =
  let dir = Filename.temp_file "lint_walk" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Unix.symlink (Filename.concat dir "nowhere") (Filename.concat dir "gone.ml");
      match Lint.Driver.run ~roots:[ dir ] () with
      | Error msg -> Alcotest.failf "run failed outright: %s" msg
      | Ok report ->
          check_codes "dangling .ml reported as P1" [ "P1" ] report;
          Alcotest.(check int)
            "the file still counts as scanned" 1
            report.Lint.Driver.files_scanned)

(* --- report rendering ---------------------------------------------- *)

let validate_json label s =
  match Test_observability.Json_check.validate s with
  | () -> ()
  | exception Test_observability.Json_check.Bad msg ->
      Alcotest.failf "%s: %s\n%s" label msg s

let test_json () =
  let dirty = scan "let sorted xs = List.sort compare xs" in
  validate_json "report with findings" (Lint.Driver.render_json dirty);
  let clean = scan "let x = 1" in
  validate_json "clean report" (Lint.Driver.render_json clean);
  Alcotest.(check bool)
    "text rendering says clean" true
    (String.starts_with ~prefix:"ddbm-lint: clean"
       (Lint.Driver.render_text clean))

(* --- self-run: the checked-in tree stays at zero findings ---------- *)

let repo_root () =
  let rec up dir =
    if
      Sys.file_exists (Filename.concat dir "lint.baseline")
      && Sys.file_exists (Filename.concat dir "dune-project")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  up (Sys.getcwd ())

let test_self_run () =
  match repo_root () with
  | None -> Alcotest.fail "cannot locate the repository root from the test cwd"
  | Some root ->
      let cwd = Sys.getcwd () in
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          Sys.chdir root;
          match
            Lint.Driver.run ~baseline:"lint.baseline"
              ~roots:[ "lib"; "bin"; "bench"; "test" ] ()
          with
          | Error msg -> Alcotest.failf "lint self-run failed: %s" msg
          | Ok report ->
              validate_json "self-run JSON" (Lint.Driver.render_json report);
              if not (Lint.Driver.clean report) then
                Alcotest.failf "tree has lint findings:\n%s"
                  (Lint.Driver.render_text report))

let suite =
  [
    Alcotest.test_case "D1 poly-compare" `Quick test_d1;
    Alcotest.test_case "D2 hashtbl-order" `Quick test_d2;
    Alcotest.test_case "D3 ambient" `Quick test_d3;
    Alcotest.test_case "D4 float-eq" `Quick test_d4;
    Alcotest.test_case "D5 missing-mli" `Quick test_d5;
    Alcotest.test_case "D6 catch-all-event" `Quick test_d6;
    Alcotest.test_case "allow comments" `Quick test_allow;
    Alcotest.test_case "parse errors surface" `Quick test_parse_error;
    Alcotest.test_case "unreadable files surface" `Quick test_unreadable;
    Alcotest.test_case "JSON report well-formed" `Quick test_json;
    Alcotest.test_case "self-run is clean" `Quick test_self_run;
  ]
