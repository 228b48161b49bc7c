(* ddbm-race: the whole-program domain-safety rules (D7/D8/D9) on
   in-memory fixtures — positive and negative cases, allow-comment and
   baseline interaction — plus a race-enabled self-run over the full
   repository.

   Fixtures are string literals, so this file's own AST never trips the
   rules it is testing. Fixture paths sit under lib/ because task
   submissions are only rooted there (and under bin/): the real test
   tree deliberately shares state across tasks to test the pool. *)

let codes (r : Lint.Driver.report) =
  List.map (fun (f : Lint.Finding.t) -> Lint.Finding.code f.rule) r.findings

let scan sources = Lint.Driver.scan_sources ~race:true sources

let scan1 ?(path = "lib/foo/fixture.ml") src = scan [ (path, src) ]

let check_codes label expected report =
  Alcotest.(check (list string)) label expected (codes report)

(* --- D7: shared mutable top-level state ---------------------------- *)

let test_d7_ref () =
  (* the acceptance fixture: a mutable ref shared across Pool tasks *)
  let flagged =
    scan1
      "let hits = ref 0\n\
       let work pool xs = Par.Pool.map pool (fun x -> incr hits; x) xs"
  in
  check_codes "shared ref across Pool tasks fires D7" [ "D7" ] flagged;
  (match flagged.Lint.Driver.findings with
  | [ f ] ->
      Alcotest.(check int) "finding at the reference line" 2 f.Lint.Finding.line
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  check_codes "task-local ref is clean" []
    (scan1
       "let work pool xs =\n\
        \  Par.Pool.map pool (fun x -> let c = ref 0 in incr c; !c + x) xs");
  check_codes "shared ref outside any task is clean" []
    (scan1 "let hits = ref 0\nlet bump () = incr hits")

let test_d7_container () =
  check_codes "top-level Hashtbl reached through a helper fires D7"
    [ "D7" ]
    (scan1
       "let table = Hashtbl.create 16\n\
        let record x = Hashtbl.replace table x ()\n\
        let work pool xs = Par.Pool.map pool (fun x -> record x) xs");
  check_codes "per-task Hashtbl is clean" []
    (scan1
       "let work pool xs =\n\
        \  Par.Pool.map pool\n\
        \    (fun x -> let t = Hashtbl.create 4 in Hashtbl.replace t x (); x)\n\
        \    xs")

let test_d7_cross_module () =
  let flagged =
    scan
      [
        ("lib/foo/state.ml", "let table = Hashtbl.create 7\nlet record x = Hashtbl.replace table x ()");
        ( "lib/foo/use.ml",
          "let work pool xs = Par.Pool.map pool (fun x -> State.record x) xs" );
      ]
  in
  check_codes "cross-module reachability fires D7" [ "D7" ] flagged;
  Alcotest.(check (list string))
    "the finding lands where the state is touched" [ "lib/foo/state.ml" ]
    (List.map
       (fun (f : Lint.Finding.t) -> f.Lint.Finding.file)
       flagged.Lint.Driver.findings)

let test_d7_safe_idioms () =
  check_codes "Domain.DLS state is domain-local and clean" []
    (scan1
       "let slot = Domain.DLS.new_key (fun () -> ref 0)\n\
        let work pool xs =\n\
        \  Par.Pool.map pool (fun x -> Domain.DLS.get slot; x) xs");
  check_codes "a shared mutex is a guard, not guarded state" []
    (scan1
       "let m = Mutex.create ()\n\
        let work pool xs =\n\
        \  Par.Pool.map pool (fun x -> Mutex.lock m; Mutex.unlock m; x) xs");
  (* submissions in the test tree do not root the analysis *)
  check_codes "test-tree submissions are out of scope" []
    (scan
       [
         ( "test/test_fixture.ml",
           "let hits = ref 0\n\
            let work pool xs = Par.Pool.map pool (fun x -> incr hits; x) xs"
         );
       ])

(* The census of mutable fields is by name. A test record's [mutable log]
   once made the library's immutable [Decomp.zero] record, whose type has
   a [log] field, count as shared mutable state; a field declared under
   test/ now classifies only test bindings. The same field declared
   mutable in the library still fires. *)
let test_d7_test_fields () =
  let decomp log =
    ( "lib/foo/decomp.ml",
      Printf.sprintf
        "type t = { %slog : float }
         let zero = { log = 0. }
         let work pool xs = Par.Pool.map pool (fun x -> ignore zero.log; x) xs"
        log )
  in
  let wal_ref = ("test/wal_ref.ml", "type t = { mutable log : int list }") in
  check_codes "a test file's mutable field does not classify lib/" []
    (scan [ decomp ""; wal_ref ]);
  check_codes "the library's own mutable field does" [ "D7" ]
    (scan [ decomp "mutable "; wal_ref ])

(* --- D8: domain-unsafe stdlib in task scope ------------------------ *)

let test_d8 () =
  check_codes "Format.printf in task scope fires D8" [ "D8" ]
    (scan1
       "let work pool xs =\n\
        \  Par.Pool.map pool (fun x -> Format.printf \"%d\" x; x) xs");
  check_codes "Sys.getenv in task scope fires D8" [ "D8" ]
    (scan1
       "let work pool xs =\n\
        \  Par.Pool.map pool (fun x -> ignore (Sys.getenv \"HOME\"); x) xs");
  (* Random in a task is both ambient (D3, everywhere) and
     domain-unsafe (D8, task scope) *)
  let r =
    scan1
      "let work pool xs = Par.Pool.map pool (fun x -> Random.int x) xs"
  in
  Alcotest.(check bool)
    "ambient Random in a task fires both D3 and D8" true
    (List.mem "D3" (codes r) && List.mem "D8" (codes r));
  check_codes "explicitly seeded Random.State is sanctioned for D8" []
    (Lint.Driver.scan_sources ~race:true
       ~rules:[ Lint.Finding.Unsafe_stdlib ]
       [
         ( "lib/foo/fixture.ml",
           "let work pool xs =\n\
            \  Par.Pool.map pool\n\
            \    (fun x -> Random.State.int (Random.State.make [| x |]) 6)\n\
            \    xs" );
       ]);
  check_codes "Format.printf outside task scope is D8-clean" []
    (scan1 "let report x = Format.printf \"%d\" x");
  check_codes "unsafe stdlib reached through a helper fires D8" [ "D8" ]
    (scan1
       "let shout x = print_endline (string_of_int x)\n\
        let work pool xs = Par.Pool.map pool (fun x -> shout x; x) xs")

(* --- D9: shared lazy suspensions ----------------------------------- *)

let test_d9 () =
  check_codes "forcing a shared suspension fires D9" [ "D9" ]
    (scan1
       "let config = lazy 42\n\
        let work pool xs =\n\
        \  Par.Pool.map pool (fun x -> Lazy.force config + x) xs");
  check_codes "task-local lazy is clean" []
    (scan1
       "let work pool xs =\n\
        \  Par.Pool.map pool (fun x -> Lazy.force (lazy (x + 1))) xs");
  check_codes "shared suspension never touched by a task is clean" []
    (scan1
       "let config = lazy 42\n\
        let work pool xs = Par.Pool.map pool (fun x -> x + 1) xs\n\
        let serial () = Lazy.force config")

(* --- suppression and filtering ------------------------------------- *)

let test_allow () =
  let r =
    scan1
      "let hits = ref 0\n\
       (* lint: allow shared-mutable *)\n\
       let work pool xs = Par.Pool.map pool (fun x -> incr hits; x) xs"
  in
  check_codes "allow comment suppresses D7" [] r;
  Alcotest.(check int) "counted as suppressed" 1 r.Lint.Driver.suppressed;
  check_codes "rule code D7 works as the allow token" []
    (scan1
       "let hits = ref 0\n\
        (* lint: allow D7 *)\n\
        let work pool xs = Par.Pool.map pool (fun x -> incr hits; x) xs");
  check_codes "wrong rule does not suppress" [ "D7" ]
    (scan1
       "let hits = ref 0\n\
        (* lint: allow unsafe-stdlib *)\n\
        let work pool xs = Par.Pool.map pool (fun x -> incr hits; x) xs")

let test_rules_filter () =
  let src =
    "let hits = ref 0\n\
     let work pool xs =\n\
     \  Par.Pool.map pool (fun x -> incr hits; Format.printf \"%d\" x; x) xs"
  in
  let all = scan1 src in
  Alcotest.(check bool)
    "both D7 and D8 present unfiltered" true
    (List.mem "D7" (codes all) && List.mem "D8" (codes all));
  check_codes "--rules D7 restricts the report" [ "D7" ]
    (Lint.Driver.scan_sources ~race:true
       ~rules:[ Lint.Finding.Shared_mutable ]
       [ ("lib/foo/fixture.ml", src) ]);
  (* per-rule counts follow the filtered view *)
  let only_d8 =
    Lint.Driver.scan_sources ~race:true
      ~rules:[ Lint.Finding.Unsafe_stdlib ]
      [ ("lib/foo/fixture.ml", src) ]
  in
  Alcotest.(check (list string))
    "by_rule tallies only the selected rule" [ "D8" ]
    (List.map
       (fun (rule, _) -> Lint.Finding.code rule)
       only_d8.Lint.Driver.by_rule)

(* --- baseline interaction ------------------------------------------ *)

let test_baseline () =
  let path = Filename.temp_file "race_baseline" ".txt" in
  let entries =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              "# race-rule baseline fixture\nD7 lib/foo/fixture.ml # ok\n");
        match Lint.Allow.load_baseline path with
        | Ok e -> e
        | Error msg -> Alcotest.failf "fixture baseline failed to load: %s" msg)
  in
  let finding =
    Lint.Finding.v ~rule:Lint.Finding.Shared_mutable
      ~file:"lib/foo/fixture.ml" ~line:3 ~col:0 ~msg:"m" ~hint:"h"
  in
  Alcotest.(check bool)
    "a D7 baseline entry accepts the finding" true
    (Lint.Allow.baselined ~baseline:entries finding);
  let other =
    Lint.Finding.v ~rule:Lint.Finding.Shared_lazy ~file:"lib/foo/fixture.ml"
      ~line:3 ~col:0 ~msg:"m" ~hint:"h"
  in
  Alcotest.(check bool)
    "a different race rule is not covered" false
    (Lint.Allow.baselined ~baseline:entries other)

(* --- self-run: the checked-in tree is domain-safe ------------------ *)

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
            Lint.Driver.run ~baseline:"lint.baseline" ~race:true
              ~roots:[ "lib"; "bin"; "bench"; "test" ] ()
          with
          | Error msg -> Alcotest.failf "race self-run failed: %s" msg
          | Ok report ->
              if not (Lint.Driver.clean report) then
                Alcotest.failf "tree has domain-safety findings:\n%s"
                  (Lint.Driver.render_text report))

let suite =
  [
    Alcotest.test_case "D7 shared ref across tasks" `Quick test_d7_ref;
    Alcotest.test_case "D7 shared containers" `Quick test_d7_container;
    Alcotest.test_case "D7 cross-module reachability" `Quick
      test_d7_cross_module;
    Alcotest.test_case "D7 safe idioms stay clean" `Quick test_d7_safe_idioms;
    Alcotest.test_case "D7 test-tree fields do not classify lib/" `Quick
      test_d7_test_fields;
    Alcotest.test_case "D8 unsafe stdlib in task scope" `Quick test_d8;
    Alcotest.test_case "D9 shared lazy suspensions" `Quick test_d9;
    Alcotest.test_case "allow comments" `Quick test_allow;
    Alcotest.test_case "--rules filtering" `Quick test_rules_filter;
    Alcotest.test_case "baseline interaction" `Quick test_baseline;
    Alcotest.test_case "race self-run is clean" `Quick test_self_run;
  ]
