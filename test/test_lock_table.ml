open Desim
open Ddbm_cc
open Ddbm_model

exception Rejected

let mk () =
  let h = Cc_harness.make () in
  let blocking = Stats.Tally.create () in
  (h, Lock_table.create h.Cc_harness.eng ~blocking, blocking)

(* Acquire in a spawned process; returns a ref set to `Granted/`Rejected. *)
let async_request h locks txn page mode =
  let state = ref `Waiting in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        Lock_table.request locks txn page mode ~on_block:(fun _ -> ());
        state := `Granted
      with Txn.Aborted _ -> state := `Rejected);
  state

let test_shared_compatible () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  let s0 = async_request h locks t0 p Lock_table.S in
  let s1 = async_request h locks t1 p Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "both granted" true (!s0 = `Granted && !s1 = `Granted)

let test_exclusive_blocks () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  let s0 = async_request h locks t0 p Lock_table.X in
  let s1 = async_request h locks t1 p Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "holder granted" true (!s0 = `Granted);
  Alcotest.(check bool) "reader blocked" true (!s1 = `Waiting);
  (* release on commit: waiter granted *)
  Lock_table.release_all locks t0 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "waiter granted after release" true (!s1 = `Granted)

let test_fcfs_no_queue_jump () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let p = Cc_harness.page 1 in
  let s0 = async_request h locks t0 p Lock_table.S in
  Cc_harness.settle h;
  let s1 = async_request h locks t1 p Lock_table.X in
  (* t2's S is compatible with t0's S but must not jump t1's X *)
  let s2 = async_request h locks t2 p Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "t0 granted" true (!s0 = `Granted);
  Alcotest.(check bool) "t1 waits" true (!s1 = `Waiting);
  Alcotest.(check bool) "t2 does not jump" true (!s2 = `Waiting);
  Lock_table.release_all locks t0 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "t1 granted next" true (!s1 = `Granted);
  Alcotest.(check bool) "t2 still waits" true (!s2 = `Waiting);
  Lock_table.release_all locks t1 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "t2 finally granted" true (!s2 = `Granted)

let test_upgrade_sole_holder () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 in
  let s = async_request h locks t0 p Lock_table.S in
  Cc_harness.settle h;
  let x = async_request h locks t0 p Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "upgrade immediate" true (!s = `Granted && !x = `Granted);
  Alcotest.(check bool) "held in X" true
    (match Lock_table.held locks t0 p with
    | Some Lock_table.X -> true
    | Some Lock_table.S | None -> false)

let test_upgrade_waits_for_other_reader () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.S);
  ignore (async_request h locks t1 p Lock_table.S);
  Cc_harness.settle h;
  let up = async_request h locks t0 p Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "conversion waits" true (!up = `Waiting);
  Lock_table.release_all locks t1 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "conversion granted after release" true (!up = `Granted)

let test_conversion_jumps_queue () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let t2 = Cc_harness.txn h ~tid:2 ~time:2. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.S);
  ignore (async_request h locks t1 p Lock_table.S);
  Cc_harness.settle h;
  (* t2 queues an X; then t1 converts: the conversion goes ahead of t2 *)
  let x2 = async_request h locks t2 p Lock_table.X in
  Cc_harness.settle h;
  let up1 = async_request h locks t1 p Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "both waiting" true (!x2 = `Waiting && !up1 = `Waiting);
  Lock_table.release_all locks t0 ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "conversion wins" true (!up1 = `Granted);
  Alcotest.(check bool) "plain X still waits" true (!x2 = `Waiting)

let test_release_rejects_waiters () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  let s1 = async_request h locks t1 p Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "t1 waiting" true (!s1 = `Waiting);
  (* aborting t1 rejects its blocked request *)
  Lock_table.release_all locks t1 ~reject:(Txn.Aborted Txn.Peer_abort);
  Cc_harness.settle h;
  Alcotest.(check bool) "t1 rejected" true (!s1 = `Rejected);
  (* the holder is untouched *)
  Alcotest.(check bool) "t0 still holds" true
    (match Lock_table.held locks t0 p with
    | Some Lock_table.X -> true
    | Some Lock_table.S | None -> false)

let test_blockers_reported () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  let seen = ref [] in
  Engine.spawn h.Cc_harness.eng (fun () ->
      try
        Lock_table.request locks t1 p Lock_table.S ~on_block:(fun blockers ->
            seen := blockers)
      with Txn.Aborted _ -> ());
  Cc_harness.settle h;
  (match !seen with
  | [ b ] -> Alcotest.(check int) "blocker is t0" 0 b.Txn.tid
  | other ->
      Alcotest.fail (Printf.sprintf "expected 1 blocker, got %d" (List.length other)));
  Lock_table.release_all locks t1 ~reject:Rejected

let test_edges () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  ignore (async_request h locks t1 p Lock_table.X);
  Cc_harness.settle h;
  match Lock_table.edges locks with
  | [ { Cc_intf.waiter; holder } ] ->
      Alcotest.(check (pair int int))
        "edge t1 -> t0" (1, 0)
        (waiter.Txn.tid, holder.Txn.tid)
  | edges ->
      Alcotest.fail (Printf.sprintf "expected 1 edge, got %d" (List.length edges))

let test_blocking_tally () =
  let h, locks, blocking = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  ignore (async_request h locks t1 p Lock_table.S);
  (* release at t=5: blocked duration recorded *)
  ignore
    (Engine.schedule h.Cc_harness.eng ~at:5. (fun () ->
         Lock_table.release_all locks t0 ~reject:Rejected));
  Cc_harness.settle h;
  Alcotest.(check int) "one block recorded" 1 (Stats.Tally.count blocking);
  Alcotest.(check bool) "blocked ~5s" true
    (abs_float (Stats.Tally.mean blocking -. 5.) < 1e-9)

let test_reacquire_held () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.X);
  Cc_harness.settle h;
  (* S and X under an existing X are both immediate no-ops *)
  let s = async_request h locks t0 p Lock_table.S in
  let x = async_request h locks t0 p Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "covered requests granted" true
    (!s = `Granted && !x = `Granted)

(* Invariant: at any quiescent point, a page has either one X holder and
   nothing else, or only S holders. *)
let prop_no_conflicting_holders =
  QCheck.Test.make ~name:"lock table never grants conflicting holders"
    ~count:60
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (triple (int_range 0 5) (int_range 0 3) bool))
    (fun ops ->
      let h, locks, _ = mk () in
      let txns =
        Array.init 6 (fun i -> Cc_harness.txn h ~tid:i ~time:(float_of_int i) ())
      in
      List.iter
        (fun (tid, page_idx, exclusive) ->
          let mode = if exclusive then Lock_table.X else Lock_table.S in
          let p = Cc_harness.page page_idx in
          Engine.spawn h.Cc_harness.eng (fun () ->
              try
                Lock_table.request locks txns.(tid) p mode ~on_block:(fun _ ->
                    ())
              with Txn.Aborted _ -> ()))
        ops;
      Cc_harness.settle h;
      (* check pairwise compatibility of the locks actually held per page
         (cyclic waits may remain outstanding; that is fine here) *)
      let ok = ref true in
      for page_idx = 0 to 3 do
        let p = Cc_harness.page page_idx in
        let modes =
          Array.to_list txns
          |> List.filter_map (fun t -> Lock_table.held locks t p)
        in
        let xs = List.length (List.filter (fun m -> m = Lock_table.X) modes) in
        if xs > 1 || (xs = 1 && List.length modes > 1) then ok := false
      done;
      (* cleanup: release every txn, rejecting any stuck waiter *)
      Array.iter
        (fun t ->
          Lock_table.release_all locks t ~reject:(Txn.Aborted Txn.Peer_abort))
        txns;
      Cc_harness.settle h;
      !ok && Lock_table.num_waiting locks = 0)

(* The page index beyond its first buckets: up to 3,000 distinct pages,
   spread over files near both ends of the page range, are locked by
   five attempts without conflict, so the index doubles several times;
   then some attempts release (their entries leave the index) and their
   pages are locked again by another. At each step [held] must report
   exactly the locks the model says are held. *)
let prop_index_grows_and_shrinks =
  QCheck.Test.make ~name:"page index survives growth and removal" ~count:20
    QCheck.(
      triple (int_range 1 3000) (int_range 0 31)
        (int_range 0 (Ids.Page.file_limit - 8)))
    (fun (n, released, high_file) ->
      let h, locks, _ = mk () in
      let txns =
        Array.init 5 (fun i -> Cc_harness.txn h ~tid:i ~time:(float_of_int i) ())
      in
      let page i =
        let file = if i land 1 = 0 then i mod 7 else high_file + (i mod 5) in
        Ids.Page.make ~file ~index:(i * 7919 mod Ids.Page.index_limit)
      in
      let owner = Array.init n (fun i -> i mod 5) in
      let mode i = if i land 2 = 0 then Lock_table.S else Lock_table.X in
      let request i =
        Lock_table.request locks txns.(owner.(i)) (page i) (mode i)
          ~on_block:(fun _ -> Alcotest.fail "a request without conflict blocked")
      in
      let live = Array.make 5 true in
      let agrees () =
        let ok = ref true in
        for i = 0 to n - 1 do
          for tid = 0 to 4 do
            let expected =
              if tid = owner.(i) && live.(tid) then Some (mode i) else None
            in
            if Lock_table.held locks txns.(tid) (page i) <> expected then
              ok := false
          done
        done;
        !ok
      in
      for i = 0 to n - 1 do
        request i
      done;
      let grown = agrees () in
      for tid = 0 to 4 do
        if released land (1 lsl tid) <> 0 then begin
          Lock_table.release_all locks txns.(tid) ~reject:Rejected;
          live.(tid) <- false
        end
      done;
      let shrunk = agrees () in
      let heir = Array.find_opt (fun tid -> live.(tid)) [| 0; 1; 2; 3; 4 |] in
      (match heir with
      | Some heir ->
          for i = 0 to n - 1 do
            if not live.(owner.(i)) then begin
              owner.(i) <- heir;
              request i
            end
          done
      | None -> ());
      grown && shrunk && agrees ())

let tids = Option.map (List.map (fun (t : Txn.t) -> t.Txn.tid))

(* Two S holders both convert: each conversion waits for the other, and
   the on-demand search finds the 2-cycle from either side with the
   younger transaction as the victim. *)
let test_conversion_cycle_victim () =
  let h, locks, _ = mk () in
  let t0 = Cc_harness.txn h ~tid:0 ~time:0. () in
  let t1 = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks t0 p Lock_table.S);
  ignore (async_request h locks t1 p Lock_table.S);
  Cc_harness.settle h;
  ignore (async_request h locks t0 p Lock_table.X);
  ignore (async_request h locks t1 p Lock_table.X);
  Cc_harness.settle h;
  Alcotest.(check int) "both conversions queued" 2 (Lock_table.num_waiting locks);
  Alcotest.(check (option (list int)))
    "cycle from t1" (Some [ 1; 0 ])
    (tids (Lock_table.find_cycle_through locks t1));
  Alcotest.(check (option (list int)))
    "cycle from t0" (Some [ 0; 1 ])
    (tids (Lock_table.find_cycle_through locks t0));
  match Lock_table.find_cycle_through locks t0 with
  | Some cycle ->
      Alcotest.(check int) "younger is the victim" 1 (Wfg.youngest cycle).Txn.tid
  | None -> Alcotest.fail "conversion deadlock not found"

(* The mode [txn] holds on [page], printed. *)
let held_mode locks txn page =
  match Lock_table.held locks txn page with
  | None -> "none"
  | Some Lock_table.S -> "S"
  | Some Lock_table.X -> "X"

(* An attempt holds S on a page and has an X request queued there too,
   so its footprint lists the page's entry twice; its release frees that
   entry once. Two fresh pages locked afterwards get entries of their
   own, each empty. *)
let test_twice_listed_entry_freed_once () =
  let h, locks, _ = mk () in
  let holder = Cc_harness.txn h ~tid:0 ~time:0. () in
  let twice = Cc_harness.txn h ~tid:1 ~time:1. () in
  let p = Cc_harness.page 1 in
  ignore (async_request h locks holder p Lock_table.X);
  Cc_harness.settle h;
  let s = async_request h locks twice p Lock_table.S in
  let x = async_request h locks twice p Lock_table.X in
  Cc_harness.settle h;
  Lock_table.release_all locks holder ~reject:Rejected;
  Cc_harness.settle h;
  Alcotest.(check bool) "S granted, X still queued" true
    (!s = `Granted && !x = `Waiting);
  Lock_table.release_all locks twice ~reject:(Txn.Aborted Txn.Peer_abort);
  Cc_harness.settle h;
  Alcotest.(check bool) "queued X rejected" true (!x = `Rejected);
  let a = Cc_harness.txn h ~tid:2 ~time:2. () in
  let b = Cc_harness.txn h ~tid:3 ~time:3. () in
  let q = Cc_harness.page 2 and r = Cc_harness.page 3 in
  ignore (async_request h locks a q Lock_table.X);
  ignore (async_request h locks b r Lock_table.X);
  Cc_harness.settle h;
  Alcotest.(check string) "a holds q" "X" (held_mode locks a q);
  Alcotest.(check string) "b holds r" "X" (held_mode locks b r);
  Alcotest.(check string) "a holds no r" "none" (held_mode locks a r);
  Alcotest.(check string) "b holds no q" "none" (held_mode locks b q);
  Alcotest.(check string) "p is free" "none" (held_mode locks twice p);
  Alcotest.(check int) "nothing waits" 0 (Lock_table.num_waiting locks);
  let c = Cc_harness.txn h ~tid:4 ~time:4. () in
  let d = Cc_harness.txn h ~tid:5 ~time:5. () in
  ignore (async_request h locks c q Lock_table.S);
  ignore (async_request h locks d r Lock_table.S);
  Cc_harness.settle h;
  Alcotest.(check int) "one wait on each page" 2 (Lock_table.num_waiting locks);
  Alcotest.(check (list int)) "q's blocker" [ 2 ]
    (List.map (fun t -> t.Txn.tid) (Lock_table.current_blockers locks c q));
  Alcotest.(check (list int)) "r's blocker" [ 3 ]
    (List.map (fun t -> t.Txn.tid) (Lock_table.current_blockers locks d r))

(* An entry last held in X is reused for another page: it starts with no
   holder and no queue, so two S requests there are both granted and an
   X request queues behind both, newest first. *)
let test_reused_entry_starts_empty () =
  let h, locks, _ = mk () in
  let old = Cc_harness.txn h ~tid:0 ~time:0. () in
  let p = Cc_harness.page 1 and q = Cc_harness.page 2 in
  ignore (async_request h locks old p Lock_table.X);
  Cc_harness.settle h;
  Lock_table.release_all locks old ~reject:Rejected;
  let a = Cc_harness.txn h ~tid:1 ~time:1. () in
  let b = Cc_harness.txn h ~tid:2 ~time:2. () in
  let c = Cc_harness.txn h ~tid:3 ~time:3. () in
  let sa = async_request h locks a q Lock_table.S in
  let sb = async_request h locks b q Lock_table.S in
  Cc_harness.settle h;
  Alcotest.(check bool) "both readers granted" true
    (!sa = `Granted && !sb = `Granted);
  Alcotest.(check string) "a reads q" "S" (held_mode locks a q);
  Alcotest.(check string)
    "the old holder holds no q" "none" (held_mode locks old q);
  Alcotest.(check string) "p is free" "none" (held_mode locks a p);
  let xc = async_request h locks c q Lock_table.X in
  Cc_harness.settle h;
  Alcotest.(check bool) "writer waits" true (!xc = `Waiting);
  Alcotest.(check (list int)) "writer's blockers" [ 2; 1 ]
    (List.map (fun t -> t.Txn.tid) (Lock_table.current_blockers locks c q))

(* A released attempt's footprint is reused by the next attempt: it
   lists only that attempt's pages. *)
let test_reused_footprint_starts_empty () =
  let h, locks, _ = mk () in
  let old = Cc_harness.txn h ~tid:0 ~time:0. () in
  let on_block _ = Alcotest.fail "a request without conflict blocked" in
  Lock_table.request locks old (Cc_harness.page 1) Lock_table.X ~on_block;
  Lock_table.request locks old (Cc_harness.page 2) Lock_table.X ~on_block;
  Lock_table.release_all locks old ~reject:Rejected;
  let next = Cc_harness.txn h ~tid:1 ~time:1. () in
  Lock_table.request locks next (Cc_harness.page 3) Lock_table.S ~on_block;
  Alcotest.(check (list int)) "a reader has no exclusive page" []
    (List.map Ids.Page.index (Lock_table.exclusive_pages locks next));
  Lock_table.request locks next (Cc_harness.page 4) Lock_table.X ~on_block;
  Alcotest.(check (list int)) "only its own exclusive page" [ 4 ]
    (List.map Ids.Page.index (Lock_table.exclusive_pages locks next))

(* The recycled entries and footprints are bounded by the peak of live
   ones, not by the pages ever locked: 1,000 attempts, one after another,
   each lock ten pages no attempt locked before and release them. The
   table's reachable words after the last attempt are within [slack] of
   those after the first. An index that kept every emptied entry would
   grow by 7 words per page. *)
let test_recycling_bounded () =
  let h, locks, _ = mk () in
  let on_block _ = Alcotest.fail "a request without conflict blocked" in
  let attempt a =
    let txn = Cc_harness.txn h ~tid:a ~time:(float_of_int a) () in
    for k = 0 to 9 do
      Lock_table.request locks txn
        (Cc_harness.page ((a * 10) + k))
        (if k land 1 = 0 then Lock_table.S else Lock_table.X)
        ~on_block
    done;
    Lock_table.release_all locks txn ~reject:Rejected
  in
  let words () = Obj.reachable_words (Obj.repr locks) in
  attempt 0;
  let first = words () in
  for a = 1 to 999 do
    attempt a
  done;
  let slack = 64 in
  let last = words () in
  if last > first + slack then
    Alcotest.failf "the table grew from %d to %d words over 10,000 pages"
      first last

type op = Req of int * int * bool | Release of int | Doom of int

let pp_op = function
  | Req (tid, page, x) -> Printf.sprintf "T%d %s p%d" tid (if x then "X" else "S") page
  | Release tid -> Printf.sprintf "release T%d" tid
  | Doom tid -> Printf.sprintf "doom T%d" tid

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun t p x -> Req (t, p, x)) (int_range 0 5) (int_range 0 3) bool);
        (2, map (fun t -> Release t) (int_range 0 5));
        (1, map (fun t -> Doom t) (int_range 0 5));
      ])

let edge_ids edges =
  List.map
    (fun { Cc_intf.waiter; holder } -> (waiter.Txn.tid, holder.Txn.tid))
    edges

(* Differential check of the attempt index against full-table references.
   Each transaction has at most one outstanding request, as a cohort does;
   a request whose transaction already holds S on the page is a
   conversion. At every quiescent point: [edges] equals the edges built
   from [current_blockers] of every queued request, [num_waiting] counts
   the queued requests, and the on-demand search from every waiting
   attempt finds the cycle the graph of [edges] gives. *)
let prop_index_matches_full_table =
  QCheck.Test.make ~name:"attempt index matches the full lock table"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_op))
    (fun ops ->
      let h, locks, _ = mk () in
      let txns =
        Array.init 6 (fun i -> Cc_harness.txn h ~tid:i ~time:(float_of_int i) ())
      in
      let pending = Array.init 6 (fun _ -> ref `Granted) in
      let waiting i = !(pending.(i)) = `Waiting in
      let check () =
        let reference =
          List.concat_map
            (fun i ->
              List.concat_map
                (fun page_idx ->
                  Lock_table.current_blockers locks txns.(i)
                    (Cc_harness.page page_idx)
                  |> List.map (fun holder ->
                         { Cc_intf.waiter = txns.(i); holder }))
                [ 0; 1; 2; 3 ])
            [ 0; 1; 2; 3; 4; 5 ]
          |> List.sort Cc_intf.compare_edge
        in
        let edges = Lock_table.edges locks in
        let n_waiting =
          List.length (List.filter waiting [ 0; 1; 2; 3; 4; 5 ])
        in
        let graph = Wfg.of_edges edges in
        edge_ids edges = edge_ids reference
        && Lock_table.num_waiting locks = n_waiting
        && List.for_all
             (fun i ->
               (not (waiting i))
               || tids (Lock_table.find_cycle_through locks txns.(i))
                  = tids (Wfg.find_cycle_through graph txns.(i)))
             [ 0; 1; 2; 3; 4; 5 ]
      in
      List.for_all
        (fun op ->
          (match op with
          | Req (i, page_idx, exclusive) ->
              if not (waiting i) then
                pending.(i) <-
                  async_request h locks txns.(i) (Cc_harness.page page_idx)
                    (if exclusive then Lock_table.X else Lock_table.S)
          | Release i ->
              Lock_table.release_all locks txns.(i)
                ~reject:(Txn.Aborted Txn.Peer_abort)
          | Doom i -> txns.(i).Txn.doomed <- true);
          Cc_harness.settle h;
          check ())
        ops)

(* --- differential test against the reference model --------------- *)

(* What a request in the differential test does when it must wait:
   nothing, or wait-die's check, which raises before the request
   enqueues. *)
type policy = Wait | Die

type dop =
  | D_req of int * int * bool * policy
  | D_release of int
  | D_doom of int

let pp_dop = function
  | D_req (i, page, x, policy) ->
      Printf.sprintf "T%d %s p%d%s" i
        (if x then "X" else "S")
        page
        (match policy with Wait -> "" | Die -> " (wait-die)")
  | D_release i -> Printf.sprintf "release T%d" i
  | D_doom i -> Printf.sprintf "doom T%d" i

let n_txns = 5
let n_pages = 4

let gen_dop =
  QCheck.Gen.(
    frequency
      [
        ( 7,
          map3
            (fun (i, p) x die -> D_req (i, p, x, if die then Die else Wait))
            (pair (int_range 0 (n_txns - 1)) (int_range 0 (n_pages - 1)))
            bool
            (frequencyl [ (3, false); (1, true) ]) );
        (3, map (fun i -> D_release i) (int_range 0 (n_txns - 1)));
        (1, map (fun i -> D_doom i) (int_range 0 (n_txns - 1)));
      ])

exception Died

let die_if_younger (requester : Txn.t) blockers =
  if
    List.exists
      (fun (b : Txn.t) -> (not b.Txn.doomed) && Txn.older b requester)
      blockers
  then raise Died

let show (t : Txn.t) = Printf.sprintf "T%d.%d" t.Txn.tid t.Txn.attempt
let show_all txns = String.concat "," (List.map show txns)

(* The lock table's interface, which the reference model also has. *)
module type LOCKS = sig
  type t
  type mode = S | X

  val create : Engine.t -> blocking:Stats.Tally.t -> t

  val request :
    ?pre_block:(Txn.t list -> unit) ->
    t ->
    Txn.t ->
    Ids.Page.t ->
    mode ->
    on_block:(Txn.t list -> unit) ->
    unit

  val release_all : t -> Txn.t -> reject:exn -> unit
  val edges : t -> Cc_intf.edge list
  val num_waiting : t -> int
  val find_cycle_through : t -> Txn.t -> Txn.t list option
  val exclusive_pages : t -> Txn.t -> Ids.Page.t list
  val current_blockers : t -> Txn.t -> Ids.Page.t -> Txn.t list
  val held : t -> Txn.t -> Ids.Page.t -> mode option
end

(* One side of the differential test: a lock table with its own engine,
   and the log of what its requests saw, in event order. *)
module Side (L : LOCKS) = struct
  type t = { h : Cc_harness.t; locks : L.t; log : string list ref }

  let create () =
    let h = Cc_harness.make () in
    {
      h;
      locks = L.create h.Cc_harness.eng ~blocking:(Stats.Tally.create ());
      log = ref [];
    }

  (* A request in its own process, which logs the blockers each callback
     receives and then the outcome; the returned flag turns [`Done] when
     the process ends. *)
  let request t (txn : Txn.t) (page : Ids.Page.t) x policy =
    let state = ref `Waiting in
    let say fmt =
      Printf.ksprintf
        (fun s ->
          let line = Printf.sprintf "%s %s p%d" (show txn) s (Ids.Page.index page) in
          t.log := line :: !(t.log))
        fmt
    in
    let pre_block =
      match policy with
      | Wait -> None
      | Die ->
          Some
            (fun blockers ->
              say "pre-block [%s]" (show_all blockers);
              die_if_younger txn blockers)
    in
    let on_block blockers = say "blocked [%s]" (show_all blockers) in
    Engine.spawn t.h.Cc_harness.eng (fun () ->
        (try
           L.request ?pre_block t.locks txn page
             (if x then L.X else L.S)
             ~on_block;
           say "granted %s" (if x then "X" else "S")
         with
        | Died -> say "died"
        | Txn.Aborted _ -> say "rejected");
        state := `Done);
    state

  let release_all t txn =
    L.release_all t.locks txn ~reject:(Txn.Aborted Txn.Peer_abort)

  let settle t = Cc_harness.settle t.h

  (* Everything the table reports at a quiescent point, as text, so a
     failure prints where the two tables part. *)
  let observe t txns =
    let pages = List.init n_pages Cc_harness.page in
    let held txn page =
      match L.held t.locks txn page with
      | Some L.S -> "S"
      | Some L.X -> "X"
      | None -> "-"
    in
    let report txn =
      Printf.sprintf "%s: %s | x %s | blockers %s | cycle %s" (show txn)
        (String.concat " " (List.map (held txn) pages))
        (String.concat ","
           (List.map
              (fun p -> string_of_int (Ids.Page.index p))
              (L.exclusive_pages t.locks txn)))
        (String.concat " "
           (List.map
              (fun p ->
                "[" ^ show_all (L.current_blockers t.locks txn p) ^ "]")
              pages))
        (match L.find_cycle_through t.locks txn with
        | None -> "none"
        | Some c -> show_all c)
    in
    List.rev !(t.log)
    @ [ Printf.sprintf "waiting %d" (L.num_waiting t.locks) ]
    @ List.map report (Array.to_list txns)
    @ List.map
        (fun { Cc_intf.waiter; holder } -> show waiter ^ "->" ^ show holder)
        (L.edges t.locks)
end

module Lean = Side (Lock_table)
module Reference = Side (Lock_table_ref)

(* The differential property's case count: DDBM_LOCK_TABLE_CASES, else
   600. *)
let reference_cases () =
  match Sys.getenv_opt "DDBM_LOCK_TABLE_CASES" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 600)
  | None -> 600

(* The lock table against the reference model: random requests,
   conversions, wait-die raises, releases of attempts with queued
   waiters, and dooms, over a few pages, so released pages are locked
   again and recycled entries are reused. Each transaction has at most
   one outstanding request, as a cohort does; a released transaction
   restarts as its next attempt. At every quiescent point both tables
   must have logged the same blockers, grants, rejections and deaths in
   the same order, and agree on [held], [num_waiting], [exclusive_pages],
   [current_blockers], [edges] and [find_cycle_through], order
   included. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"lock table matches the reference model"
    ~count:(reference_cases ())
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_dop ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_dop))
    (fun ops ->
      let lean = Lean.create () and reference = Reference.create () in
      let h = Cc_harness.make () in
      let txns =
        Array.init n_txns (fun i ->
            Cc_harness.txn h ~tid:i ~time:(float_of_int i) ())
      in
      let pending = Array.make n_txns (ref `Done) in
      let check () =
        let a = Lean.observe lean txns
        and b = Reference.observe reference txns in
        if a <> b then
          QCheck.Test.fail_reportf "lean:\n  %s\nreference:\n  %s"
            (String.concat "\n  " a) (String.concat "\n  " b);
        true
      in
      List.for_all
        (fun op ->
          (match op with
          | D_req (i, page, x, policy) ->
              if !(pending.(i)) = `Done then begin
                let p = Cc_harness.page page in
                pending.(i) <- Lean.request lean txns.(i) p x policy;
                ignore
                  (Reference.request reference txns.(i) p x policy
                    : [ `Waiting | `Done ] ref)
              end
          | D_release i ->
              let txn = txns.(i) in
              Lean.release_all lean txn;
              Reference.release_all reference txn;
              txns.(i) <-
                {
                  txn with
                  Txn.attempt = txn.Txn.attempt + 1;
                  doomed = false;
                  phase = Txn.Working;
                }
          | D_doom i -> txns.(i).Txn.doomed <- true);
          Lean.settle lean;
          Reference.settle reference;
          check ())
        ops)

let suite =
  [
    Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
    Alcotest.test_case "exclusive blocks" `Quick test_exclusive_blocks;
    Alcotest.test_case "fcfs no queue jump" `Quick test_fcfs_no_queue_jump;
    Alcotest.test_case "upgrade sole holder" `Quick test_upgrade_sole_holder;
    Alcotest.test_case "upgrade waits for reader" `Quick
      test_upgrade_waits_for_other_reader;
    Alcotest.test_case "conversion jumps queue" `Quick
      test_conversion_jumps_queue;
    Alcotest.test_case "release rejects waiters" `Quick
      test_release_rejects_waiters;
    Alcotest.test_case "blockers reported" `Quick test_blockers_reported;
    Alcotest.test_case "waits-for edges" `Quick test_edges;
    Alcotest.test_case "blocking tally" `Quick test_blocking_tally;
    Alcotest.test_case "re-acquire held lock" `Quick test_reacquire_held;
    Alcotest.test_case "conversion cycle victim" `Quick
      test_conversion_cycle_victim;
    Alcotest.test_case "twice-listed entry freed once" `Quick
      test_twice_listed_entry_freed_once;
    Alcotest.test_case "reused entry starts empty" `Quick
      test_reused_entry_starts_empty;
    Alcotest.test_case "reused footprint starts empty" `Quick
      test_reused_footprint_starts_empty;
    Alcotest.test_case "recycling stays bounded" `Quick test_recycling_bounded;
    QCheck_alcotest.to_alcotest prop_no_conflicting_holders;
    QCheck_alcotest.to_alcotest prop_index_matches_full_table;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_index_grows_and_shrinks;
  ]
