(* Exhaustive check of the commit protocol's transition tables
   ([Ddbm.Twopc]).

   One coordinator and 1–3 cohorts, composed from [Twopc.coord_step] and
   [Twopc.cohort_step] over a network held as a set of messages: any
   message in it may be delivered, delivered and kept (a duplicate), or
   dropped, and any process waiting on its mailbox may time out. A
   cohort's accesses may fail, and its prepare may vote yes, vote no or
   fail; a failed cohort's abort demand reaches the coordinator over the
   same network. The coordinator has a
   budget of one retry and its round stops counting once the budget is
   spent, so the state space is finite; states are memoised.

   The machine's mailboxes are this network's other half: a message to a
   cohort whose load was never delivered waits, as it waits in the
   cohort's mailbox; a cohort runs its accesses and its CC prepare step
   without reading its mailbox, so both are one step here; and once the
   coordinator has finished, an inquiry is answered from the decision
   log and any other message to it goes unread. A message the tables
   will ignore in every state its receiver can still reach is taken off
   the network: delivering, keeping or dropping it changes nothing.

   Safety is AC1–AC3 of atomic commitment at every reachable state and on
   every step, and AC4 over the runs with no drop, duplicate or timeout.
   Liveness, AC5, asks that from every reachable state some fault-free
   suffix (deliveries and timeouts, no drop or duplicate) ends with the
   coordinator finished and every cohort decided, a cohort never loaded
   counting as aborted. *)

open Ddbm
module T = Twopc

let max_retries = 1

type coord = Phase of T.phase | Finished of T.decision

(* A message to a cohort, or from one to the coordinator. *)
type msg = To_cohort of T.cohort_input | To_coord of T.coord_input

(* The messages, one bit each per cohort in [net]. *)
let kinds =
  T.
    [|
      To_cohort Load;
      To_cohort Do_prepare;
      To_cohort Do_commit;
      To_cohort Do_abort;
      To_coord Work_done;
      To_coord Vote_yes;
      To_coord Vote_no;
      To_coord Done_ack;
      To_coord Inquiry;
      To_coord Abort_demand;
    |]

let names =
  [|
    "load"; "do-prepare"; "do-commit"; "do-abort"; "work-done"; "vote-yes";
    "vote-no"; "done-ack"; "inquiry"; "abort-demand";
  |]

let per = Array.length kinds

let index_of table x =
  let rec go k = if table.(k) = x then k else go (k + 1) in
  go 0

let bit i m = 1 lsl ((i * per) + index_of kinds m)
let load = To_cohort T.Load
let do_prepare = To_cohort T.Do_prepare
let do_commit = To_cohort T.Do_commit
let do_abort = To_cohort T.Do_abort
let work_done = To_coord T.Work_done
let vote_yes = To_coord T.Vote_yes
let vote_no = To_coord T.Vote_no
let done_ack = To_coord T.Done_ack
let inquiry = To_coord T.Inquiry
let abort_demand = To_coord T.Abort_demand

type state = {
  coord : coord;
  owing : int;  (** cohorts that owe the phase a message, as a mask *)
  round : int;
  cohorts : T.cohort_state array;  (** never mutated once built *)
  net : int;
  refused : bool;
      (** some cohort has sent NO or failed; kept in fault-free runs *)
}

let cohort_states =
  T.
    [|
      Unloaded; Working; Preparing; Voted_yes; Voted_no; Aborting; Committed;
      Aborted;
    |]

let coords =
  T.
    [|
      Phase Work;
      Phase Votes;
      Phase (Acks Commit);
      Phase (Acks Abort);
      Finished Commit;
      Finished Abort;
    |]

(* A state packed into one int: 3 bits of coordinator, 3 of owing mask,
   2 of round, 1 of history, 3 bits per cohort, then the network's 30. *)
let encode s =
  let k =
    index_of coords s.coord
    lor (s.owing lsl 3)
    lor (s.round lsl 6)
    lor (Bool.to_int s.refused lsl 8)
  in
  let k = ref k in
  Array.iteri
    (fun i c -> k := !k lor (index_of cohort_states c lsl (9 + (3 * i))))
    s.cohorts;
  !k lor (s.net lsl 18)

let decode ~n k =
  {
    coord = coords.(k land 7);
    owing = (k lsr 3) land 7;
    round = (k lsr 6) land 3;
    refused = (k lsr 8) land 1 = 1;
    cohorts =
      Array.init n (fun i -> cohort_states.((k lsr (9 + (3 * i))) land 7));
    net = k lsr 18;
  }

(* ---- the composition ------------------------------------------------ *)

let all ~n = (1 lsl n) - 1

let mask ~n m targets =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    if targets land (1 lsl i) <> 0 then acc := !acc lor bit i m
  done;
  !acc

let phase_msg = function
  | T.Work -> load
  | T.Votes -> do_prepare
  | T.Acks T.Commit -> do_commit
  | T.Acks T.Abort -> do_abort

(* A decision goes to every cohort: in the parallel pattern every load
   was sent, so every cohort is loaded in the machine's sense. *)
let decide ~n s d =
  let p = T.Acks d in
  {
    s with
    coord = Phase p;
    owing = all ~n;
    round = 1;
    net = s.net lor mask ~n (phase_msg p) (all ~n);
  }

(* The owing cohorts a timeout in [p] re-sends to. *)
let silent ~n s p =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    if s.owing land (1 lsl i) <> 0 && T.resends p s.cohorts.(i) then
      acc := !acc lor (1 lsl i)
  done;
  !acc

let coord_act ~n s p (a : T.coord_action) ~from =
  match a with
  | T.Wait -> s
  | T.Settle -> (
      let s = { s with owing = s.owing land lnot (1 lsl from); round = 1 } in
      if s.owing <> 0 then s
      else
        match p with
        | T.Work ->
            {
              s with
              coord = Phase T.Votes;
              owing = all ~n;
              net = s.net lor mask ~n do_prepare (all ~n);
            }
        | T.Votes -> decide ~n s T.Commit
        | T.Acks d -> { s with coord = Finished d })
  | T.Refused | T.Abort_attempt _ | T.Abort_as_told -> decide ~n s T.Abort
  | T.Reprompt -> { s with net = s.net lor bit from (phase_msg p) }
  | T.Retry ->
      {
        s with
        net = s.net lor mask ~n (phase_msg p) (silent ~n s p);
        round = min (s.round + 1) (max_retries + 1);
      }
  | T.Orphan -> { s with coord = Finished T.Abort }

(* Feed [input] to cohort [i]: the states it can lead to, each with a
   note on how its accesses or its prepare ended, if they ran. *)
let rec cohort_input s i input =
  let st = s.cohorts.(i) in
  let a = T.cohort_step st input in
  let cohorts = Array.copy s.cohorts in
  cohorts.(i) <- T.after st a;
  let s = { s with cohorts } in
  let send ?(refused = s.refused) m =
    [ ("", { s with refused; net = s.net lor bit i m }) ]
  in
  let noted note = List.map (fun (_, s) -> (note, s)) in
  match a with
  | T.Nothing | T.Stop -> [ ("", s) ]
  | T.Start ->
      send work_done @ noted " (fails)" (cohort_input s i T.Failed)
  | T.Resend_work_done -> send work_done
  | T.Prepare ->
      noted " (votes yes)" (cohort_input s i T.Yes)
      @ noted " (votes no)" (cohort_input s i T.No)
      @ noted " (fails)" (cohort_input s i T.Failed)
  | T.Send_yes | T.Resend_yes -> send vote_yes
  | T.Send_no -> send ~refused:true vote_no
  | T.Resend_no -> send vote_no
  | T.Release -> send ~refused:true abort_demand
  | T.Inquire -> send inquiry
  | T.Install | T.Discard | T.Ack -> send done_ack

let deliver ~n s i m =
  match (m, s.coord) with
  | To_cohort input, (Phase _ | Finished _) -> cohort_input s i input
  | To_coord input, Finished d ->
      (* the decision log answers an inquiry; nobody reads the rest *)
      if input = T.Inquiry then
        let answer = if d = T.Commit then do_commit else do_abort in
        [ ("", { s with net = s.net lor bit i answer }) ]
      else [ ("", s) ]
  | To_coord input, Phase p ->
      let owed = s.owing land (1 lsl i) <> 0 in
      [
        ( "",
          coord_act ~n s p
            (T.coord_step p input ~owed ~doomed:false ~exhausted:false)
            ~from:i );
      ]

(* A cohort reads its mailbox only once loaded. *)
let deliverable s i m = m = load || s.cohorts.(i) <> T.Unloaded

(* A process waits on its mailbox, and so may time out, in these
   states. *)
let waits = function
  | T.Working | T.Voted_yes | T.Voted_no | T.Aborting -> true
  | T.Unloaded | T.Preparing | T.Committed | T.Aborted -> false

(* ---- dead messages -------------------------------------------------- *)

let cohort_inputs =
  T.[ Load; Do_prepare; Do_commit; Do_abort; Yes; No; Failed; Timeout; Relocated ]

(* The states a cohort in each state can still reach, by the table. *)
let reach =
  Array.map
    (fun st ->
      let rec close seen = function
        | [] -> seen
        | x :: todo ->
            let next =
              List.fold_left
                (fun next i ->
                  let y = T.after x (T.cohort_step x i) in
                  if List.mem y seen || List.mem y next then next else y :: next)
                [] cohort_inputs
            in
            close (next @ seen) (next @ todo)
      in
      close [ st ] [ st ])
    cohort_states

(* The coordinator's phases from [p] on. *)
let phases_from = function
  | T.Work -> T.[ Work; Votes; Acks Commit; Acks Abort ]
  | T.Votes -> T.[ Votes; Acks Commit; Acks Abort ]
  | T.Acks d -> [ T.Acks d ]

(* Whether delivering the message at bit [b] is a no-op in every state
   its receiver can still reach. *)
let dead s b =
  let i = b / per in
  match kinds.(b mod per) with
  | To_cohort input ->
      List.for_all
        (fun st -> T.cohort_step st input = T.Nothing)
        reach.(index_of cohort_states s.cohorts.(i))
  | To_coord input -> (
      (* the decision log answers an inquiry at any time *)
      input <> T.Inquiry
      &&
      match s.coord with
      | Finished _ -> true
      | Phase p ->
          let owed = s.owing land (1 lsl i) <> 0 in
          let ignored p ~owed =
            T.coord_step p input ~owed ~doomed:false ~exhausted:false = T.Wait
          in
          ignored p ~owed
          && ignored p ~owed:false
          && List.for_all
               (fun q -> ignored q ~owed:true && ignored q ~owed:false)
               (List.tl (phases_from p)))

let canon ~n ~faults s =
  let net = ref s.net in
  for b = 0 to (n * per) - 1 do
    if !net land (1 lsl b) <> 0 && dead s b then
      net := !net land lnot (1 lsl b)
  done;
  { s with net = !net; refused = s.refused && not faults }

(* ---- exploration ---------------------------------------------------- *)

type step =
  | Deliver of int * string * string
  | Duplicate of int * string * string
  | Drop of int * string
  | Coord_timeout
  | Cohort_timeout of int

let describe = function
  | Deliver (i, m, note) -> Printf.sprintf "deliver %s cohort %d%s" m i note
  | Duplicate (i, m, note) ->
      Printf.sprintf "deliver and keep %s cohort %d%s" m i note
  | Drop (i, m) -> Printf.sprintf "drop %s cohort %d" m i
  | Coord_timeout -> "coordinator times out"
  | Cohort_timeout i -> Printf.sprintf "cohort %d times out" i

(* Every step from [s]: [f step ~fault s']; with [faults] off, only
   deliveries. *)
let successors ~n ~faults s f =
  for b = 0 to (n * per) - 1 do
    if s.net land (1 lsl b) <> 0 then begin
      let i = b / per and m = kinds.(b mod per) in
      let name =
        names.(b mod per)
        ^ match m with To_cohort _ -> " to" | To_coord _ -> " from"
      in
      let rest = s.net land lnot (1 lsl b) in
      if deliverable s i m then begin
        List.iter
          (fun (note, s') -> f (Deliver (i, name, note)) ~fault:false s')
          (deliver ~n { s with net = rest } i m);
        if faults then
          List.iter
            (fun (note, s') -> f (Duplicate (i, name, note)) ~fault:true s')
            (deliver ~n s i m)
      end;
      if faults then f (Drop (i, name)) ~fault:true { s with net = rest }
    end
  done;
  if faults then begin
    (match s.coord with
    | Phase p ->
        f Coord_timeout ~fault:false
          (coord_act ~n s p
             (T.coord_step p T.Silence
                ~owed:(silent ~n s p <> 0)
                ~doomed:false
                ~exhausted:(s.round > max_retries))
             ~from:(-1))
    | Finished _ -> ());
    for i = 0 to n - 1 do
      if waits s.cohorts.(i) then
        List.iter
          (fun (_, s') -> f (Cohort_timeout i) ~fault:false s')
          (cohort_input s i T.Timeout)
    done
  end

let initial ~n =
  {
    coord = Phase T.Work;
    owing = all ~n;
    round = 1;
    cohorts = Array.make n T.Unloaded;
    net = mask ~n load (all ~n);
    refused = false;
  }

(* ---- the properties ------------------------------------------------- *)

let decided = function
  | T.Committed -> Some T.Commit
  | T.Aborted -> Some T.Abort
  | T.Unloaded | T.Working | T.Preparing | T.Voted_yes | T.Voted_no
  | T.Aborting ->
      None

let coord_decision s =
  match s.coord with
  | Phase (T.Acks d) | Finished d -> Some d
  | Phase (T.Work | T.Votes) -> None

(* AC1, AC3 and, in a run without faults, AC4 at a state; the first
   that fails. *)
let unsafe ~faults s =
  let decisions =
    Option.to_list (coord_decision s)
    @ List.filter_map decided (Array.to_list s.cohorts)
  in
  if List.exists (fun d -> d <> List.hd decisions) decisions then
    Some "AC1: deciders disagree"
  else if
    List.mem T.Commit decisions
    && not
         (Array.for_all
            (fun c -> c = T.Voted_yes || c = T.Committed)
            s.cohorts)
  then Some "AC3: commit without a YES vote from every cohort"
  else if
    (not faults) && (not s.refused)
    && (match coord_decision s with
       | Some T.Abort -> true
       | Some T.Commit | None -> false)
  then Some "AC4: abort with no failure and no NO vote"
  else None

(* AC2 on a step: a decided cohort stays decided the same way. *)
let reverses s s' =
  let r = ref false in
  Array.iteri
    (fun i c ->
      if Option.is_some (decided c) && s'.cohorts.(i) <> c then r := true)
    s.cohorts;
  !r

let finished s =
  (match s.coord with Finished _ -> true | Phase _ -> false)
  && Array.for_all
       (fun c -> c = T.Unloaded || Option.is_some (decided c))
       s.cohorts

type result = {
  states : int;
  safety : (string * string list) option;
      (** the first property broken and the path that breaks it *)
  stuck : (state -> bool) -> string list option;
      (** the shortest path to a state that has the property and no
          fault-free way to finish *)
}

(* Breadth-first over the reachable states, numbered in the order found,
   so that a path read back through [parent] is a shortest one. *)
let explore ~n ~faults =
  let index = Hashtbl.create 65536 in
  let keys = ref [||] and parent = ref [||] and via = ref [||] in
  let count = ref 0 in
  let grow a fill = Array.append a (Array.make (max 1024 (Array.length a)) fill) in
  let add k p st =
    if !count = Array.length !keys then begin
      keys := grow !keys 0;
      parent := grow !parent (-1);
      via := grow !via Coord_timeout
    end;
    Hashtbl.add index k !count;
    !keys.(!count) <- k;
    !parent.(!count) <- p;
    !via.(!count) <- st;
    incr count;
    !count - 1
  in
  let path j =
    let rec go j acc =
      if !parent.(j) < 0 then acc else go !parent.(j) (describe !via.(j) :: acc)
    in
    go j []
  in
  (* fault-free steps, as (from, to) pairs *)
  let e_from = ref [||] and e_to = ref [||] and edges = ref 0 in
  let edge a b =
    if !edges = Array.length !e_from then begin
      e_from := grow !e_from 0;
      e_to := grow !e_to 0
    end;
    !e_from.(!edges) <- a;
    !e_to.(!edges) <- b;
    incr edges
  in
  let safety = ref None in
  let fail p path = if !safety = None then safety := Some (p, path) in
  let s0 = canon ~n ~faults (initial ~n) in
  ignore (add (encode s0) (-1) Coord_timeout : int);
  Option.iter (fun p -> fail p []) (unsafe ~faults s0);
  let next = ref 0 in
  while !next < !count && !safety = None do
    let j = !next in
    incr next;
    let s = decode ~n !keys.(j) in
    successors ~n ~faults s (fun st ~fault s' ->
        let s' = canon ~n ~faults s' in
        let k = encode s' in
        let j' =
          match Hashtbl.find_opt index k with
          | Some j' -> j'
          | None ->
              let j' = add k j st in
              Option.iter (fun p -> fail p (path j')) (unsafe ~faults s');
              j'
        in
        if reverses s s' then
          fail "AC2: a cohort reversed its decision" (path j @ [ describe st ]);
        if not fault then edge j j')
  done;
  (* AC5: mark the states that reach a finished one by fault-free steps *)
  let states = !count in
  let good = Array.init states (fun j -> finished (decode ~n !keys.(j))) in
  let changed = ref true in
  while !changed do
    changed := false;
    for e = !edges - 1 downto 0 do
      let a = !e_from.(e) in
      if (not good.(a)) && good.(!e_to.(e)) then begin
        good.(a) <- true;
        changed := true
      end
    done
  done;
  let stuck wanted =
    let rec first j =
      if j = states then None
      else if (not good.(j)) && wanted (decode ~n !keys.(j)) then Some (path j)
      else first (j + 1)
    in
    first 0
  in
  { states; safety = !safety; stuck }

(* ---- the tests ------------------------------------------------------- *)

let explored = Hashtbl.create 3

(* The faulty exploration at [n] cohorts, run once and shared. *)
let faulty n =
  match Hashtbl.find_opt explored n with
  | Some r -> r
  | None ->
      let t0 = Unix.gettimeofday () (* lint: allow ambient *) in
      let r = explore ~n ~faults:true in
      Printf.printf "%d cohort(s): %d states in %.2f s\n%!" n r.states
        (Unix.gettimeofday () (* lint: allow ambient *) -. t0);
      Hashtbl.add explored n r;
      r

let check_safe r =
  match r.safety with
  | None -> ()
  | Some (p, path) -> Alcotest.failf "%s after: %s" p (String.concat "; " path)

let test_safety n () =
  check_safe (faulty n);
  check_safe (explore ~n ~faults:false)

let commit_decided s =
  match coord_decision s with
  | Some T.Commit -> true
  | Some T.Abort | None -> false

(* ROADMAP item 1's wedge, found in the model: a cohort that has acted
   on the commit decision ends, so once its Done_ack is lost the
   coordinator re-sends Do_commit to a mailbox nobody reads. Until a
   decided cohort answers a repeated decision, AC5 fails after a commit
   decision, and this is the shortest way there. The fix flips this
   test. *)
let test_lost_commit_ack_wedges () =
  Alcotest.(check (option (list string)))
    "shortest stuck state after a commit decision"
    (Some
       [
         "deliver load to cohort 0";
         "deliver work-done from cohort 0";
         "deliver do-prepare to cohort 0 (votes yes)";
         "deliver vote-yes from cohort 0";
         "deliver do-commit to cohort 0";
         "drop done-ack from cohort 0";
       ])
    ((faulty 1).stuck commit_decided)

(* The shortest AC5 counterexample of all: the coordinator times out on
   a slow load and aborts; the load then arrives and starts the cohort,
   its Do_abort is lost, and the coordinator orphans it after the
   budget. A working cohort answers a timeout by re-sending Work_done,
   never by inquiring, so it re-sends to a coordinator that has
   finished, without end. *)
let test_orphaned_worker_never_decides () =
  Alcotest.(check (option (list string)))
    "shortest stuck state"
    (Some
       [
         "coordinator times out";
         "coordinator times out";
         "deliver load to cohort 0";
         "coordinator times out";
         "drop do-abort to cohort 0";
       ])
    ((faulty 1).stuck (fun _ -> true))

let suite =
  [
    Alcotest.test_case "AC1-AC4 hold exhaustively, 1 cohort" `Quick
      (test_safety 1);
    Alcotest.test_case "AC1-AC4 hold exhaustively, 2 cohorts" `Quick
      (test_safety 2);
    Alcotest.test_case "AC1-AC4 hold exhaustively, 3 cohorts" `Quick
      (test_safety 3);
    Alcotest.test_case "AC5 fails: a lost commit ack wedges the coordinator"
      `Quick test_lost_commit_ack_wedges;
    Alcotest.test_case "AC5 fails: an orphaned working cohort never decides"
      `Quick test_orphaned_worker_never_decides;
  ]
