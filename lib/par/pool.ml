(* Hand-rolled work-stealing pool over OCaml 5 domains (no Domainslib).

   The unit of work here is coarse — a whole seeded simulation run takes
   hundreds of milliseconds — so the scheduler optimizes for simplicity
   and determinism, not for nanosecond steal latency:

   - a batch fixes its worker set up front: [min jobs n] domains, each
     owning one deque;
   - tasks are dealt round-robin into the deques by task index; owners
     pop from the front (their own lowest-index work, preserving rough
     submission order), thieves steal from the back;
   - results land in a slot array at their task index, so the merge is
     by construction independent of execution order;
   - the first (lowest-task-index) exception cancels the batch: no new
     task starts, every worker drains and joins, and the exception is
     re-raised in the caller. Nothing hangs.

   Determinism contract: each task must be a self-contained function of
   its input (the simulator guarantees this per (seed, params)); the
   pool adds no shared state beyond the slot array, so a parallel map
   is value-identical to the serial map at any job count. *)

exception Nested_parallelism

(* Is the current domain executing a pool task? Used to reject nested
   parallel maps: a task that fans out again would deadlock-or-oversubscribe
   silently, and every legitimate fan-out site in this codebase is
   top-level. *)
let in_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

type t = { jobs : int }

let default_jobs () = Domain.recommended_domain_count ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { jobs }

let jobs t = t.jobs

(* One per-worker deque: mutex-protected slice of the task-index space.
   [own] serves the owner from the front, [steal] serves thieves from
   the back. Tasks are only ever removed, never added, after the batch
   starts, so an empty deque stays empty. *)
type deque = {
  lock : Mutex.t;
  tasks : int array;  (** task indices dealt to this worker *)
  mutable front : int;
  mutable back : int;  (** exclusive *)
}

let own d =
  Mutex.lock d.lock;
  let r =
    if d.front < d.back then begin
      let i = d.tasks.(d.front) in
      d.front <- d.front + 1;
      i
    end
    else -1
  in
  Mutex.unlock d.lock;
  r

let steal d =
  Mutex.lock d.lock;
  let r =
    if d.front < d.back then begin
      d.back <- d.back - 1;
      d.tasks.(d.back)
    end
    else -1
  in
  Mutex.unlock d.lock;
  r

type 'b batch = {
  deques : deque array;
  slots : 'b option array;
  stop : bool Atomic.t;
  fail_lock : Mutex.t;
  mutable failures : (int * exn * Printexc.raw_backtrace) list;
}

let record_failure b index exn bt =
  Mutex.lock b.fail_lock;
  b.failures <- (index, exn, bt) :: b.failures;
  Mutex.unlock b.fail_lock;
  Atomic.set b.stop true

(* Find the next task for worker [w]: own deque first, then sweep the
   others starting just past [w] so thieves spread out. *)
let next_task b w =
  let n = Array.length b.deques in
  let i = own b.deques.(w) in
  if i >= 0 then i
  else begin
    let found = ref (-1) in
    let k = ref 1 in
    while !found < 0 && !k < n do
      let v = steal b.deques.((w + !k) mod n) in
      if v >= 0 then found := v;
      incr k
    done;
    !found
  end

let worker_loop b f inputs w =
  let continue_ = ref true in
  while !continue_ do
    if Atomic.get b.stop then continue_ := false
    else begin
      let i = next_task b w in
      if i < 0 then continue_ := false
      else
        match f inputs.(i) with
        | v -> b.slots.(i) <- Some v
        | exception exn ->
            record_failure b i exn (Printexc.get_raw_backtrace ())
    end
  done

let run_batch t f inputs =
  let n = Array.length inputs in
  let workers = Stdlib.min t.jobs n in
  let deques =
    Array.init workers (fun w ->
        let mine = ref [] in
        for i = n - 1 downto 0 do
          if i mod workers = w then mine := i :: !mine
        done;
        let tasks = Array.of_list !mine in
        { lock = Mutex.create (); tasks; front = 0; back = Array.length tasks })
  in
  let b =
    {
      deques;
      slots = Array.make n None;
      stop = Atomic.make false;
      fail_lock = Mutex.create ();
      failures = [];
    }
  in
  let in_worker w () =
    Domain.DLS.set in_task true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_task false)
      (fun () -> worker_loop b f inputs w)
  in
  (* Workers 1..n-1 are fresh domains; the caller serves as worker 0 so
     [jobs] counts every executing core, not helpers-plus-one. *)
  let domains =
    Array.init (workers - 1) (fun k -> Domain.spawn (in_worker (k + 1)))
  in
  in_worker 0 ();
  Array.iter Domain.join domains;
  (match
     List.sort
       (fun (i, _, _) (j, _, _) -> Int.compare i j)
       b.failures
   with
  | (_, exn, bt) :: _ -> Printexc.raise_with_backtrace exn bt
  | [] -> ());
  Array.map Option.get b.slots

let map_array t f inputs =
  if Array.length inputs = 0 then [||]
  else if t.jobs = 1 then
    (* serial short-circuit: no domains, no deques, caller's domain does
       the work in index order *)
    Array.map f inputs
  else if Domain.DLS.get in_task then raise Nested_parallelism
  else run_batch t f inputs

let map t f inputs = Array.to_list (map_array t f (Array.of_list inputs))
