(* Host-speed calibration.

   On a shared host the same rep runs up to a third slower for minutes at
   a time, and a fixed, stdlib-only kernel slows down with it. So every
   timing is scaled by [reference] / (kernel time measured around it),
   which reads as seconds on the reference host at its usual speed. The
   kernel touches no code of this repository, so a faster simulator
   cannot cancel itself out, and it runs in processes of its own, so it
   neither sees nor leaves behind the simulator's heap.

   The kernel has to run where the workload runs: one copy per domain
   the workload uses, at once, on the same cores. The two vCPUs of the
   reference host slow down independently, and at times slow each other
   down (two copies at once then take 0.3 s each instead of 0.13 s), so
   a copy elsewhere tracks nothing: scaled by one unpinned copy, the
   run medians of paper-2pl-8n spread 10 % over ten runs. *)

module Int_map = Map.Make (Int)

(* Allocation and pointer chasing over a few MiB, like the simulator. *)
let kernel () =
  let st = Random.State.make [| 7 |] in
  let m = ref Int_map.empty in
  for i = 0 to 70_000 do
    m := Int_map.add (Random.State.int st 1_000_000) i !m
  done;
  let found = ref 0 in
  for _ = 0 to 140_000 do
    match Int_map.find_opt (Random.State.int st 1_000_000) !m with
    | Some v -> found := !found + v
    | None -> ()
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 70_000 do
    Hashtbl.replace h (Random.State.int st 1_000_000) i
  done;
  let sorted =
    List.sort Float.compare (List.init 70_000 (fun _ -> Random.State.float st 1.))
  in
  ignore (Sys.opaque_identity (!found, h, sorted))

(* Seconds [kernel] takes here, measured inside this process. *)
let run_kernel () =
  let t0 = Unix.gettimeofday () in
  kernel ();
  Unix.gettimeofday () -. t0

(* The kernel's usual time on the reference host (Xeon 2.1 GHz, two
   vCPUs), alone on a core. *)
let reference = 0.13

(* Mean seconds the kernel takes in [jobs] fresh child processes
   ([--calibrate]) running at once. The children inherit this process's
   CPU affinity. *)
let measure ~jobs =
  let exe = Sys.executable_name in
  let spawn _ =
    let r, w = Unix.pipe ~cloexec:true () in
    let pid =
      Unix.create_process exe [| exe; "--calibrate" |] Unix.stdin w Unix.stderr
    in
    Unix.close w;
    (pid, r)
  in
  let collect (pid, r) =
    let ic = Unix.in_channel_of_descr r in
    let out = In_channel.input_all ic in
    close_in ic;
    match (Unix.waitpid [] pid, float_of_string_opt (String.trim out)) with
    | (_, Unix.WEXITED 0), Some s when s > 0. -> s
    | _ -> failwith ("calibration child failed: " ^ out)
  in
  let children = List.init jobs spawn in
  List.fold_left (fun acc c -> acc +. collect c) 0. children
  /. float_of_int jobs

(* Re-executes this program pinned to the first core it may use (with
   [taskset], which the children then inherit), so that a one-domain
   workload and its calibration share a core. Carries on unpinned where
   there is no [taskset] or no affinity list to read. *)
let pin_to_one_core () =
  let first_allowed () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "Cpus_allowed_list"; cpus ] ->
               Scanf.sscanf_opt (String.trim cpus) "%d" Fun.id
           | _ -> None)
  in
  if Sys.getenv_opt "BENCHSUITE_PINNED" = None then
    match first_allowed () with
    | exception Sys_error _ -> ()
    | None -> ()
    | Some cpu -> (
        Unix.putenv "BENCHSUITE_PINNED" (string_of_int cpu);
        let args = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
        try
          Unix.execvp "taskset"
            (Array.append
               [| "taskset"; "-c"; string_of_int cpu; Sys.executable_name |]
               args)
        with Unix.Unix_error _ -> ())
