(* Spans recorded by the benchmark around its calls into each layer:
   name, start, end and the enclosing span. They are kept in memory and
   written out as a Chrome trace_event file when the workload ends. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  start : float;
  mutable stop : float;
}

let recorded : span list ref = ref []
let open_stack : span list ref = ref []
let next_id = ref 0

let with_span name f =
  let parent = match !open_stack with s :: _ -> Some s.id | [] -> None in
  let s = { id = !next_id; name; parent; start = Unix.gettimeofday (); stop = 0. } in
  incr next_id;
  open_stack := s :: !open_stack;
  Fun.protect f ~finally:(fun () ->
      s.stop <- Unix.gettimeofday ();
      open_stack := List.tl !open_stack;
      recorded := s :: !recorded)

let all () = List.sort (fun a b -> Int.compare a.id b.id) !recorded

(* Duration minus the time covered by direct children; children of one
   span run one after another, so their durations add up. *)
let self_time spans s =
  List.fold_left
    (fun acc c ->
      match c.parent with
      | Some p when p = s.id -> acc -. (c.stop -. c.start)
      | _ -> acc)
    (s.stop -. s.start) spans

(* Self time summed by span name, in first-appearance order. *)
let self_times () =
  let spans = all () in
  List.fold_left
    (fun acc s ->
      let t = self_time spans s in
      match List.assoc_opt s.name acc with
      | Some prev -> (s.name, prev +. t) :: List.remove_assoc s.name acc
      | None -> (s.name, t) :: acc)
    [] spans
  |> List.rev

(* Chrome trace_event "complete" events, one process per workload. Span
   and workload names are plain ASCII, so OCaml's %S quoting is valid
   JSON for them. *)
let write_chrome ~path ~process_name =
  let pid = Unix.getpid () in
  let meta =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":1,\"args\":{\"name\":%S}}"
      pid process_name
  in
  let event s =
    Printf.sprintf
      "{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%s}}"
      s.name pid (s.start *. 1e6)
      ((s.stop -. s.start) *. 1e6)
      s.id
      (match s.parent with Some p -> string_of_int p | None -> "null")
  in
  let events = meta :: List.map event (all ()) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\":[\n";
      output_string oc (String.concat ",\n" events);
      output_string oc "\n]}\n")
