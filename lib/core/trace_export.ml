(** Trace exporters: JSONL and Chrome trace_event sinks for the typed
    event stream.

    JSON is emitted by hand (one small, dependency-free printer) in two
    shapes:

    - {!jsonl_sink}: one JSON object per line per event — the complete
      stream, including per-interval {!Ddbm_model.Event.Sample} rows
      with nested per-node utilizations;
    - {!Chrome}: the Chrome trace_event format (a JSON document with a
      ["traceEvents"] array), loadable in Perfetto ({:https://ui.perfetto.dev})
      or [chrome://tracing]. Process 0 is the host node and process
      [i+1] is processing node [i]; thread ids are transaction ids, so
      each transaction reads as one horizontal track. Attempts, lock
      waits, disk accesses and CPU slices become duration slices; wounds,
      Snoop rounds and restart waits become instants; sampler rows
      become counter tracks. Raw network messages are deliberately left
      out of the Chrome view (they dominate event volume); use the JSONL
      exporter to see them. *)

open Ddbm_model

(* ------------------------------------------------------------------ *)
(* Minimal JSON printing                                               *)

let jstr s = "\"" ^ Metric.escape ~quote:true s ^ "\""

(* Deterministic, JSON-valid float formatting ("%g" may print "1e-07",
   which JSON accepts; infinities and NaNs never occur in the stream). *)
let jfloat f = Printf.sprintf "%.9g" f

let jfield (k, v) =
  jstr k ^ ":"
  ^
  match v with
  | Event.I i -> string_of_int i
  | Event.F f -> jfloat f
  | Event.S s -> jstr s
  | Event.B b -> if b then "true" else "false"

let jobj fields = "{" ^ String.concat "," fields ^ "}"

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)

let sample_json ~time ({ Event.active; host_cpu_util; nodes } : Event.sample)
    =
  let node_json (n : Event.node_sample) =
    jobj
      [
        jstr "cpu" ^ ":" ^ jfloat n.Event.cpu_util;
        jstr "disk" ^ ":" ^ jfloat n.Event.disk_util;
        jstr "cpu_q" ^ ":" ^ string_of_int n.Event.cpu_queue;
        jstr "disk_q" ^ ":" ^ string_of_int n.Event.disk_queue;
      ]
  in
  jobj
    [
      jstr "t" ^ ":" ^ jfloat time;
      jstr "ev" ^ ":" ^ jstr "sample";
      jstr "active" ^ ":" ^ string_of_int active;
      jstr "host_cpu" ^ ":" ^ jfloat host_cpu_util;
      jstr "nodes" ^ ":["
      ^ String.concat "," (Array.to_list (Array.map node_json nodes))
      ^ "]";
    ]

(** A sink writing one JSON object per event to [out], one per line. *)
let jsonl_sink out : Tracer.sink =
 fun ~time ev ->
  let line =
    match[@warning "-4"] ev with
    | Event.Sample s -> sample_json ~time s
    (* The generic arm serializes any event via Event.name/Event.fields,
       which are themselves exhaustive matches. *)
    (* lint: allow catch-all-event *)
    | ev ->
        jobj
          ((jstr "t" ^ ":" ^ jfloat time)
           :: (jstr "ev" ^ ":" ^ jstr (Event.name ev))
           :: List.map jfield (Event.fields ev))
  in
  out line;
  out "\n"

(* ------------------------------------------------------------------ *)
(* Chrome trace_event                                                  *)

module Chrome = struct
  type t = {
    out : string -> unit;
    mutable first : bool;
    attempt_starts : (int * int, float) Hashtbl.t;
        (** (tid, attempt) -> Attempt_start time *)
    prepare_starts : (int * int, float) Hashtbl.t;
    mutable closed : bool;
  }

  let us time = jfloat (time *. 1e6)

  let record t fields =
    if t.first then t.first <- false else t.out ",";
    t.out "\n";
    t.out (jobj fields)

  (* One trace_event record. [ph] "X" needs [dur]; [ts] and [dur] are in
     microseconds. *)
  let event t ~ph ~pid ~tid ~name ~ts ?dur ?(args = []) () =
    record t
      ([
         jstr "ph" ^ ":" ^ jstr ph;
         jstr "pid" ^ ":" ^ string_of_int pid;
         jstr "tid" ^ ":" ^ string_of_int tid;
         jstr "name" ^ ":" ^ jstr name;
         jstr "ts" ^ ":" ^ us ts;
       ]
      @ (match dur with
        | Some d -> [ jstr "dur" ^ ":" ^ us d ]
        | None -> [])
      @
      match args with
      | [] -> []
      | args -> [ jstr "args" ^ ":" ^ jobj (List.map jfield args) ])

  let process_name t ~pid name =
    record t
      [
        jstr "ph" ^ ":" ^ jstr "M";
        jstr "pid" ^ ":" ^ string_of_int pid;
        jstr "name" ^ ":" ^ jstr "process_name";
        jstr "args" ^ ":" ^ jobj [ jstr "name" ^ ":" ^ jstr name ];
      ]

  (** [create ?num_nodes out] starts a Chrome trace document on [out].
      With [num_nodes], processes are named up front ("host",
      "proc 0", ...). Call {!close} to terminate the document. *)
  let create ?num_nodes out =
    let t =
      {
        out;
        first = true;
        attempt_starts = Hashtbl.create 256;
        prepare_starts = Hashtbl.create 256;
        closed = false;
      }
    in
    out "{\"traceEvents\":[";
    (match num_nodes with
    | None -> ()
    | Some n ->
        process_name t ~pid:0 "host";
        for i = 0 to n - 1 do
          process_name t ~pid:(i + 1) (Printf.sprintf "proc %d" i)
        done);
    t

  let page_name prefix page = Format.asprintf "%s %a" prefix Ids.Page.pp page
  let pid_of = function Ids.Host -> 0 | Ids.Proc i -> i + 1

  let sink t : Tracer.sink =
   fun ~time ev ->
    match[@warning "-4"] ev with
    | Event.Attempt_start { tid; attempt } ->
        Hashtbl.replace t.attempt_starts (tid, attempt) time
    | Event.Prepare { tid; attempt } ->
        Hashtbl.replace t.prepare_starts (tid, attempt) time
    | Event.Committed { tid; attempt; response } ->
        (match Hashtbl.find_opt t.prepare_starts (tid, attempt) with
        | Some start ->
            Hashtbl.remove t.prepare_starts (tid, attempt);
            event t ~ph:"X" ~pid:0 ~tid ~name:"2pc" ~ts:start
              ~dur:(time -. start) ()
        | None -> ());
        (match Hashtbl.find_opt t.attempt_starts (tid, attempt) with
        | Some start ->
            Hashtbl.remove t.attempt_starts (tid, attempt);
            event t ~ph:"X" ~pid:0 ~tid
              ~name:(Printf.sprintf "attempt %d (commit)" attempt)
              ~ts:start ~dur:(time -. start)
              ~args:[ ("response", Event.F response) ]
              ()
        | None -> ())
    | Event.Aborted { tid; attempt; reason } -> (
        Hashtbl.remove t.prepare_starts (tid, attempt);
        match Hashtbl.find_opt t.attempt_starts (tid, attempt) with
        | Some start ->
            Hashtbl.remove t.attempt_starts (tid, attempt);
            event t ~ph:"X" ~pid:0 ~tid
              ~name:(Printf.sprintf "attempt %d (abort)" attempt)
              ~ts:start ~dur:(time -. start)
              ~args:[ ("reason", Event.S (Txn.abort_reason_name reason)) ]
              ()
        | None -> ())
    | Event.Lock_grant { tid; node; page; mode; waited; _ } ->
        if waited > 0. then
          event t ~ph:"X" ~pid:(node + 1) ~tid
            ~name:(page_name "lock-wait" page)
            ~ts:(time -. waited) ~dur:waited
            ~args:[ ("mode", Event.S (Event.lock_mode_name mode)) ]
            ()
    | Event.Disk_access { tid; node; write; dur; _ } ->
        event t ~ph:"X" ~pid:(node + 1) ~tid
          ~name:(if write then "disk-write" else "disk-read")
          ~ts:(time -. dur) ~dur ()
    | Event.Cpu_slice { tid; node; dur; _ } ->
        event t ~ph:"X" ~pid:(node + 1) ~tid ~name:"cpu" ~ts:(time -. dur)
          ~dur ()
    | Event.Wound { tid; from_node; reason; _ } ->
        event t ~ph:"i" ~pid:(from_node + 1) ~tid ~name:"wound" ~ts:time
          ~args:[ ("reason", Event.S (Txn.abort_reason_name reason)) ]
          ()
    | Event.Snoop_round { node; edges; victims } ->
        event t ~ph:"i" ~pid:(node + 1) ~tid:0 ~name:"snoop-round" ~ts:time
          ~args:[ ("edges", Event.I edges); ("victims", Event.I victims) ]
          ()
    | Event.Restart_wait { tid; attempt; delay } ->
        event t ~ph:"i" ~pid:0 ~tid ~name:"restart-wait" ~ts:time
          ~args:[ ("attempt", Event.I attempt); ("delay", Event.F delay) ]
          ()
    | Event.Sample { active; host_cpu_util; nodes } ->
        event t ~ph:"C" ~pid:0 ~tid:0 ~name:"active" ~ts:time
          ~args:[ ("active", Event.I active) ]
          ();
        event t ~ph:"C" ~pid:0 ~tid:0 ~name:"util" ~ts:time
          ~args:[ ("cpu", Event.F host_cpu_util) ]
          ();
        Array.iteri
          (fun i (n : Event.node_sample) ->
            event t ~ph:"C" ~pid:(i + 1) ~tid:0 ~name:"util" ~ts:time
              ~args:
                [
                  ("cpu", Event.F n.Event.cpu_util);
                  ("disk", Event.F n.Event.disk_util);
                ]
              ();
            event t ~ph:"C" ~pid:(i + 1) ~tid:0 ~name:"queues" ~ts:time
              ~args:
                [
                  ("cpu", Event.I n.Event.cpu_queue);
                  ("disk", Event.I n.Event.disk_queue);
                ]
              ())
          nodes
    | Event.Node_crashed { node } ->
        event t ~ph:"i" ~pid:(pid_of node) ~tid:0 ~name:"node-crashed"
          ~ts:time ()
    | Event.Node_recovered { node } ->
        event t ~ph:"i" ~pid:(pid_of node) ~tid:0 ~name:"node-recovered"
          ~ts:time ()
    | Event.Txn_orphaned { tid; attempt; node } ->
        event t ~ph:"i" ~pid:(node + 1) ~tid ~name:"txn-orphaned" ~ts:time
          ~args:[ ("attempt", Event.I attempt) ]
          ()
    | Event.Log_forced { tid; node; dur; _ } ->
        event t ~ph:"X" ~pid:(node + 1) ~tid ~name:"log-force"
          ~ts:(time -. dur) ~dur ()
    | Event.Cohort_resurrected { tid; attempt; node; backup } ->
        event t ~ph:"i" ~pid:(backup + 1) ~tid ~name:"cohort-resurrected"
          ~ts:time
          ~args:[ ("attempt", Event.I attempt); ("from_node", Event.I node) ]
          ()
    | Event.Recovery_started { node } ->
        event t ~ph:"i" ~pid:(node + 1) ~tid:0 ~name:"recovery-started"
          ~ts:time ()
    | Event.Recovery_completed { node; duration; redone } ->
        event t ~ph:"X" ~pid:(node + 1) ~tid:0 ~name:"recovery"
          ~ts:(time -. duration) ~dur:duration
          ~args:[ ("redone", Event.I redone) ]
          ()
    (* chain slices ride on per-chain track ids (tid = chain + 1) so a
       chain-parallel recovery renders as stacked lanes under the node *)
    | Event.Recovery_chain_completed { node; chain; txns; duration } ->
        event t ~ph:"X" ~pid:(node + 1) ~tid:(chain + 1)
          ~name:"recovery-chain" ~ts:(time -. duration) ~dur:duration
          ~args:[ ("txns", Event.I txns) ]
          ()
    | Event.Submit _ | Event.Setup_done _ | Event.Cohort_load _
    | Event.Cohort_start _ | Event.Lock_request _ | Event.Lock_release _
    | Event.Page_read _ | Event.Page_installed _
    | Event.Msg_send _ | Event.Msg_recv _ | Event.Work_done _ | Event.Vote _
    | Event.Decision _ | Event.Msg_dropped _ | Event.Timeout_fired _
    | Event.Recovery_chain_started _ ->
        ()

  (** Terminate the JSON document (idempotent). *)
  let close t =
    if not t.closed then begin
      t.closed <- true;
      t.out "\n]}\n"
    end
end
