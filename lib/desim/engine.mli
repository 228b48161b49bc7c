(** Process-oriented discrete-event simulation engine.

    Model code is written in direct style: a process is an ordinary OCaml
    function that calls {!wait} to let simulated time pass and {!suspend} to
    block until some other process resolves it. Both are implemented with
    OCaml 5 effect handlers, so there are no threads and the simulation is
    fully deterministic: events fire in (time, scheduling order), so events
    at equal times fire in the order they were scheduled.

    A blocked process is resumed straight from its continuation: a
    resumption costs one small queue entry and no closure.

    All times are in simulated seconds. *)

type t

(** A cancellable scheduled event. *)
type handle

(** One-shot continuation of a suspended process, used through {!resolve}
    and {!reject}. Using the same resolver twice raises
    [Invalid_argument]. *)
type 'a resolver

val create : unit -> t

(** Current simulated time. *)
val now : t -> float

(** The engine's clock, read-only outside the engine. [(clock t).now] is
    {!now}; a model that keeps the record and reads the field gets the
    time unboxed, where each call of {!now} returns a fresh boxed float. *)
type clock = private { mutable now : float }

val clock : t -> clock

(** [schedule t ~at f] runs [f] at simulated time [at] (>= now). The
    returned handle can cancel it before it fires. Raises
    [Invalid_argument] when [at] is in the past or NaN. *)
val schedule : t -> at:float -> (unit -> unit) -> handle

(** [schedule_after t ~delay f] = [schedule t ~at:(now t +. delay) f]. *)
val schedule_after : t -> delay:float -> (unit -> unit) -> handle

val cancel : handle -> unit

(** A handle that is already cancelled and was never queued, to
    initialise a timer field; cancelling it again does nothing. *)
val cancelled_handle : unit -> handle

(** [spawn t f] starts a new process executing [f ()] at the current time
    (it begins running when the scheduler reaches that event). Uncaught
    exceptions other than those injected via {!reject} escape [run]. *)
val spawn : t -> (unit -> unit) -> unit

(** Let simulated time advance by [delay]. Only valid inside a process;
    raises [Invalid_argument] when [delay] is NaN. *)
val wait : float -> unit

(** Block the calling process until another party resolves it. The
    registration function receives the resolver and must stash it somewhere
    (a queue, a lock table, ...). Only valid inside a process. *)
val suspend : ('a resolver -> unit) -> 'a

(** A prebuilt {!suspend}: [parker register] builds, once, what
    [suspend register] builds on every call. [park p] then blocks the
    calling process exactly as [suspend register] would, allocating only
    the resolver. [register] runs synchronously inside [park], so state it
    reads from a mutable field set just before [park] is the caller's. *)
type 'a parker

val parker : ('a resolver -> unit) -> 'a parker

(** Only valid inside a process. *)
val park : 'a parker -> 'a

(** [resolve r v] resumes the process suspended on [r] with [v], at the
    current time of its engine (after the events already queued for that
    time). *)
val resolve : 'a resolver -> 'a -> unit

(** [reject r e] resumes the process suspended on [r] by raising [e] in
    it, at the same point in the order as {!resolve}. *)
val reject : 'a resolver -> exn -> unit

(** Run until the event queue is empty, [until] is reached (events at later
    times stay queued and [now] becomes [until]), or {!stop} is called. *)
val run : ?until:float -> t -> unit

(** Make [run] return after the current event completes. *)
val stop : t -> unit

(** Number of events processed so far (for performance reporting). *)
val events_processed : t -> int

(** Raised when {!wait} or {!suspend} is called outside a process. *)
exception Not_in_process
