(** Process-oriented discrete-event simulation engine.

    Model code is written in direct style: a process is an ordinary OCaml
    function that calls {!wait} to let simulated time pass and {!suspend} to
    block until some other process resolves it. Both are implemented with
    OCaml 5 effect handlers, so there are no threads and the simulation is
    fully deterministic: events fire in (time, scheduling order), so events
    at equal times fire in the order they were scheduled.

    A blocked process is resumed straight from its continuation, and its
    resolver is its own queue entry: resolving it queues the resolver
    itself, so a wake-up allocates nothing.

    The queue has two lanes. Events due at the current time (resumptions,
    spawns, zero delays) go to a FIFO ring; later ones to a binary heap
    whose nodes hold only the unboxed time, the scheduling number and the
    index of the action's slot. The two lanes together fire in exactly the
    (time, scheduling order) of one queue. The heap is indexed: a
    cancelled event leaves it at once, keeping nothing alive, and a
    re-armed one is re-keyed where it stands.

    All times are in simulated seconds. *)

type t

(** Something to fire: a scheduled event or timer, which can be
    cancelled or re-armed with {!arm} and is queued at most once at a
    time, only ever on one engine; a {!resolver}; or {!idle}. A resource
    keeps the callbacks and the blocked processes it serves as handles
    and fires each with {!wake}. *)
type handle

(** The wake-up of a process blocked in {!suspend} or {!park}, built once
    per block and used once, through {!resolve} or {!reject}. It is a
    {!handle}: [(r :> handle)]. A value for the process travels beside it
    (in a cell the process reads once it is woken), not through it.
    Using a resolver a second time raises [Invalid_argument], also when
    its process has left that block and blocked again elsewhere. *)
type resolver = private handle

(** A handle that does nothing and is never queued: what a slot holds
    when it holds no job. *)
val idle : handle

val create : unit -> t

(** Current simulated time. *)
val now : t -> float

(** The engine's clock, read-only outside the engine. [(clock t).now] is
    {!now}; a model that keeps the record and reads the field gets the
    time unboxed, where each call of {!now} returns a fresh boxed float. *)
type clock = private { mutable now : float }

val clock : t -> clock

(** [schedule t ~at f] runs [f] at simulated time [at] (>= now). The
    returned handle can cancel or re-arm it. Raises
    [Invalid_argument] when [at] is in the past or NaN. *)
val schedule : t -> at:float -> (unit -> unit) -> handle

(** [schedule_after t ~delay f] = [schedule t ~at:(now t +. delay) f]. *)
val schedule_after : t -> delay:float -> (unit -> unit) -> handle

(** [cancel t h] removes [h]'s event from the queue of [t]. Cancelling a
    handle that is not queued (never armed, fired or cancelled) does
    nothing, even once its heap slot holds another event; so does
    cancelling a resolver or {!idle}. *)
val cancel : t -> handle -> unit

(** [timer f] is a handle for [f] that is not queued yet: a re-armable
    timer, built once and queued again and again with {!arm}. *)
val timer : (unit -> unit) -> handle

(** A due time for {!arm}. All its fields are floats, so it is stored
    flat: a model keeps one, writes [at] and passes the record, where a
    float passed to a function of another module is boxed. *)
type due = { mutable at : float }

(** [arm t h due] queues [h]'s event at [due.at] (>= now) in place of
    any time it is queued for, exactly as {!cancel} followed by a fresh
    {!schedule} of the same function would: a queued event is re-keyed
    in place, with a new scheduling number, and one due now joins the
    back of the same-time lane. Unless the queue grows, it allocates
    nothing. Raises [Invalid_argument] as {!schedule} does, and when [h]
    is a resolver or {!idle}. *)
val arm : t -> handle -> due -> unit

(** [wake h] runs the function of a scheduled event or timer at once
    (wherever it is queued, it stays queued), resolves a resolver, and
    does nothing for {!idle}. *)
val wake : handle -> unit

(** [spawn t f] starts a new process executing [f ()] at the current time
    (it begins running when the scheduler reaches that event). Uncaught
    exceptions other than those injected via {!reject} escape [run]. *)
val spawn : t -> (unit -> unit) -> unit

(** Let simulated time advance by [delay]. Only valid inside a process;
    raises [Invalid_argument] when [delay] is NaN. *)
val wait : float -> unit

(** Block the calling process until another party resolves it. The
    registration function receives the block's fresh resolver and must
    stash it somewhere (a queue, a lock table, ...). Only valid inside a
    process. *)
val suspend : (resolver -> unit) -> unit

(** A prebuilt {!suspend}: [parker register] builds, once, what
    [suspend register] builds on every call. [park p] then blocks the
    calling process exactly as [suspend register] would, allocating only
    the resolver. [register] runs synchronously inside [park], so state it
    reads from a mutable field set just before [park] is the caller's. *)
type parker

val parker : (resolver -> unit) -> parker

(** Only valid inside a process. *)
val park : parker -> unit

(** [resolve r] resumes the process blocked on [r] at the current time of
    its engine, after the events already queued for that time: [r] itself
    joins the back of the same-time lane. *)
val resolve : resolver -> unit

(** [reject r e] resumes the process blocked on [r] by raising [e] in it,
    at the same point in the order as {!resolve}. *)
val reject : resolver -> exn -> unit

(** Run until the event queue is empty or [until] is reached (events at
    later times stay queued and [now] becomes [until]).
    Raises [Invalid_argument] when [until] is NaN or before {!now}. *)
val run : ?until:float -> t -> unit

(** Number of events processed so far (for performance reporting). *)
val events_processed : t -> int

(** Raised when {!wait} or {!suspend} is called outside a process. *)
exception Not_in_process
