(** What a resource (a {!Cpu}, a {!Disk}) runs when a request completes:
    an event callback, or the process blocked on the request, resumed
    straight from its resolver. Queuing the resolver itself spares the
    blocking wrappers a [fun () -> Engine.resolve r ()] per request. *)

type t = Call of (unit -> unit) | Resume of unit Engine.resolver

(** Run the callback, or resolve the process. *)
val wake : t -> unit
