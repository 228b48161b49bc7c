type t = Call of (unit -> unit) | Resume of unit Engine.resolver

let wake = function Call k -> k () | Resume r -> Engine.resolve r ()
