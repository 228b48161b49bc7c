(* A reader blocks on a resolver and, once woken, reads the value from
   [state] itself. *)
type 'a state = Empty of Engine.resolver list | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let fill t v =
  match t.state with
  | Empty waiters ->
      t.state <- Full v;
      List.iter Engine.resolve (List.rev waiters)
  | Full _ -> invalid_arg "Ivar.fill: already resolved"

let rec read t =
  match t.state with
  | Full v -> v
  | Empty _ ->
      Engine.suspend (fun r ->
          match t.state with
          | Empty waiters -> t.state <- Empty (r :: waiters)
          | Full _ -> Engine.resolve r);
      read t
