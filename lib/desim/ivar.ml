(* A reader blocks on a resolver and, once woken, reads the value or the
   poison from [state] itself. *)
type 'a state = Empty of Engine.resolver list | Full of 'a | Poisoned of exn

type 'a t = { mutable state : 'a state }

let create () = { state = Empty [] }

let is_filled t = match t.state with Full _ -> true | _ -> false

let fill t v =
  match t.state with
  | Empty waiters ->
      t.state <- Full v;
      List.iter Engine.resolve (List.rev waiters)
  | Full _ | Poisoned _ -> invalid_arg "Ivar.fill: already resolved"

let poison t e =
  match t.state with
  | Empty waiters ->
      t.state <- Poisoned e;
      List.iter Engine.resolve (List.rev waiters)
  | Full _ | Poisoned _ -> invalid_arg "Ivar.poison: already resolved"

let rec read t =
  match t.state with
  | Full v -> v
  | Poisoned e -> raise e
  | Empty _ ->
      Engine.suspend (fun r ->
          match t.state with
          | Empty waiters -> t.state <- Empty (r :: waiters)
          | Full _ | Poisoned _ -> Engine.resolve r);
      read t

let peek t = match t.state with Full v -> Some v | Empty _ | Poisoned _ -> None
