module Link = struct
  type t = { rng : Rng.t; loss : float; dup : float; delay : float }

  let create rng ~loss ~dup ~delay = { rng; loss; dup; delay }

  let deliver_now = [ 0. ]

  (* Draw from the stream only for nonzero parameters, so a link with a
     parameter at zero consumes no randomness for that decision and a
     fully-zero link consumes none at all. On a link with neither delay
     nor duplication every kept message gets the shared [deliver_now], so
     judging allocates nothing. *)
  let judge t =
    if t.loss > 0. && Rng.bool t.rng ~p:t.loss then []
    else if not (t.delay > 0. || t.dup > 0.) then deliver_now
    else begin
      let extra () =
        if t.delay > 0. then Rng.exponential t.rng ~mean:t.delay else 0.
      in
      let first = extra () in
      if t.dup > 0. && Rng.bool t.rng ~p:t.dup then [ first; extra () ]
      else [ first ]
    end
end
