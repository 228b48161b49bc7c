module Link = struct
  type t = { rng : Rng.t; loss : float; dup : float; delay : float }

  let create rng ~loss ~dup ~delay = { rng; loss; dup; delay }

  (* Draw from the stream only for nonzero parameters, so a link with a
     parameter at zero consumes no randomness for that decision and a
     fully-zero link consumes none at all. *)
  let judge t =
    if t.loss > 0. && Rng.bool t.rng ~p:t.loss then []
    else begin
      let extra () =
        if t.delay > 0. then Rng.exponential t.rng ~mean:t.delay else 0.
      in
      let first = extra () in
      if t.dup > 0. && Rng.bool t.rng ~p:t.dup then [ first; extra () ]
      else [ first ]
    end
end
