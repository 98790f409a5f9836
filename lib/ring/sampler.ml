module Rng = Util.Rng

let uniform rng ctx ~nprimes =
  let n = Rq.degree ctx in
  let moduli = Rq.moduli ctx in
  let comps =
    Array.init nprimes (fun i ->
        let limb = Array.make n 0 in
        Rng.fill_below rng moduli.(i) limb;
        limb)
  in
  Rq.of_components ctx Rq.Eval comps

let ternary_coeffs rng ~n = Array.init n (fun _ -> Rng.int_below rng 3 - 1)

let cbd_coeffs rng ~n ~eta =
  if eta < 1 then invalid_arg "Sampler.cbd_coeffs: eta < 1";
  Array.init n (fun _ ->
      let acc = ref 0 in
      for _ = 1 to eta do
        if Rng.bool rng then incr acc;
        if Rng.bool rng then decr acc
      done;
      !acc)

let zero_coeffs ~n = Array.make n 0
