(* Fixture: seeded secret-key encryption is a reviewed secret-taint
   declassifier (this directory's conf, like lib/core's, declassifies
   Bgv.encrypt_sk): the ciphertext is public under RLWE although c0 is
   computed from s, so sending its size is clean.  Only the result is
   declassified — a branch on s itself still reaches the sink and is
   flagged. *)

let ship tr ~counters rng sk pt =
  let ct = Bgv.encrypt_sk ~counters ~seed:7L rng sk pt in
  Transcript.send tr ~label:"packet" ~bytes:(Bgv.byte_size ct)

let ship_key_bit tr sk =
  Transcript.send tr ~label:"packet" ~bytes:(if sk.s_coeffs.(0) = 0 then 1 else 2)
