(* Fixture: a secret-dependent branch inside a protocol circuit written
   as a functor over its ciphertext backend (ct-scope Bad_ct_functor).
   The functor body is analysed like any structure — its Party_b
   functions keep their qualified names — so branching on a decrypted
   key-derived value is flagged exactly as it would be outside one. *)

module type CT = sig
  type secret_key
  type ct

  val low_bit : secret_key -> ct -> int
end

module Make (B : CT) = struct
  module Party_b = struct
    type t = { sk : B.secret_key }

    let select t ct a b = if B.low_bit t.sk ct = 1 then a else b
  end
end
