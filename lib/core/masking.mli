(** Monotonically increasing random masking polynomials — the paper's
    first novel ingredient (§3.4).

    Party A hides the true squared distances from Party B by evaluating a
    fresh random polynomial [m(x) = a_0 + a_1 x + … + a_D x^D] with
    positive random coefficients on every encrypted distance.  Order is
    preserved — so Party B can still select the k smallest — as long as
    the evaluation never wraps around the plaintext modulus [t]: the
    paper glosses over this, but with coefficients below [2^C] and inputs
    below [2^N] the envelope condition is

      C + D·N + log2(D + 1) < log2 t.

    {!max_coeff_bits} computes the largest sound [C]; {!draw} refuses
    unsound parameter combinations, making the implicit requirement
    explicit (see DESIGN.md, "Fidelity note"). *)

type t

val degree : t -> int
val coeffs : t -> int64 array
(** [a_0 … a_D], all in [\[1, 2^C)]. *)

val max_coeff_bits : t_plain:int64 -> input_bits:int -> degree:int -> int
(** Largest coefficient width [C >= 0] satisfying the envelope condition
    (0 means even unit coefficients overflow — the combination is
    unusable). *)

val draw :
  Util.Rng.t -> t_plain:int64 -> input_bits:int -> degree:int ->
  ?coeff_bits:int -> unit -> t
(** A fresh polynomial with coefficients uniform in [\[1, 2^C)], where
    [C] is [coeff_bits] clamped to {!max_coeff_bits}.
    @raise Invalid_argument if no positive-width coefficient is sound or
    [degree < 1]. *)

val largest :
  t_plain:int64 -> input_bits:int -> degree:int -> ?coeff_bits:int -> unit -> t
(** The worst case {!draw} can return: every coefficient [2^C − 1].  The
    symbolic protocol run masks with it, so its noise forecast bounds
    every live draw. *)

val eval : t -> int64 -> int64
(** Exact evaluation (no reduction); sound for inputs within the drawn
    envelope. *)

val eval_mod : t -> t_plain:int64 -> int64 -> int64
(** Evaluation mod [t] — what the homomorphic pipeline computes; equals
    {!eval} within the envelope (tested property). *)

val is_monotone_on : t -> max_input:int64 -> bool
(** True iff [eval] is strictly increasing on [\[0, max_input\]] (checked
    analytically: positive coefficients ⇒ monotone; retained as an
    executable sanity assertion). *)

val pp : Format.formatter -> t -> unit
