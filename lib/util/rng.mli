(** Deterministic, splittable pseudo-random number generator.

    The whole repository derives randomness from this module so that every
    experiment, test and protocol transcript is reproducible from a seed.
    The generator is splitmix64 (Steele, Lea, Flood 2014): a 64-bit state
    advanced by a Weyl constant and finalised with a strong mixer.  It is
    not cryptographically secure; the protocol code treats it as an ideal
    source of randomness, which is the standard modelling assumption when
    reproducing protocol *performance and functionality* rather than
    deploying it. *)

type t

val create : int64 -> t
(** [create seed] returns a fresh generator with the given seed. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val split : t -> t
(** [split t] advances [t] and returns an independent generator whose
    stream does not overlap with [t]'s (in the splitmix64 sense). *)

val copy : t -> t
(** [copy t] duplicates the current state; both copies then produce the
    same stream. *)

val bits64 : t -> int64
(** [bits64 t] returns 64 uniform pseudo-random bits. *)

val public_seed : t -> int64
(** [public_seed t] advances [t] by one draw and returns a 64-bit seed
    fit to publish: the draw put through a one-way function (the
    domain-separated MD5 of [Digest], truncated).  A raw {!bits64} draw
    is not: splitmix64's finaliser is invertible, so it yields the
    stream state and with it every later draw of [t]. *)

val int64_below : t -> int64 -> int64
(** [int64_below t bound] is uniform in [\[0, bound)]. [bound] must be
    positive. Uses rejection sampling, so there is no modulo bias. *)

val int_below : t -> int -> int
(** [int_below t bound] is uniform in [\[0, bound)] for positive [bound]. *)

val fill_below : t -> int -> int array -> unit
(** [fill_below t bound dst] sets [dst.(0)], [dst.(1)], … in turn to
    [int_below t bound]: the same draws, without allocating per draw. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val bool : t -> bool
(** One uniform bit. *)

val float : t -> float
(** Uniform in [\[0, 1)], 53 bits of precision. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Box–Muller Gaussian sample. *)

val bytes : t -> int -> Stdlib.Bytes.t
(** [bytes t n] returns [n] uniform pseudo-random bytes. *)
