(** Log2-domain noise-growth forecaster for the BGV chain.

    A pure replica of the scheme's tracked noise bound over plain
    numeric parameters: the arithmetic of {!Cost_model.Symbolic}, on
    which the protocol circuit runs to predict worst-case headroom
    {e before} any ciphertext exists, so a deployment whose parameter
    chain is too shallow for its circuit warns instead of failing
    mid-query.  Every formula mirrors
    [lib/bgv/bgv.ml]'s bookkeeping (the test suite cross-checks the two
    against live ciphertexts). *)

type params = {
  n : int;  (** ring degree *)
  t_bits : float;  (** log2 of the plaintext modulus *)
  moduli_bits : float array;  (** log2 of each RNS chain prime, in order *)
  eta : float;  (** CBD noise parameter *)
}

type state = {
  level : int;  (** active RNS primes *)
  degree : int;  (** ciphertext degree (components − 1) *)
  bits : float;  (** log2 bound on the decryption noise term *)
}

val make : n:int -> t_plain:int64 -> moduli:int array -> eta:int -> params
(** The log2 view of a parameter set: ring degree, plaintext modulus,
    RNS chain and noise width. *)

val log2_add : float -> float -> float
val fresh_noise_bits : params -> float
(** A fresh secret-key ciphertext's bound, [log2 (t·(eta + 1/2))]. *)

val switch_floor_bits : params -> degree:int -> float
val log2_q : params -> level:int -> float
val chain_length : params -> int

val headroom : params -> state -> float
(** [log2(Q_level/2) − bits]; decryption is guaranteed while positive. *)

val fresh : params -> state
val fresh_at : params -> level:int -> state
val add : state -> state -> state
val sub : state -> state -> state
val add_plain : params -> state -> state
val mul_plain : params -> state -> state

val mul_scalar : state -> bits:float -> state
(** Scalar of magnitude ≤ [2^bits]. *)

val mul : params -> state -> state -> state

val sum : state -> terms:int -> state
(** Sum of [terms] ciphertexts with this bound: [bits + log2 terms]. *)

val modswitch : params -> state -> state
val rescale_to_floor : params -> state -> state
val truncate : state -> level:int -> state

(** {1 Forecast reports} *)

type step = { op : string; s_level : int; s_bits : float; s_headroom : float }

type report = {
  steps : step list;  (** in circuit order *)
  min_headroom_bits : float;
  margin_bits : float;
  below_margin : bool;
}

val report_of_steps : ?margin_bits:float -> step list -> report
(** The minimum headroom over [steps] against [margin_bits] (default 4).
    [Cost_model.Symbolic] collects the steps by running the protocol
    circuit on noise states. *)

val pp_report : Format.formatter -> report -> unit
