(** Analytic replica of the protocol's op-kind × BGV-level cost ledger
    and noise growth.

    {!Symbolic} is a ciphertext backend whose values are
    {!Noise_model} states.  The protocol circuit ([Entities.Make], a
    functor over its ciphertext backend) runs on it unchanged —
    [Attribution.predict] and [Planner.forecast] are that run — and
    every operation records into {!Util.Counters.t} the same ledger
    cells the instrumented scheme records on live ciphertexts.  The test
    suite asserts {!Util.Counters.equal_ledger} between a prediction and
    a measured query on every preset.  Branches on a noise bound (rescale
    loop trips, the level-drop rule) are the live circuit's own, taken
    on bit-identical floats.

    Combined with per-op unit costs measured by the calibration bench
    ([bench/kernels]), {!predict_seconds} turns a ledger — predicted or
    measured — into seconds, which is what [sknn cost] and the
    regression gate compare against measured phase times. *)

type params = {
  nm : Noise_model.params;  (** ring/modulus/noise numbers, shared with the forecaster *)
  t_plain : int64;  (** plaintext modulus: scalars' noise is their centered residue *)
  q_ibits : int array;
      (** exact bit length of the RNS modulus product with [i+1] active
          primes (index [level − 1]) — [Zint.numbits], not a float
          ceiling, because the relinearisation digit count divides it *)
  n_points : int;  (** database size n *)
  d : int;  (** dimension *)
  k : int;  (** neighbours returned *)
  per_coordinate : bool;  (** layout: per-coordinate vs dot-product *)
  mask_degree : int;
  mask_coeff_bits : int;  (** requested mask-coefficient width (clamped when drawn) *)
  max_coord_bits : int;  (** coordinates fit in this many bits *)
  rescale_distances : bool;
  return_level : int;
  use_relin : bool;
  relin_digit_bits : int;
  relin_rows : int;  (** gadget rows in the relinearisation key *)
}

(** A query pipeline: one query per protocol round on each. *)
type path = Plain | Prepared | Packed

type phase = {
  phase : string;  (** protocol phase name, as [Protocol] times it *)
  party : string;  (** ["party-a"] / ["party-b"] / ["client"] *)
  counters : Util.Counters.t;
}

type prediction = {
  phases : phase list;  (** in protocol order; return-knn appears once per party *)
  party_a : Util.Counters.t;  (** merged totals, comparable to live query counters *)
  party_b : Util.Counters.t;
  client : Util.Counters.t;
  ab_bytes : int;
      (** serialized bytes crossing the A<->B link (both directions),
          computed with the exact [Bgv.byte_size] formula on the
          symbolic ciphertexts at their send-time degree and level —
          comparable to [Transcript.bytes_between] on a measured run *)
  transcript : Transcript.t;
      (** the predicted communication transcript, message for message:
          same senders, labels and granularity as the live [Protocol]
          run, with bytes from the symbolic send-time states — so
          per-link bytes and rounds (and any {!Netsim.Clock} replay of
          it) agree exactly with a measured query *)
}

(** {1 The symbolic backend} *)

module Symbolic : sig
  type run
  (** One symbolic protocol run: records per-(phase, party) ledgers, the
      transcript, and the noise state of every operation. *)

  val start : params -> run

  val setup : run -> run
  (** A recorder for [run]'s Setup phase: its own ledger and transcript,
      the same noise forecast.  Deploying through it and querying through
      [run] keeps the deployment's work out of the query's prediction
      while its noise states stay in the run's {!report}. *)

  type nonrec params = run
  type secret_key = run
  type relin_key
  type keys
  type ct
  type pt
  type ept
  type env = run

  val t_plain : params -> int64
  val ring_degree : params -> int
  val noise_params : params -> Noise_model.params
  val keygen : Util.Rng.t -> params -> keys
  val secret_key : keys -> secret_key
  val relin_key : keys -> relin_key

  val encrypt :
    counters:Util.Counters.t -> ?level:int -> Util.Rng.t -> secret_key -> pt -> ct

  val expand : counters:Util.Counters.t -> ct -> ct

  val decrypt : counters:Util.Counters.t -> secret_key -> ct -> pt
  val decrypt_coeff0 : counters:Util.Counters.t -> secret_key -> ct -> int64
  val pt_coeffs : params -> (int -> int64) -> pt
  val pt_const : params -> int64 -> pt
  val pack : counters:Util.Counters.t -> params -> (int -> int64) -> pt
  val unpack : counters:Util.Counters.t -> pt -> len:int -> int64 array
  val coeffs : pt -> len:int -> int64 array
  val add : counters:Util.Counters.t -> ct -> ct -> ct
  val sub : counters:Util.Counters.t -> ct -> ct -> ct
  val add_plain : counters:Util.Counters.t -> ct -> pt -> ct
  val embed : counters:Util.Counters.t -> params -> level:int -> pt -> ept
  val mul_plain : counters:Util.Counters.t -> ct -> ept -> ct
  val mul_scalar : counters:Util.Counters.t -> ct -> int64 -> ct

  val mul :
    counters:Util.Counters.t -> ?rlk:relin_key -> ?rescale:bool -> ct -> ct -> ct

  val mul_sum :
    counters:Util.Counters.t -> ?jobs:int -> ?rlk:relin_key -> ct array -> ct array -> ct

  val truncate : counters:Util.Counters.t -> ct -> int -> ct
  val rescale_to_floor : counters:Util.Counters.t -> ct -> ct

  val eval_poly :
    counters:Util.Counters.t -> ?rlk:relin_key -> coeffs:int64 array -> ct -> ct

  val level : ct -> int
  val noise_bits : ct -> float
  val noise_budget_bits : ct -> float
  val byte_size : ct -> int
  val relin_key_bytes : relin_key -> int

  val phase :
    env -> (string * Util.Counters.t) list -> string -> (unit -> 'a) -> 'a
  (** One {!phase} entry per watched party: its counter delta across [f]. *)

  val send :
    env -> sender:Transcript.party -> receiver:Transcript.party -> label:string ->
    bytes:int -> unit

  val prediction : run -> prediction
  (** The phases and transcript recorded so far. *)

  val report : ?margin_bits:float -> run -> Noise_model.report
  (** The lowest-headroom state of every (phase, operation) the run
      produced, in first-seen order. *)
end

(** {1 Calibrated time} *)

type unit_costs = float array array
(** [unit_costs.(Util.Counters.op_index op).(level)] = measured seconds
    per operation of that kind at that chain level (row 0 holds the
    level-free slot ops).  Produced by the calibration pass in
    [bench/kernels]; missing cells read as zero. *)

val predict_seconds : unit_costs:unit_costs -> Util.Counters.t -> float
(** [Σ count × unit_cost] over the ledger's {e primary} operations.
    The NTT census rows ([Op_ntt_fwd]/[Op_ntt_inv]) are excluded: each
    composite op's measured unit cost already contains its NTT passes,
    so adding the census would double-count them. *)

(** {1 Comms-aware end-to-end time} *)

type end_to_end = {
  e2e_profile : Profile.t;
  compute_party_s : (string * float) list;
      (** priced compute seconds per party, in phase order *)
  compute_s : float;
      (** compute critical path: the protocol is a strict sequential
          exchange, so this is the sum over all phases *)
  wire_s : float;  (** [timeline.end_to_end_s] of the predicted transcript *)
  total_s : float;  (** [compute_s + wire_s] *)
  timeline : Clock.timeline;
}

val predict_end_to_end :
  unit_costs:unit_costs -> profile:Profile.t -> prediction -> end_to_end
(** Price a prediction's compute with the calibration table and replay
    its symbolic transcript under a network profile.  Rounds and bytes
    agree {e exactly} with the {!Netsim.Clock} replay of a live run's
    transcript (the symbolic transcript mirrors the live message
    structure); only the time split depends on the calibrated unit
    costs. *)

(** {1 Unit-cost model}

    One calibration table is measured at a single parameter set, but the
    planner prices candidates at other ring degrees and chain lengths.
    Each op kind has a known analytic work shape in (ring degree [n],
    active primes [level]) — see {!op_basis} — so a measured table pins a
    seconds-per-work-unit scale per op ({!fit_unit_model}, least squares
    through the origin over the table's populated cells), and
    {!unit_costs_for} re-evaluates the basis at any target shape. *)

type unit_model = { scales : float array }
(** Seconds per work unit, indexed by [Util.Counters.op_index]. *)

val op_basis : n:int -> level:int -> Util.Counters.op -> float
(** Analytic work of one op: [level·n] for pointwise ops
    (add/mul/level-drop), [level·n·lg n] for NTT-bound ops
    (encrypt/decrypt/mul_plain/modswitch), [level²·n·lg n] for key
    switching (the digit count grows with the modulus), [n·lg n] for the
    level-free slot ops (level 0 reads as 1). *)

val fit_unit_model : n:int -> unit_costs -> unit_model
(** Fit per-op scales to a table measured at ring degree [n]. Ops with
    no populated cells get scale 0 (their synthesized costs read 0). *)

val unit_costs_for : unit_model -> n:int -> levels:int -> unit_costs
(** Synthesize a full table for a chain of [levels] primes at ring
    degree [n]: cell [(op, level)] = scale × basis. *)
