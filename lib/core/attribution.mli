(** Config → {!Sknn_obs.Cost_model} bridge, and the symbolic run.

    Derives the analytic replica's parameters from a protocol
    configuration — exact modulus bit lengths for the key-switch digit
    count, the relinearisation key shape — and runs the protocol
    circuit ({!Entities.Make}) on [Cost_model.Symbolic] with worst-case
    inputs: the largest admissible coordinates and the largest drawable
    mask coefficients, chosen here and nowhere else.  The ledger and
    transcript of that run are the cost prediction; the lowest noise
    headroom it produces is the forecast.  See DESIGN.md §5a for the
    invariant this upholds. *)

val q_ibits_of_moduli : int array -> int array
(** Exact bit length of the prefix modulus products (index [i] =
    [i + 1] active primes) — [Zint.numbits] of the same products
    [Rq.modulus ~nprimes] returns, without needing a ring context. *)

val max_distance_bits : max_coord_bits:int -> d:int -> int
(** Bits of the largest squared distance for [d]-dimensional data under
    [max_coord_bits] — [Config.max_distance_bits] from raw knobs. *)

val model_params_probe :
  Params.probe ->
  layout:Config.layout ->
  mask_degree:int ->
  mask_coeff_bits:int ->
  max_coord_bits:int ->
  use_relin:bool ->
  rescale_distances:bool ->
  return_level:int ->
  n:int ->
  d:int ->
  k:int ->
  Sknn_obs.Cost_model.params
(** The bridge from an {e unrealized} [Params.probe] plus the protocol
    knobs a [Config.t] would carry: what the planner prices candidates
    with.  [model_params] is this applied to [Params.probe_of_t], so a
    candidate and its realized configuration price identically. *)

val model_params :
  Config.t -> n:int -> d:int -> k:int -> Sknn_obs.Cost_model.params
(** [n] is the database size, [d] the dimension, [k] the neighbour
    count — the three run-time numbers a [Config.t] does not carry. *)

val symbolic :
  Sknn_obs.Cost_model.params ->
  Sknn_obs.Cost_model.path ->
  Sknn_obs.Cost_model.Symbolic.run
(** Deploy [path] on the symbolic backend with the worst-case database
    and run one query: the deploy through a
    {!Sknn_obs.Cost_model.Symbolic.setup} recorder of the returned run,
    the query through the run itself.  The run's prediction is
    therefore the query's ledger and transcript alone, and its noise
    report covers both, the ["prepare-db"] steps included.
    @raise Invalid_argument on nonsensical sizes or a configuration the
    live circuit rejects. *)

val predict_model :
  Sknn_obs.Cost_model.params ->
  Sknn_obs.Cost_model.path ->
  Sknn_obs.Cost_model.prediction
(** The ledger and transcript of {!symbolic}'s query. *)

val forecast :
  ?margin_bits:float ->
  Sknn_obs.Cost_model.params ->
  Sknn_obs.Cost_model.path ->
  Sknn_obs.Noise_model.report
(** The noise report of {!symbolic}: the lowest headroom of every
    (phase, operation) state of the deploy and the query.
    [margin_bits] defaults to 4. *)

val predict :
  Config.t ->
  n:int ->
  d:int ->
  k:int ->
  Sknn_obs.Cost_model.path ->
  Sknn_obs.Cost_model.prediction
(** One-stop [model_params] + {!predict_model}. *)

val predict_end_to_end :
  Config.t ->
  n:int ->
  d:int ->
  k:int ->
  unit_costs:Sknn_obs.Cost_model.unit_costs ->
  profile:Profile.t ->
  Sknn_obs.Cost_model.path ->
  Sknn_obs.Cost_model.end_to_end
(** [predict] priced end-to-end under a network profile: compute critical
    path from the calibration table plus the {!Netsim.Clock} replay of
    the predicted transcript. *)

val predicted_phase_seconds :
  unit_costs:Sknn_obs.Cost_model.unit_costs ->
  Sknn_obs.Cost_model.prediction ->
  (string * float) list
(** Predicted seconds per protocol phase (parties merged), in protocol
    order — the analytic counterpart of [Protocol.result.phase_seconds]. *)
