(** Automatic BGV parameter planning.

    [plan] searches the (ring degree, chain length × prime width,
    plaintext prime) space for the cheapest parameter set a workload can
    prove safe:

    - candidates are enumerated as cheap {!Params.probe}s (prime search
      only; structured {!Params.Infeasible} specs are counted, not
      fatal), with the plaintext width sized to the masking envelope via
      {!Masking.max_coeff_bits};
    - feasibility pruning runs the workload's query path on the
      symbolic backend with worst-case inputs ({!forecast},
      {!Attribution.symbolic} — the same run the live deploy-time
      guard audits) against the noise margin, and
      {!Params.security_bits_for} against the security floor; the
      return level is the lowest that clears the margin;
    - survivors are ranked by {!Sknn_obs.Cost_model.predict_seconds}
      of the same run's query ledger, priced by a
      {!Sknn_obs.Cost_model.unit_model} fitted from one measured
      calibration.  Setup builds every path's prepared state, so each
      query is a steady-state one.

    Everything is pure given the unit model: the same spec yields the
    byte-identical plan.  Only {!realize} builds the expensive NTT/CRT
    tables, for the candidate actually chosen. *)

(** {1 Noise forecasts}

    The minimum noise headroom over every state the symbolic run of a
    query path produces, over {!Sknn_obs.Cost_model.params} (see
    {!Attribution} for the bridge), the deploy's prepare-db steps
    included.  [Protocol.deploy] guards with it, so the planner's
    feasibility rule and the live deploy-time guard are the same run.  A negative minimum headroom means a live query
    would raise [Bgv.Decryption_failure]. *)

val forecast :
  ?margin_bits:float ->
  Sknn_obs.Cost_model.params ->
  Sknn_obs.Cost_model.path ->
  Sknn_obs.Noise_model.report
(** [margin_bits] defaults to 4. *)

(** {1 Workload and constraints} *)

type workload = {
  points : int;  (** database size n *)
  dim : int;  (** dimension d *)
  k : int;  (** neighbours returned *)
  coord_bits : int;  (** coordinates fit in this many bits *)
  layout : Config.layout;
  path : Sknn_obs.Cost_model.path;  (** pipeline the plan optimises *)
  mask_degree : int;
  mask_coeff_bits : int;  (** required sound mask-coefficient width *)
}

val workload :
  ?layout:Config.layout ->
  ?path:Sknn_obs.Cost_model.path ->
  ?mask_degree:int ->
  ?mask_coeff_bits:int ->
  points:int ->
  dim:int ->
  k:int ->
  coord_bits:int ->
  unit ->
  workload
(** Defaults: [Dot_product] layout, [Packed] path, affine mask with
    8-bit coefficients (the presets' request). *)

type constraints = {
  min_security_bits : float;  (** RLWE floor; 0 disables the prune *)
  noise_margin_bits : float;  (** forecast headroom the plan must keep *)
  net : Profile.t option;
      (** price candidates end-to-end under this network profile: each
          entry's seconds gain the virtual wire time of its
          predicted transcript (rounds × RTT + bytes/bandwidth), so a
          WAN objective weights rounds and message sizes, not just
          compute *)
}

val default_constraints : constraints
(** No security floor, 4-bit margin, no network term. *)

(** {1 Planning} *)

type spec = {
  sp_n : int;
  sp_plain_bits : int;
  sp_prime_bits : int;
  sp_chain_len : int;
  sp_return_level : int;
}

type entry = {
  spec : spec;
  probe : Params.probe;
  log2_q : float;
  security_bits : float;
  min_headroom_bits : float;  (** at the chosen return level *)
  steady_seconds : float;
      (** predicted seconds of one query of a deployed database: the
          ranking key *)
  phase_seconds : (string * float) list;  (** the same query, protocol order *)
}

type outcome = {
  load : workload;
  limits : constraints;
  ranked : entry list;  (** best first, at most [keep] *)
  considered : int;  (** (n, prime_bits, chain_len) tuples examined *)
  infeasible : (string * int) list;  (** reason → count, sorted *)
  pruned_noise : int;  (** feasible specs failing the margin *)
  pruned_security : int;  (** feasible specs under the floor *)
}

val plan :
  ?keep:int ->
  unit_model:Sknn_obs.Cost_model.unit_model ->
  workload ->
  constraints ->
  outcome
(** Search the candidate space; [keep] (default 10) bounds the ranked
    list.  Pure given [unit_model] — the same inputs always produce the
    identical outcome.  @raise Invalid_argument on nonsensical
    workloads (and on [mask_degree > 1] anywhere but the plain
    per-coordinate path, the only pipeline that supports it). *)

val best : outcome -> entry option

val realize : workload -> entry -> Config.t
(** Build the winning candidate's full parameter set (NTT/CRT tables)
    and wrap it in a validated protocol configuration. *)

(** {1 Rendering} *)

val path_name : Sknn_obs.Cost_model.path -> string
val json_of_outcome : outcome -> string
val pp_outcome : Format.formatter -> outcome -> unit
