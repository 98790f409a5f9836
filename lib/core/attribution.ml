(* Bridge from a protocol configuration to the observability layer's
   analytic replica (Sknn_obs.Cost_model), and the symbolic run that
   replica is.  lib/obs deliberately knows nothing about
   Params/Config/Masking, so the scheme-specific numbers — exact modulus
   bit lengths, the relinearisation key shape — are derived here and
   handed over as plain floats/ints; the circuit itself is the live one,
   Entities.Make applied to the symbolic backend. *)

module CM = Sknn_obs.Cost_model
module NM = Sknn_obs.Noise_model
module Sym = Entities.Make (CM.Symbolic)

(* Exact bit length of the modulus product with i+1 active primes —
   the prefix-product definition of Rq.modulus ~nprimes, but computable
   from the chain alone, so the planner can bridge an unrealized
   Params.probe without paying for the ring context. *)
let q_ibits_of_moduli moduli =
  let acc = ref Zint.one in
  Array.map
    (fun m ->
      acc := Zint.mul !acc (Zint.of_int64 (Int64.of_int m));
      Zint.numbits !acc)
    moduli

let bits_of v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let max_distance_bits ~max_coord_bits ~d =
  let max_coord = (1 lsl max_coord_bits) - 1 in
  bits_of (Distance.max_squared_euclidean ~d ~max_value:max_coord)

(* The probe-level bridge: everything [model_params] derives, from the
   prime-search result plus the protocol knobs — no ring context, no
   Config record.  [model_params] is this applied to [Params.probe_of_t],
   so planner candidates and realized configurations price identically. *)
let model_params_probe (pr : Params.probe) ~layout ~mask_degree ~mask_coeff_bits
    ~max_coord_bits ~use_relin ~rescale_distances ~return_level ~n ~d ~k :
    CM.params =
  let moduli = pr.Params.pr_moduli in
  let q_ibits = q_ibits_of_moduli moduli in
  let w = pr.Params.pr_relin_digit_bits in
  { CM.nm =
      NM.make ~n:pr.Params.pr_n ~t_plain:pr.Params.pr_t_plain ~moduli
        ~eta:pr.Params.pr_eta;
    t_plain = pr.Params.pr_t_plain;
    q_ibits;
    n_points = n;
    d;
    k;
    per_coordinate = (layout = Config.Per_coordinate);
    mask_degree;
    mask_coeff_bits;
    max_coord_bits;
    rescale_distances;
    return_level;
    use_relin;
    relin_digit_bits = w;
    relin_rows = (q_ibits.(Array.length moduli - 1) + w - 1) / w }

let model_params (config : Config.t) ~n ~d ~k : CM.params =
  model_params_probe
    (Params.probe_of_t config.Config.bgv)
    ~layout:config.Config.layout ~mask_degree:config.Config.mask_degree
    ~mask_coeff_bits:config.Config.mask_coeff_bits
    ~max_coord_bits:config.Config.max_coord_bits
    ~use_relin:config.Config.use_relin
    ~rescale_distances:config.Config.rescale_distances
    ~return_level:config.Config.return_level ~n ~d ~k

(* The worst-case inputs, chosen here and nowhere else: every coordinate
   of the database and the queries is the largest the configuration
   admits, and every mask coefficient the largest Masking.draw can
   return.  The noise bound of every scalar product is then an upper
   bound on any live run's, while the op counts — blind to the values —
   are the live ones. *)
let largest_mask : Entities.mask_source =
 fun _ ~t_plain ~input_bits ~degree ~coeff_bits ->
  Masking.largest ~t_plain ~input_bits ~degree ~coeff_bits ()

(* The symbolic deploy for [path] records through a setup recorder of
   the run, so its ledger and transcript stay out of the query's
   prediction while the prepare-db noise states join the forecast. *)
let symbolic (p : CM.params) path =
  if p.CM.n_points < 1 then invalid_arg "Attribution: empty database";
  if p.CM.d < 1 then invalid_arg "Attribution: dimension < 1";
  let run = CM.Symbolic.start p in
  let config =
    { Config.bgv = run;
      layout = (if p.CM.per_coordinate then Config.Per_coordinate else Config.Dot_product);
      mask_degree = p.CM.mask_degree;
      mask_coeff_bits = p.CM.mask_coeff_bits;
      max_coord_bits = p.CM.max_coord_bits;
      use_relin = p.CM.use_relin;
      rescale_distances = p.CM.rescale_distances;
      return_level = p.CM.return_level }
  in
  let top = (1 lsl p.CM.max_coord_bits) - 1 in
  let db = Array.make_matrix p.CM.n_points p.CM.d top in
  let rng = Util.Rng.of_int 0 in
  let dep =
    Sym.Run.deploy ~jobs:1 ~mask_source:largest_mask ~path (CM.Symbolic.setup run) rng
      config ~db
  in
  ignore (Sym.Run.query run dep rng ~query:(Array.make p.CM.d top) ~k:p.CM.k);
  run

let predict_model p path = CM.Symbolic.prediction (symbolic p path)

let forecast ?margin_bits p path = CM.Symbolic.report ?margin_bits (symbolic p path)

let predict config ~n ~d ~k path = predict_model (model_params config ~n ~d ~k) path

let predict_end_to_end config ~n ~d ~k ~unit_costs ~profile path =
  CM.predict_end_to_end ~unit_costs ~profile (predict config ~n ~d ~k path)

(* Predicted wall-clock per protocol phase: the per-party phase ledgers
   priced by the calibration table, summed per phase name in protocol
   order — directly comparable to [Protocol.result.phase_seconds]. *)
let predicted_phase_seconds ~unit_costs (pred : CM.prediction) =
  let order = ref [] in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (ph : CM.phase) ->
      let s = CM.predict_seconds ~unit_costs ph.CM.counters in
      match Hashtbl.find_opt totals ph.CM.phase with
      | Some acc -> Hashtbl.replace totals ph.CM.phase (acc +. s)
      | None ->
        order := ph.CM.phase :: !order;
        Hashtbl.add totals ph.CM.phase s)
    pred.CM.phases;
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order
