(* Planner property tests (DESIGN §5b).

   The contract under test:
   - a planner-returned parameter set is live-sound: realized, it
     answers a toy-sized query exactly, and the live tracked noise
     budget never dips below the model's worst-case minimum headroom;
   - planning is deterministic: the same spec yields the byte-identical
     plan, in whichever domain it runs;
   - every ranked entry clears the noise margin and the security floor
     it was searched under;
   - the Attribution bridge prices probes and realized sets identically
     (q_ibits_of_moduli = Zint bit lengths of Rq.modulus prefixes). *)

module NM = Sknn_obs.Noise_model
module CM = Sknn_obs.Cost_model
module Rng = Util.Rng

(* A flat unit model: every op kind costs the same per work unit.  The
   planner only needs relative prices, and the tests only need
   determinism and feasibility, not wall-clock fidelity. *)
let unit_model = { CM.scales = Array.make Util.Counters.num_ops 1e-9 }

let toy_workload ?(layout = Config.Per_coordinate) ?(path = CM.Packed) () =
  Planner.workload ~layout ~path ~points:24 ~dim:3 ~k:3 ~coord_bits:4 ()

let plan_toy ?(limits = Planner.default_constraints) ?layout ?path () =
  Planner.plan ~unit_model (toy_workload ?layout ?path ()) limits

let best_exn outcome =
  match Planner.best outcome with
  | Some e -> e
  | None -> Alcotest.fail "planner found no feasible candidate at the toy shape"

(* ------------------------------------------------------------------ *)
(* Ranked entries clear the limits they were searched under            *)
(* ------------------------------------------------------------------ *)

let test_entries_clear_limits () =
  let limits =
    { Planner.min_security_bits = 10.0; noise_margin_bits = 6.0; net = None }
  in
  let o = plan_toy ~limits () in
  Alcotest.(check bool) "found candidates" true (o.Planner.ranked <> []);
  List.iter
    (fun e ->
      Alcotest.(check bool) "headroom clears the margin" true
        (e.Planner.min_headroom_bits >= limits.Planner.noise_margin_bits);
      Alcotest.(check bool) "security clears the floor" true
        (e.Planner.security_bits >= limits.Planner.min_security_bits);
      Alcotest.(check bool) "positive predicted time" true (e.Planner.steady_seconds > 0.0))
    o.Planner.ranked;
  (* Ranking is ascending in the predicted query time. *)
  let rec ascending = function
    | a :: (b :: _ as rest) ->
      a.Planner.steady_seconds <= b.Planner.steady_seconds +. 1e-15
      && ascending rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked ascending" true (ascending o.Planner.ranked);
  (* Tightening the security floor only removes candidates. *)
  let tighter = plan_toy ~limits:{ limits with Planner.min_security_bits = 25.0 } () in
  Alcotest.(check bool) "tighter floor keeps no cheaper winner" true
    (match (Planner.best tighter, Planner.best o) with
     | None, _ -> true
     | Some t, Some b ->
       t.Planner.steady_seconds >= b.Planner.steady_seconds -. 1e-15
     | Some _, None -> false);
  List.iter
    (fun e ->
      Alcotest.(check bool) "tighter floor respected" true
        (e.Planner.security_bits >= 25.0))
    tighter.Planner.ranked

(* ------------------------------------------------------------------ *)
(* Live round trip: a planner pick answers a toy query exactly         *)
(* ------------------------------------------------------------------ *)

let toy_db seed = Synthetic.uniform (Rng.of_int seed) ~n:24 ~d:3 ~max_value:15

let test_roundtrip_exact () =
  List.iter
    (fun (label, layout, path) ->
      let w = toy_workload ~layout ~path () in
      let o = Planner.plan ~unit_model w Planner.default_constraints in
      let best = best_exn o in
      let config = Planner.realize w best in
      (match Config.validate config ~d:3 with
       | Ok () -> ()
       | Error e -> Alcotest.failf "%s: realized config invalid: %s" label e);
      let db = toy_db 42 in
      let q = Synthetic.query_like (Rng.of_int 43) db in
      let dep = Protocol.deploy ~rng:(Rng.of_int 44) ~jobs:1 ~path config ~db in
      let r = Protocol.query dep ~query:q ~k:3 in
      Alcotest.(check bool) (label ^ ": exact neighbours") true
        (Protocol.exact dep ~db ~query:q r))
    [ ("packed", Config.Per_coordinate, CM.Packed);
      ("prepared", Config.Dot_product, CM.Prepared);
      ("plain per-coordinate", Config.Per_coordinate, CM.Plain) ]

(* ------------------------------------------------------------------ *)
(* Forecast conservativeness: live budget >= model's minimum headroom  *)
(* ------------------------------------------------------------------ *)

(* Every live ciphertext the protocol samples sits at some point of the
   forecast circuit; the model's noise there is a worst case, so the
   live budget at every phase must be at least the forecast's global
   minimum headroom. *)
let test_forecast_conservative () =
  let w = toy_workload ~path:CM.Packed () in
  let o = Planner.plan ~unit_model w Planner.default_constraints in
  let best = best_exn o in
  let config = Planner.realize w best in
  let metrics = Sknn_obs.Metrics.create () in
  let obs = Sknn_obs.Ctx.create ~metrics () in
  let db = toy_db 7 in
  let q = Synthetic.query_like (Rng.of_int 8) db in
  let dep = Protocol.deploy ~obs ~rng:(Rng.of_int 9) ~jobs:1 ~path:CM.Packed config ~db in
  let r = Protocol.query ~obs dep ~query:q ~k:3 in
  Alcotest.(check bool) "query exact" true (Protocol.exact dep ~db ~query:q r);
  let suffix = ".min_noise_budget_bits" in
  let checked = ref 0 in
  List.iter
    (fun name ->
      if String.length name > String.length suffix
         && String.sub name
              (String.length name - String.length suffix)
              (String.length suffix)
            = suffix
      then
        match Sknn_obs.Metrics.gauge_value (Sknn_obs.Metrics.gauge metrics name) with
        | None -> ()
        | Some live_budget ->
          incr checked;
          Alcotest.(check bool)
            (Printf.sprintf "%s: live budget %.1f >= forecast min %.1f" name
               live_budget best.Planner.min_headroom_bits)
            true
            (live_budget >= best.Planner.min_headroom_bits -. 1e-6))
    (Sknn_obs.Metrics.names metrics);
  Alcotest.(check bool) "sampled at least one phase gauge" true (!checked > 0);
  (* The same walk the planner pruned with is what the live deploy-time
     guard runs: the realized config's forecast equals the entry's. *)
  let p = Attribution.model_params config ~n:24 ~d:3 ~k:3 in
  let report = Planner.forecast p CM.Packed in
  Alcotest.(check (float 1e-9)) "entry headroom = realized forecast"
    best.Planner.min_headroom_bits report.NM.min_headroom_bits

(* ------------------------------------------------------------------ *)
(* Determinism: same spec => byte-identical plan, in any domain        *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let limits = Planner.default_constraints in
  let render () =
    Planner.json_of_outcome
      (Planner.plan ~unit_model (toy_workload ~path:CM.Prepared ()) limits)
  in
  let reference = render () in
  Alcotest.(check string) "same spec, identical bytes" reference (render ());
  (* Identical across domains: the planner owns no shared mutable
     state, so concurrent plans of the same spec agree bit for bit. *)
  let domains = Array.init 2 (fun _ -> Domain.spawn render) in
  Array.iter
    (fun d ->
      Alcotest.(check string) "cross-domain identical bytes" reference (Domain.join d))
    domains

(* ------------------------------------------------------------------ *)
(* Network-aware objective                                             *)
(* ------------------------------------------------------------------ *)

let test_net_objective () =
  let no_net = plan_toy () in
  let wan_limits =
    { Planner.default_constraints with Planner.net = Some Profile.wan }
  in
  let wan = plan_toy ~limits:wan_limits () in
  let b0 = best_exn no_net and bw = best_exn wan in
  (* The feasible set is pricing-independent, so the WAN winner's compute
     term alone is >= the compute-only optimum; the wire term on top is at
     least one full round trip (the protocol always exchanges messages in
     both directions on some link). *)
  Alcotest.(check bool) "wan objective >= compute optimum + one RTT" true
    (bw.Planner.steady_seconds >= b0.Planner.steady_seconds +. Profile.wan.Profile.rtt_s);
  List.iter
    (fun e ->
      Alcotest.(check bool) "every wan entry carries a positive wire term" true
        (e.Planner.steady_seconds > Profile.wan.Profile.rtt_s))
    wan.Planner.ranked;
  (* Net pricing stays deterministic. *)
  Alcotest.(check string) "byte-identical wan plans"
    (Planner.json_of_outcome wan)
    (Planner.json_of_outcome (plan_toy ~limits:wan_limits ()))

(* ------------------------------------------------------------------ *)
(* Forecast: deploy and query, prepare-db steps included               *)
(* ------------------------------------------------------------------ *)

(* The forecast is the symbolic deploy plus one query, so it prices the
   prepare-db steps Setup now runs exactly as it priced them when the
   first query ran them.  The expected minima were measured when the
   prepared state was still built inside the first query (n = 40, d = 3,
   k = 4; every path but plain with the affine mask).  The packed rows
   were re-pinned when its distances moved from slots to coefficients:
   ⌈(d+1)/g⌉ plain products and one randomizer replace d products, the
   ‖q‖² add and the scalar 2, so the circuit is shallower and its minimum
   headroom rises. *)
let test_forecast_pinned () =
  List.iter
    (fun (preset, config, expected) ->
      List.iter2
        (fun path want ->
          let config = if path = CM.Plain then config else Config.with_mask_degree 1 config in
          let p = Attribution.model_params config ~n:40 ~d:3 ~k:4 in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s %s" preset (Planner.path_name path))
            want (Planner.forecast p path).NM.min_headroom_bits)
        [ CM.Plain; CM.Prepared; CM.Packed ] expected)
    [ ("fast", Config.fast (), [ 53.356132983468953; 53.356132983468953; 54.678061078356322 ]);
      ( "standard",
        Config.standard (),
        [ 65.034182874634354; 60.039829437775467; 62.683685627550204 ] );
      ("secure", Config.secure (), [ 76.003907403710187; 73.037616872885209; 77.681473062659933 ])
    ]

(* ------------------------------------------------------------------ *)
(* Attribution bridge: probe pricing = realized pricing                *)
(* ------------------------------------------------------------------ *)

let test_q_ibits_matches_ring () =
  List.iter
    (fun params ->
      let probe = Params.probe_of_t params in
      let from_moduli = Attribution.q_ibits_of_moduli probe.Params.pr_moduli in
      let chain = Params.chain_length params in
      Alcotest.(check int) "one entry per level" chain (Array.length from_moduli);
      for level = 1 to chain do
        let q = Rq.modulus params.Params.ring ~nprimes:level in
        Alcotest.(check int)
          (Printf.sprintf "%s: level %d" params.Params.name level)
          (Zint.numbits q) from_moduli.(level - 1)
      done)
    [ Params.toy (); Params.bench_small () ]

let test_probe_prices_like_config () =
  let w = toy_workload ~path:CM.Prepared ~layout:Config.Dot_product () in
  let o = Planner.plan ~unit_model w Planner.default_constraints in
  let best = best_exn o in
  let config = Planner.realize w best in
  (* The candidate was priced from its probe; the realized configuration
     must forecast the identical noise walk. *)
  let realized = Attribution.model_params config ~n:24 ~d:3 ~k:3 in
  let probe_report = Planner.forecast realized CM.Prepared in
  Alcotest.(check (float 1e-9)) "headroom identical"
    best.Planner.min_headroom_bits probe_report.NM.min_headroom_bits;
  Alcotest.(check (float 1e-9)) "security from the probe's chain"
    best.Planner.security_bits (Params.security_bits config.Config.bgv)

let () =
  Alcotest.run "plan"
    [ ("limits",
       [ Alcotest.test_case "ranked entries clear limits" `Quick
           test_entries_clear_limits ]);
      ("live",
       [ Alcotest.test_case "round trip exact" `Slow test_roundtrip_exact;
         Alcotest.test_case "forecast conservative" `Quick
           test_forecast_conservative ]);
      ("determinism",
       [ Alcotest.test_case "byte-identical plans" `Quick test_plan_deterministic ]);
      ("network",
       [ Alcotest.test_case "wan objective prices the wire" `Quick
           test_net_objective ]);
      ("forecast",
       [ Alcotest.test_case "min headroom per preset and path" `Quick test_forecast_pinned ]);
      ("attribution",
       [ Alcotest.test_case "q_ibits matches ring" `Quick test_q_ibits_matches_ring;
         Alcotest.test_case "probe prices like config" `Quick
           test_probe_prices_like_config ]) ]
