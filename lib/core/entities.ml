module Rng = Util.Rng
module Counters = Util.Counters
module Perm = Util.Perm
module Pool = Util.Pool
module Obs = Sknn_obs.Ctx
module Trace = Sknn_obs.Trace
module Audit = Sknn_obs.Audit
module Metrics = Sknn_obs.Metrics
module NM = Sknn_obs.Noise_model
module CM = Sknn_obs.Cost_model

module type CT = Entities_intf.CT
module type S = Entities_intf.S

(* Per-worker counters keep recording race-free under Pool.map_local;
   absorbing them in worker order makes the totals exact (and identical)
   for every job count. *)
let merge_into counters w = Counters.absorb ~into:counters w

(* One independent RNG stream per point, split off sequentially from the
   parent before the parallel loop, so the ciphertexts are bit-identical
   whatever the job count. *)
let split_streams rng n = Array.init n (fun _ -> Rng.split rng)

let squared_norm point = Array.fold_left (fun s v -> s + (v * v)) 0 point

(* The slot return's block width d': the smallest power of two >= d, so
   a block never straddles two slot plaintexts (the slot count is a
   power of two, and d <= slots). *)
let block_width d =
  let rec go w = if w >= d then w else go (2 * w) in
  go 1

(* ⌈n·d'/N⌉: how many slot plaintexts hold n blocks of width d'. *)
let block_count ~n ~width ~slots = ((n * width) + slots - 1) / slots

(* The packed distance circuit's coefficient stride g: each point owns g
   coefficients, so one ciphertext carries ⌊N/g⌋ points and the query
   ⌈(d+1)/g⌉ groups of its extended form.  The power of two in
   [1, min(2d', N)] with the fewest query groups plus twice the distance
   ciphertexts (the query and the distances are what travel), ties to
   the smaller g.  A function of (n, d', N) only, which Party B already
   holds. *)
let distance_stride ~n ~width ~slots =
  let cost g = ((width + g) / g) + (2 * ((n + (slots / g) - 1) / (slots / g))) in
  let rec go g best =
    if g > Stdlib.min (2 * width) slots then best
    else go (2 * g) (if cost g < cost best then g else best)
  in
  go 2 1

(* ⌈(d+1)/g⌉: the packed query's ciphertext count. *)
let query_groups ~d ~stride = (d + stride) / stride

exception Query_below_level of { level : int; required : int }

type mask_source = Entities_intf.mask_source

let draw_mask rng ~t_plain ~input_bits ~degree ~coeff_bits =
  Masking.draw rng ~t_plain ~input_bits ~degree ~coeff_bits ()

(* ------------------------------------------------------------------ *)
(* The protocol, once, over any ciphertext backend                     *)
(* ------------------------------------------------------------------ *)

(* The parameter is named after the deployed backend: the invariant
   linter resolves calls by name, so it analyses this circuit exactly as
   [include Make (Live)] deploys it — Party B's secret-key code and the
   ledgered Bgv ops included. *)
module Make (Live : CT) = struct
  type ct = Live.ct
  type params = Live.params
  type secret_key = Live.secret_key
  type relin_key = Live.relin_key
  type keys = Live.keys
  type env = Live.env
  type config = Live.params Config.gen

  type encrypted_point = { coords : ct array option; packed : ct; norm : ct option }
  type encrypted_db = { db_n : int; db_d : int; points : encrypted_point array }

  type encrypted_query = {
    q_coords : ct array option;
    q_rev : ct option;
    q_norm : ct option;
    q_dim : int;
  }

  (* What Party A answers each rank from: Π(P') as per-point return
     ciphertexts (Algorithm 3), or the Π-permuted plaintext points packed
     point-major into slot blocks, embedded once at the return level (the
     slot return). *)
  type returned = Points of ct array | Blocks of Live.ept array

  type result = Coeff_point of ct | Slot_block of ct

  let result_ct = function Coeff_point c | Slot_block c -> c

  let cts_bytes = Array.fold_left (fun s c -> s + Live.byte_size c) 0
  let opt_cts = function None -> [||] | Some c -> [| c |]
  let opt_arr = function None -> [||] | Some a -> a

  let query_cts q = Array.concat [ opt_arr q.q_coords; opt_cts q.q_rev; opt_cts q.q_norm ]
  let query_bytes q = cts_bytes (query_cts q)

  let expand_all ~counters ?(jobs = Pool.default_jobs ()) cts =
    Pool.map_local ~jobs ~make:Counters.create ~merge:(merge_into counters)
      ~f:(fun counters _ c -> Live.expand ~counters c) cts

  let expand_points ~counters ?(jobs = Pool.default_jobs ()) points =
    Pool.map_local ~jobs ~make:Counters.create ~merge:(merge_into counters)
      ~f:(fun counters _ p ->
        let expand = Live.expand ~counters in
        { coords = Option.map (Array.map expand) p.coords;
          packed = expand p.packed;
          norm = Option.map expand p.norm })
      points

  (* The query's ciphertexts expanded in one pool call, then put back
     in [query_cts] order: coordinates, reversed query, norm. *)
  let expand_query ~counters ?jobs q =
    let cts = expand_all ~counters ?jobs (query_cts q) in
    let d = Option.fold ~none:0 ~some:Array.length q.q_coords in
    let r = d + Option.fold ~none:0 ~some:(fun _ -> 1) q.q_rev in
    { q with
      q_coords = Option.map (fun _ -> Array.sub cts 0 d) q.q_coords;
      q_rev = Option.map (fun _ -> cts.(d)) q.q_rev;
      q_norm = Option.map (fun _ -> cts.(r)) q.q_norm }

  let db_bytes db =
    Array.fold_left
      (fun s p ->
        s + cts_bytes (Array.concat [ [| p.packed |]; opt_arr p.coords; opt_cts p.norm ]))
      0 db.points

  let chain_length params = NM.chain_length (Live.noise_params params)

  let validate config ~d =
    let bgv = config.Config.bgv in
    Config.check ~n:(Live.ring_degree bgv) ~t_plain:(Live.t_plain bgv)
      ~chain_length:(chain_length bgv) config ~d

  (* Coefficient-packed plaintext for a point: p_j at coefficient j. *)
  let packed_plaintext params point =
    let d = Array.length point in
    Live.pt_coeffs params (fun j -> if j < d then Int64.of_int point.(j) else 0L)

  (* Reversed query for the inner-product trick: constant term q_0, and
     -q_j at x^(n-j) for j >= 1, so that the constant coefficient of
     P(x)·Qrev(x) in Z_t[x]/(x^n+1) equals <p, q>. *)
  let reversed_query_plaintext params query =
    let n = Live.ring_degree params and t = Live.t_plain params in
    let d = Array.length query in
    Live.pt_coeffs params (fun i ->
        if i = 0 then Mod64.reduce t (Int64.of_int query.(0))
        else if n - i < d then Mod64.neg t (Mod64.reduce t (Int64.of_int query.(n - i)))
        else 0L)

  let constant params v = Live.pt_const params (Int64.of_int v)

  let return_level config =
    Stdlib.min config.Config.return_level (chain_length config.Config.bgv)

  (* The level-drop rule, the one place a ciphertext leaves the chain
     early: the lowest level whose modulus clears [masked_bits] (the
     worst-case masked noise) with 17 bits of slack, floored at [floor].
     [None] when no level below [top] qualifies; the caller then falls
     back to the configured rescale. *)
  let drop_level nm ~floor ~top ~masked_bits =
    let need = masked_bits +. 17.0 in
    let lvl = ref 0 and bits = ref 0.0 in
    while !bits <= need && !lvl < top do
      bits := !bits +. nm.NM.moduli_bits.(!lvl);
      incr lvl
    done;
    let lvl = Stdlib.max !lvl floor in
    if !bits > need && lvl < top then Some lvl else None

  (* The level the packed query travels at, which the client encrypts at
     and Party A expects: the level-drop rule applied to the worst masked
     bound a fresh query reaches in the packed circuit — [groups] plain
     products summed, the mask's scalar, the randomizer.  No op on that
     path depends on the level, so both parties derive it from the
     configuration alone; the full chain when no lower level
     qualifies. *)
  let packed_query_level config ~groups =
    let nm = Live.noise_params config.Config.bgv in
    let top = NM.chain_length nm in
    let ip = NM.sum (NM.mul_plain nm (NM.fresh nm)) ~terms:groups in
    let masked = NM.add_plain nm (NM.mul_scalar ip ~bits:nm.NM.t_bits) in
    Option.value ~default:top
      (drop_level nm ~floor:(return_level config) ~top ~masked_bits:masked.NM.bits)

  (* ---------------------------------------------------------------- *)

  module Data_owner = struct
    type t = { config : config; keys : keys }

    let create rng config = { config; keys = Live.keygen rng config.Config.bgv }
    let keys t = t.keys
    let config t = t.config

    let validate_point config ~d point =
      if Array.length point <> d then invalid_arg "Data_owner.validate_db: ragged data";
      let bound = 1 lsl config.Config.max_coord_bits in
      Array.iter
        (fun v ->
          if v < 0 || v >= bound then
            invalid_arg
              (Printf.sprintf
                 "Data_owner.validate_db: coordinate %d outside [0, 2^%d) — preprocess the \
                  data (Preprocess.scale_to_max)"
                 v config.Config.max_coord_bits))
        point

    (* What every deployment checks of the database, whatever it ships. *)
    let validate_db config db =
      if Array.length db = 0 then invalid_arg "Data_owner.validate_db: empty database";
      let d = Array.length db.(0) in
      (match validate config ~d with
       | Ok () -> ()
       | Error msg -> invalid_arg ("Data_owner.validate_db: " ^ msg));
      if d > Live.ring_degree config.Config.bgv then
        invalid_arg "Data_owner.validate_db: dimension exceeds ring degree";
      Array.iter (validate_point config ~d) db

    let encrypt_db ?(obs = Obs.disabled) ?counters ?jobs rng t db =
      let config = t.config in
      validate_db config db;
      let n_points = Array.length db and d = Array.length db.(0) in
      let params = config.Config.bgv in
      let sk = Live.secret_key t.keys in
      let rngs = split_streams rng n_points in
      let span_counters =
        match counters with Some c -> [ ("data-owner", c) ] | None -> []
      in
      let points =
        Obs.with_span obs ~kind:Trace.Phase ~counters:span_counters
          ~args:[ ("points", string_of_int n_points) ]
          "encrypt-db"
          (fun () ->
            Obs.with_pool_chunks obs ~label:"encrypt-db" (fun () ->
                Pool.map_local ?jobs ~make:Counters.create
                  ~merge:(fun w -> Option.iter (fun c -> merge_into c w) counters)
                  ~f:(fun counters i point ->
                    let rng = rngs.(i) in
                    let enc pt = Live.encrypt ~counters rng sk pt in
                    let packed = enc (packed_plaintext params point) in
                    match config.Config.layout with
                    | Config.Per_coordinate ->
                      let coords = Array.map (fun v -> enc (constant params v)) point in
                      { coords = Some coords; packed; norm = None }
                    | Config.Dot_product ->
                      let norm = enc (constant params (squared_norm point)) in
                      { coords = None; packed; norm = Some norm })
                  db))
      in
      { db_n = n_points; db_d = d; points }
  end

  (* ---------------------------------------------------------------- *)

  module Party_a = struct
    type t = {
      config : config;
      nm : NM.params;
      rlk : Live.relin_key;
      db : encrypted_db;
      counters : Counters.t;
      jobs : int;
      mask_source : mask_source;
    }

    (* Fresh ciphertexts arrive seeded (c0 plus a seed): A re-derives each
       c1 on receipt, over its domains and into its own ledger — the work
       a real wire makes it do. *)
    let expand_each t cts = expand_all ~counters:t.counters ~jobs:t.jobs cts

    let create ?jobs ?(mask_source = draw_mask) config rlk db =
      let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
      let t =
        { config; nm = Live.noise_params config.Config.bgv; rlk; db;
          counters = Counters.create (); jobs; mask_source }
      in
      { t with db = { db with points = expand_points ~counters:t.counters ~jobs db.points } }

    let received obs f =
      Obs.with_span obs "expand-query" (fun () ->
          Obs.with_pool_chunks obs ~label:"expand-query" f)

    let receive_query obs t q =
      received obs (fun () -> expand_query ~counters:t.counters ~jobs:t.jobs q)

    let counters t = t.counters
    let db_size t = t.db.db_n
    let jobs t = t.jobs

    (* Per-query secrets: the fresh mask and the permutation Π. *)
    type query_state = { mask : Masking.t; perm : Perm.t }

    let state_mask s = s.mask
    let state_perm s = s.perm
    let rlk_opt t = if t.config.Config.use_relin then Some t.rlk else None

    let return_level t = return_level t.config

    let fresh_mask obs t rng =
      let c = t.config in
      Obs.with_span obs "draw-mask" (fun () ->
          t.mask_source rng ~t_plain:(Live.t_plain c.Config.bgv)
            ~input_bits:(Config.max_distance_bits c ~d:t.db.db_d)
            ~degree:c.Config.mask_degree ~coeff_bits:c.Config.mask_coeff_bits)

    let rescale_if_configured t ~counters ed =
      if t.config.Config.rescale_distances then Live.rescale_to_floor ~counters ed else ed

    let encrypted_distance t ~counters query point =
      match t.config.Config.layout, point.coords, query.q_coords with
      | Config.Per_coordinate, Some coords, Some q_coords ->
        (* ED = sum_j (p'_j - q'_j)^2, Steps 2-4 of Algorithm 1.  The
           per-dimension squares are left unrescaled (fused inner product
           of the difference vector with itself); one rescale after the
           sum costs d-1 fewer modulus switches per point. *)
        let diffs = Array.mapi (fun j c -> Live.sub ~counters c q_coords.(j)) coords in
        (* jobs:1 — compute_distances already parallelises over points. *)
        rescale_if_configured t ~counters
          (Live.mul_sum ~counters ~jobs:1 ?rlk:(rlk_opt t) diffs diffs)
      | Config.Dot_product, _, _ ->
        let q_rev = Option.get query.q_rev and q_norm = Option.get query.q_norm in
        let norm = Option.get point.norm in
        (* ED = ||p||^2 - 2<p,q> + ||q||^2 in the constant coefficient. *)
        let ip = Live.mul ~counters ~rescale:false point.packed q_rev in
        Live.sub ~counters (Live.add ~counters norm q_norm) (Live.mul_scalar ~counters ip 2L)
      | Config.Per_coordinate, _, _ ->
        invalid_arg "Party_a.compute_distances: layout/ciphertext mismatch"

    (* A uniformly random polynomial with zero constant coefficient; added
       to Dot_product masked distances to destroy the cross-term
       coefficients the inner-product trick leaves behind. *)
    let zero_constant_randomizer rng params =
      let t = Live.t_plain params in
      Live.pt_coeffs params (fun i -> if i = 0 then 0L else Rng.int64_below rng t)

    (* Masked distances of every point, pool-parallel with one RNG stream
       per item; [f counters i item] is the per-point circuit. *)
    let distance_batches obs t ~label ~args items f =
      Obs.with_span obs
        ~counters:[ ("party-a", t.counters) ]
        ~args "distance-batches"
        (fun () ->
          Obs.with_pool_chunks obs ~label (fun () ->
              Pool.map_local ~jobs:t.jobs ~make:Counters.create
                ~merge:(merge_into t.counters) ~f items))

    let permute obs rng n = Obs.with_span obs "permute" (fun () -> Perm.random rng n)
    let points_arg t = ("points", string_of_int t.db.db_n)

    let compute_distances ?(obs = Obs.disabled) t rng query =
      let config = t.config in
      if query.q_dim <> t.db.db_d then
        invalid_arg "Party_a.compute_distances: dimension mismatch";
      let query = receive_query obs t query in
      let mask = fresh_mask obs t rng in
      let coeffs = Masking.coeffs mask in
      let rngs = split_streams rng t.db.db_n in
      let masked =
        distance_batches obs t ~label:"distances" ~args:[ points_arg t ] t.db.points
          (fun counters i point ->
            let ed = encrypted_distance t ~counters query point in
            let m = Live.eval_poly ~counters ?rlk:(rlk_opt t) ~coeffs ed in
            match config.Config.layout with
            | Config.Per_coordinate -> m
            | Config.Dot_product ->
              Live.add_plain ~counters m (zero_constant_randomizer rngs.(i) config.Config.bgv))
      in
      let perm = permute obs rng t.db.db_n in
      ({ mask; perm }, Perm.apply perm masked)

    (* ---- Prepared (multi-query) path ----------------------------- *)

    (* Query-independent work hoisted out of the per-query loop: the
       packed ciphertexts (already NTT/Eval-domain) and an encrypted
       squared norm per point.  With ED = ||p||^2 - 2<p,q> + ||q||^2 the
       per-query cost per point drops from d ciphertext products
       (Per_coordinate) to one packed product against the reversed query,
       amortising the d-fold work across the database lifetime. *)
    type prepared = {
      prep_packed : ct array;
      prep_norms : ct array;
      prep_return_packed : ct array;
          (* packed points already truncated to the return level, so
             Return-kNN skips the per-query truncation pass *)
    }

    (* The inner-product trick leaves cross terms in the non-constant
       coefficients, so only affine masking keeps the constant
       coefficient sound — the same restriction Config.validate puts on
       Dot_product.  The packed path shares it. *)
    let check_affine t ~what ~caller =
      if t.config.Config.mask_degree <> 1 then
        invalid_arg
          (Printf.sprintf "%s: %s queries need affine (degree-1) masking" caller what)
      else if t.db.db_d > Live.ring_degree t.config.Config.bgv then
        invalid_arg (Printf.sprintf "%s: %s queries need d <= ring degree" caller what)

    let return_packed t =
      let lvl = return_level t in
      Array.map (fun p -> Live.truncate ~counters:t.counters p.packed lvl) t.db.points

    let prepare ?(obs = Obs.disabled) t =
      check_affine t ~what:"prepared" ~caller:"Party_a.prepare";
      let norms =
        Obs.with_span obs
          ~counters:[ ("party-a", t.counters) ]
          ~args:[ points_arg t ] "prepare-norms"
          (fun () ->
            Obs.with_pool_chunks obs ~label:"prepare-norms" (fun () ->
                Pool.map_local ~jobs:t.jobs ~make:Counters.create
                  ~merge:(merge_into t.counters)
                  ~f:(fun counters _ point ->
                    match point.norm, point.coords with
                    | Some norm, _ -> norm
                    | None, Some coords ->
                      (* ||p||^2 homomorphically, once per database. *)
                      Live.mul_sum ~counters ~jobs:1 ?rlk:(rlk_opt t) coords coords
                    | None, None ->
                      invalid_arg "Party_a.prepare: point carries no norm or coordinates")
                  t.db.points))
      in
      { prep_packed = Array.map (fun p -> p.packed) t.db.points;
        prep_norms = norms;
        prep_return_packed = return_packed t }

    let compute_distances_prepared ?(obs = Obs.disabled) t prep rng query =
      let config = t.config in
      if query.q_dim <> t.db.db_d then
        invalid_arg "Party_a.compute_distances_prepared: dimension mismatch";
      let query = receive_query obs t query in
      let q_rev, q_norm =
        match query.q_rev, query.q_norm with
        | Some r, Some n -> (r, n)
        | _ ->
          invalid_arg
            "Party_a.compute_distances_prepared: query lacks inner-product form \
             (use Client.encrypt_query_ip)"
      in
      check_affine t ~what:"prepared" ~caller:"Party_a.compute_distances_prepared";
      let mask = fresh_mask obs t rng in
      let coeffs = Masking.coeffs mask in
      let rngs = split_streams rng t.db.db_n in
      let masked =
        distance_batches obs t ~label:"distances" ~args:[ points_arg t ] prep.prep_packed
          (fun counters i packed ->
            (* ED = ||p||^2 - 2<p,q> + ||q||^2 in the constant coefficient;
               one ciphertext product per point. *)
            let ip = Live.mul ~counters ?rlk:(rlk_opt t) ~rescale:false packed q_rev in
            let ed =
              Live.sub ~counters
                (Live.add ~counters prep.prep_norms.(i) q_norm)
                (Live.mul_scalar ~counters ip 2L)
            in
            (* ED is one multiplication deep, so its noise sits far below
               the full modulus: drop the spare RNS components in one cheap
               truncation, so masking, transport and B's decryption all run
               on the small ciphertext. *)
            let ed =
              match
                drop_level t.nm ~floor:(return_level t) ~top:(Live.level ed)
                  ~masked_bits:(Live.noise_bits ed +. t.nm.NM.t_bits)
              with
              | Some lvl -> Live.truncate ~counters ed lvl
              | None -> rescale_if_configured t ~counters ed
            in
            let m = Live.eval_poly ~counters ?rlk:(rlk_opt t) ~coeffs ed in
            Live.add_plain ~counters m (zero_constant_randomizer rngs.(i) config.Config.bgv))
      in
      let perm = permute obs rng t.db.db_n in
      ({ mask; perm }, Perm.apply perm masked)

    (* One rank's answer, split across domains; return_knn keeps the k
       rows sequential so parallelism is never nested. *)
    let select_row ?(obs = Obs.disabled) t returned row =
      Obs.with_pool_chunks obs ~label:"select-row" (fun () ->
          match returned with
          | Points packed ->
            (* T^j = Π(P')·B^j summed: one re-randomised encrypted point,
               as one fused inner product. *)
            Coeff_point
              (Live.mul_sum ~counters:t.counters ~jobs:t.jobs packed (expand_each t row))
          | Blocks blocks ->
            (* Σ_b ind_b·blk_b: only the selected block's indicator is
               non-zero, so the sum is one degree-1 ciphertext carrying
               that point's block.  Products in parallel, then added in
               block order so the noise bound folds identically for
               every job count. *)
            if Array.length row <> Array.length blocks then
              invalid_arg "Party_a.select_row: indicator count mismatch";
            let terms =
              Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
                ~f:(fun counters b ind ->
                  Live.mul_plain ~counters (Live.expand ~counters ind) blocks.(b))
                row
            in
            let acc = ref terms.(0) in
            for b = 1 to Array.length terms - 1 do
              acc := Live.add ~counters:t.counters !acc terms.(b)
            done;
            Slot_block !acc)

    let permuted_packed t state = Points (Perm.apply state.perm (return_packed t))
    let permuted_packed_prepared prep state =
      Points (Perm.apply state.perm prep.prep_return_packed)

    (* ---- Owner-delegated packed path ----------------------------- *)

    (* Owner-delegated mode (SANNS-style outsourced queries): Party A acts
       for the data owner and holds the plaintext database, while the
       client's query stays encrypted.  The distances are a
       coefficient-encoded inner product (Cheetah's, the many-point form
       of [reversed_query_plaintext]): point s of a batch owns the
       coefficients [s·g, s·g+g) for the stride g of [distance_stride],
       so a batch of ⌊N/g⌋ points costs ⌈(d+1)/g⌉ plain products, and
       Party B decrypts ⌈n/⌊N/g⌋⌉ ciphertexts instead of n.  B's §5 view
       (masked permuted distance multiset, n, k) gains only the slot
       return's block width d'; A's plaintext access is declared through
       the audit channel in [prepare_packed]. *)
    type prepared_packed = {
      pp_params : params;
      pp_counters : Counters.t;     (* Party A's: the per-query packing is its work *)
      pp_cols : int64 array array;  (* pp_cols.(j).(i) = p_i(j) mod t *)
      pp_norms : int64 array;       (* ‖p_i‖² mod t *)
      pp_level : int;               (* the return level the blocks are embedded at *)
    }

    let prepare_packed ?(obs = Obs.disabled) t ~db =
      let config = t.config in
      let d = t.db.db_d and n = t.db.db_n in
      check_affine t ~what:"packed" ~caller:"Party_a.prepare_packed";
      if Array.length db <> n then
        invalid_arg "Party_a.prepare_packed: plaintext database size mismatch";
      Array.iter (Data_owner.validate_point config ~d) db;
      Obs.audit obs ~party:"party-a" ~phase:"prepare-db" ~label:"plaintext-database"
        (Audit.Int (n * d));
      let tp = Live.t_plain config.Config.bgv in
      { pp_params = config.Config.bgv;
        pp_counters = t.counters;
        pp_cols =
          Array.init d (fun j ->
              Array.init n (fun i -> Mod64.reduce tp (Int64.of_int db.(i).(j))));
        pp_norms =
          Array.init n (fun i -> Mod64.reduce tp (Int64.of_int (squared_norm db.(i))));
        pp_level = return_level t }

    let compute_distances_packed ?(obs = Obs.disabled) t pp rng query =
      let config = t.config in
      let params = config.Config.bgv in
      let d = t.db.db_d and n = t.db.db_n in
      if query.q_dim <> d then
        invalid_arg "Party_a.compute_distances_packed: dimension mismatch";
      check_affine t ~what:"packed" ~caller:"Party_a.compute_distances_packed";
      if Array.length pp.pp_norms <> n || Array.length pp.pp_cols <> d then
        invalid_arg "Party_a.compute_distances_packed: prepared state mismatch";
      let slots = Live.ring_degree params in
      let g = distance_stride ~n ~width:(block_width d) ~slots in
      let groups = query_groups ~d ~stride:g in
      let q =
        match query.q_coords, query.q_rev, query.q_norm with
        | Some c, None, None when Array.length c = groups -> c
        | _ ->
          invalid_arg
            "Party_a.compute_distances_packed: query lacks coefficient-group form (use \
             Client.encrypt_query_packed)"
      in
      (* The query should arrive at the level the drop rule picks; A cuts
         a higher one down before expanding it, so only the limbs it keeps
         are expanded, and refuses a lower one, whose noise the rule
         never vetted. *)
      let level = packed_query_level config ~groups in
      let q =
        Array.map
          (fun c ->
            if Live.level c < level then
              raise (Query_below_level { level = Live.level c; required = level });
            Live.truncate ~counters:t.counters c level)
          q
      in
      let q = received obs (fun () -> expand_each t q) in
      let per = slots / g in
      let nbatches = (n + per - 1) / per in
      let mask = fresh_mask obs t rng in
      let coeffs = Masking.coeffs mask in
      let rngs = split_streams rng nbatches in
      (* The permutation is drawn before the homomorphic loop: the
         coefficient layout must already be in permuted order when the
         batches are built.  Party A lays its plaintext columns out per
         query, so Π needs no Galois machinery and stays uniform over all
         n! choices exactly as in Algorithm 1. *)
      let perm = permute obs rng n in
      let cols_p = Array.map (Perm.apply perm) pp.pp_cols in
      let norms_p = Perm.apply perm pp.pp_norms in
      let tp = Live.t_plain params in
      let b0 = coeffs.(0) and a = coeffs.(1) in
      let masked =
        distance_batches obs t ~label:"packed-distances"
          ~args:[ ("points", string_of_int n); ("batches", string_of_int nbatches) ]
          rngs
          (fun counters b rng_b ->
            let base = b * per in
            let len = Stdlib.min per (n - base) in
            (* Group c of point s — Π position base + s — holds x'_{cg+j}
               at coefficient s·g + g−1−j, with x' = (x, 1); query group c
               holds q'_{cg+j} at X^j.  Their product puts the group's
               partial ⟨x', q'⟩ at s·g + g−1; the negacyclic wrap reaches
               only coefficients below g−1, which are never targets. *)
            let group c =
              Live.pt_coeffs params (fun i ->
                  let s = i / g and idx = (c * g) + g - 1 - (i mod g) in
                  if s >= len || idx > d then 0L
                  else if idx = d then 1L
                  else cols_p.(idx).(base + s))
            in
            let ip = ref None in
            for c = 0 to groups - 1 do
              let pt = Live.embed ~counters params ~level (group c) in
              let p = Live.mul_plain ~counters q.(c) pt in
              ip := Some (match !ip with None -> p | Some acc -> Live.add ~counters acc p)
            done;
            let ip = Option.get !ip in
            let ip =
              if level < chain_length params then ip else rescale_if_configured t ~counters ip
            in
            (* The affine mask a·ED + b, ED = ‖x‖² + ⟨x', q'⟩: one scalar
               product, then one plaintext holding a·‖x_s‖² + b at every
               live target and a uniform value at every other coefficient
               — cross terms, wrapped terms and the dead points of a
               ragged batch alike — so B decrypts nothing but the masked
               distances. *)
            Live.add_plain ~counters (Live.mul_scalar ~counters ip a)
              (Live.pt_coeffs params (fun i ->
                   let s = i / g in
                   if i mod g = g - 1 && s < len then
                     Mod64.add tp (Mod64.mul tp a norms_p.(base + s)) b0
                   else Rng.int64_below rng_b tp)))
      in
      ({ mask; perm }, masked)

    (* The slot return's plaintext side, point-major: permuted point i
       takes slots [i·d', i·d'+d) of block ⌊i·d'/N⌋, zeros elsewhere.
       Packed per query under that query's Π, and embedded once at the
       return level for all k ranks. *)
    let permuted_return_packed pp state =
      let params = pp.pp_params and counters = pp.pp_counters in
      let slots = Live.ring_degree params in
      let d = Array.length pp.pp_cols and n = Array.length pp.pp_norms in
      let width = block_width d in
      let src = Perm.apply state.perm (Array.init n Fun.id) in
      Blocks
        (Array.init (block_count ~n ~width ~slots) (fun b ->
             Live.embed ~counters params ~level:pp.pp_level
               (Live.pack ~counters params (fun s ->
                    let g = (b * slots) + s in
                    let i = g / width and c = g mod width in
                    if i < n && c < d then pp.pp_cols.(c).(src.(i)) else 0L))))

    let return_knn ?obs t state rows =
      let packed = permuted_packed t state in
      Array.map (fun row -> select_row ?obs t packed row) rows
  end

  (* ---------------------------------------------------------------- *)

  module Party_b = struct
    type t = {
      config : config;
      sk : Live.secret_key;
      block_width : int;  (* d', handed over at deploy like n *)
      counters : Counters.t;
      jobs : int;
    }

    let create ?jobs ~block_width config sk =
      let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
      { config; sk; block_width; counters = Counters.create (); jobs }

    let counters t = t.counters

    type view = Leakage.view = {
      masked_distances : int64 array;
      selected : int array;
      block_width : int option;
    }

    let check_k ~n ~k = if k < 1 || k > n then invalid_arg "Party_b: k out of range"

    let decrypt_span obs t args f =
      Obs.with_span obs ~counters:[ ("party-b", t.counters) ] ~args "decrypt-distances" f

    let select_top_k obs ~k f =
      Obs.with_span obs ~args:[ ("k", string_of_int k) ] "select-top-k" f

    let view_of ?block_width ~k masked =
      { masked_distances = masked; selected = Util.Topk.smallest ~k masked; block_width }

    let select_neighbours ?(obs = Obs.disabled) t cts ~k =
      let n = Array.length cts in
      check_k ~n ~k;
      (* The decrypt-and-select half runs sequentially on purpose: it
         handles secret-key material and masked plaintexts, and keeping it
         single-domain keeps B's trusted computing base minimal.  The scan
         itself is the O(n log k) heap replication of Algorithm 2's
         streaming max-replacement (Util.Topk). *)
      let masked =
        decrypt_span obs t [ ("points", string_of_int n) ] (fun () ->
            Array.map (fun ct -> Live.decrypt_coeff0 ~counters:t.counters t.sk ct) cts)
      in
      select_top_k obs ~k (fun () -> view_of ~k masked)

    let select_neighbours_packed ?(obs = Obs.disabled) t cts ~n ~k =
      let slots = Live.ring_degree t.config.Config.bgv in
      if n < 1 then invalid_arg "Party_b.select_neighbours_packed: empty database";
      let g = distance_stride ~n ~width:t.block_width ~slots in
      let per = slots / g in
      if Array.length cts <> (n + per - 1) / per then
        invalid_arg "Party_b.select_neighbours_packed: ciphertext count mismatch";
      check_k ~n ~k;
      let masked =
        decrypt_span obs t
          [ ("points", string_of_int n); ("ciphertexts", string_of_int (Array.length cts)) ]
          (fun () ->
            (* Read point s's masked distance at coefficient s·g + g−1
               before any accounting: every downstream consumer (Topk,
               Leakage, the audit channel) must see the n per-point masked
               distances, never the randomized coefficients around them. *)
            let out = Array.make n 0L in
            Array.iteri
              (fun b ct ->
                let base = b * per in
                let c =
                  Live.coeffs (Live.decrypt ~counters:t.counters t.sk ct) ~len:slots
                in
                for s = 0 to Stdlib.min per (n - base) - 1 do
                  out.(base + s) <- c.((s * g) + g - 1)
                done)
              cts;
            out)
      in
      select_top_k obs ~k (fun () -> view_of ~block_width:t.block_width ~k masked)

    (* The j-th indicator at the return level.  Per-point views get
       Algorithm 3's n encrypted bits; slot views get ⌈n·d'/N⌉ slot
       indicators, all zero but the one holding the selected point's
       d'-slot block, which is all ones. *)
    let indicator_row ?(obs = Obs.disabled) t rng view ~n ~j =
      let params = t.config.Config.bgv in
      let level =
        Stdlib.min t.config.Config.return_level (chain_length params)
      in
      let sel = view.selected.(j) in
      let count, plaintext =
        match view.block_width with
        | None -> (n, fun ~counters:_ i -> constant params (if i = sel then 1 else 0))
        | Some width ->
          let slots = Live.ring_degree params in
          let first = sel * width in
          ( block_count ~n ~width ~slots,
            fun ~counters b ->
              Live.pack ~counters params (fun s ->
                  let g = (b * slots) + s in
                  if g >= first && g < first + width then 1L else 0L) )
      in
      let rngs = split_streams rng count in
      Obs.with_pool_chunks obs ~label:"indicator-row" (fun () ->
          Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
            ~f:(fun counters i rng ->
              Live.encrypt ~counters ~level rng t.sk (plaintext ~counters i))
            rngs)

    let find_neighbours ?obs t rng cts ~k =
      let n = Array.length cts in
      let view = select_neighbours ?obs t cts ~k in
      let rows = Array.init k (fun j -> indicator_row ?obs t rng view ~n ~j) in
      (rows, view)
  end

  (* ---------------------------------------------------------------- *)

  module Client = struct
    type t = {
      config : config;
      sk : Live.secret_key;
      stride : int;  (* g, handed over at deploy *)
      counters : Counters.t;
      jobs : int;
    }

    let create ?jobs ~distance_stride config sk =
      let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
      { config; sk; stride = distance_stride; counters = Counters.create (); jobs }

    let counters t = t.counters
    let enc t ?level rng pt = Live.encrypt ~counters:t.counters ?level rng t.sk pt

    let checked t ~caller query =
      let d = Array.length query in
      Data_owner.validate_point t.config ~d query;
      if d > Live.ring_degree t.config.Config.bgv then
        invalid_arg (caller ^ ": dimension exceeds ring degree");
      d

    (* Inner-product query form (reversed-packed query + encrypted norm):
       what the Dot_product layout sends, and what the prepared
       multi-query path consumes regardless of layout. *)
    let encrypt_query_ip t rng query =
      let params = t.config.Config.bgv in
      let d = checked t ~caller:"Client.encrypt_query_ip" query in
      let q_rev = enc t rng (reversed_query_plaintext params query) in
      let q_norm = enc t rng (constant params (squared_norm query)) in
      { q_coords = None; q_rev = Some q_rev; q_norm = Some q_norm; q_dim = d }

    let encrypt_query t rng query =
      let config = t.config in
      let d = Array.length query in
      Data_owner.validate_point config ~d query;
      match config.Config.layout with
      | Config.Per_coordinate ->
        let q_coords = Array.map (fun v -> enc t rng (constant config.Config.bgv v)) query in
        { q_coords = Some q_coords; q_rev = None; q_norm = None; q_dim = d }
      | Config.Dot_product -> encrypt_query_ip t rng query

    (* Coefficient-group query form for the packed path: the extended
       query q' = (−2q, ‖q‖²) mod t, g coefficients per ciphertext
       (group c holds q'_{cg+j} at X^j), encrypted at the level Party A
       reads it at — ⌈(d+1)/g⌉ ciphertexts whatever the batch count. *)
    let encrypt_query_packed t rng query =
      let params = t.config.Config.bgv in
      let d = checked t ~caller:"Client.encrypt_query_packed" query in
      let tp = Live.t_plain params and g = t.stride in
      let ext i =
        if i < d then Mod64.neg tp (Mod64.reduce tp (Int64.of_int (2 * query.(i))))
        else Mod64.reduce tp (Int64.of_int (squared_norm query))
      in
      let groups = query_groups ~d ~stride:g in
      let level = packed_query_level t.config ~groups in
      let group c =
        Live.pt_coeffs params (fun j ->
            if j < g && (c * g) + j <= d then ext ((c * g) + j) else 0L)
      in
      { q_coords = Some (Array.init groups (fun c -> enc t ~level rng (group c)));
        q_rev = None; q_norm = None; q_dim = d }

    (* A slot result is zeros plus one d'-slot block, so coordinate c is
       the sum of the slots ≡ c mod d' — wherever Π put the block, and
       even when the point is all zeros. *)
    let decrypt_points ?(obs = Obs.disabled) t ~d results =
      let params = t.config.Config.bgv in
      let tp = Live.t_plain params and slots = Live.ring_degree params in
      let width = block_width d in
      Obs.with_pool_chunks obs ~label:"decrypt-result" (fun () ->
          Pool.map_local ~jobs:t.jobs ~make:Counters.create ~merge:(merge_into t.counters)
            ~f:(fun counters _ result ->
              match result with
              | Coeff_point ct ->
                Array.map Int64.to_int (Live.coeffs (Live.decrypt ~counters t.sk ct) ~len:d)
              | Slot_block ct ->
                let s = Live.unpack ~counters (Live.decrypt ~counters t.sk ct) ~len:slots in
                let point = Array.make width 0L in
                Array.iteri
                  (fun i v ->
                    let c = i mod width in
                    point.(c) <- Mod64.add tp point.(c) v)
                  s;
                Array.init d (fun c -> Int64.to_int point.(c)))
            results)
  end

  (* ---------------------------------------------------------------- *)
  (* The query driver                                                 *)
  (* ---------------------------------------------------------------- *)

  module Run = struct
    (* What Setup built for the deployment's one path. *)
    type state =
      | Plain_state
      | Prepared_state of Party_a.prepared
      | Packed_state of Party_a.prepared_packed

    type deployment = {
      config : config;
      db_n : int;
      db_d : int;
      db : int array array;
      a : Party_a.t;
      b : Party_b.t;
      cl : Client.t;
      query_seed : Rng.t;
      setup : env;  (* the Setup phase's recorder: its transcript *)
      mutable state : state;
    }

    let path d =
      match d.state with
      | Plain_state -> CM.Plain
      | Prepared_state _ -> CM.Prepared
      | Packed_state _ -> CM.Packed

    (* Setup (§3) for one path: key generation at the data owner, the
       database encryption that path reads, the key/ciphertext
       distribution, and Party A's prepared state, all recorded through
       [setup].  The rng is split the same way on every path, so keys and
       query streams do not depend on it. *)
    let deploy ?(obs = Obs.disabled) ?counters ?jobs ?mask_source ?(path = CM.Plain) setup
        rng config ~db =
      let owner =
        Obs.with_span obs ~kind:Trace.Phase "keygen" (fun () ->
            Data_owner.create (Rng.split rng) config)
      in
      let db_rng = Rng.split rng in
      (* The owner-delegated packed circuit reads A's plaintext columns,
         never an encrypted database, so none is encrypted or shipped. *)
      let enc_db, db_msg =
        match path with
        | CM.Packed ->
          Data_owner.validate_db config db;
          ({ db_n = Array.length db; db_d = Array.length db.(0); points = [||] }, [])
        | CM.Plain | CM.Prepared ->
          let enc_db = Data_owner.encrypt_db ~obs ?counters ?jobs db_rng owner db in
          (enc_db, [ (Transcript.Party_a, "encrypted database", db_bytes enc_db) ])
      in
      let keys = Data_owner.keys owner in
      let sk = Live.secret_key keys and rlk = Live.relin_key keys in
      (* The secret key is one byte per (ternary) coefficient. *)
      let sk_bytes = Live.ring_degree config.Config.bgv in
      (* Party A gets the relinearisation key only when it relinearises. *)
      let rlk_msg =
        if config.Config.use_relin then
          [ (Transcript.Party_a, "relinearisation key", Live.relin_key_bytes rlk) ]
        else []
      in
      List.iter
        (fun (receiver, label, bytes) ->
          Live.send setup ~sender:Transcript.Data_owner ~receiver ~label ~bytes)
        (db_msg
         @ rlk_msg
         @ [ (Transcript.Party_b, "secret key", sk_bytes);
             (Transcript.Client, "secret key", sk_bytes) ]);
      let a = Party_a.create ?jobs ?mask_source config rlk enc_db in
      let n = Array.length db and d = Array.length db.(0) in
      let width = block_width d in
      let prepare f = Live.phase setup [ ("party-a", Party_a.counters a) ] "prepare-db" f in
      { config;
        db_n = n;
        db_d = d;
        db;
        a;
        (* Party B learns d' here, as it learns n, and the client the
           packed circuit's stride g: no message carries either. *)
        b = Party_b.create ?jobs ~block_width:width config sk;
        cl =
          Client.create ?jobs
            ~distance_stride:
              (distance_stride ~n ~width ~slots:(Live.ring_degree config.Config.bgv))
            config sk;
        query_seed = Rng.split rng;
        setup;
        state =
          (match path with
           | CM.Plain -> Plain_state
           | CM.Prepared -> Prepared_state (prepare (fun () -> Party_a.prepare ~obs a))
           | CM.Packed -> Packed_state (prepare (fun () -> Party_a.prepare_packed ~obs a ~db)))
      }

    (* Sample chain level and noise-budget headroom of a ciphertext batch
       into the metrics registry (stride keeps it O(16) per batch).  Runs
       in the orchestrating domain only, after the batch is complete. *)
    let level_buckets = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 8.0 |]
    let noise_buckets = [| 0.0; 8.0; 16.0; 24.0; 32.0; 48.0; 64.0; 96.0; 128.0 |]

    let sample_cts obs ~name cts =
      let m = Obs.metrics obs in
      let flight_on = Option.is_some (Obs.flight obs) in
      let n = Array.length cts in
      if n > 0 && (Option.is_some m || flight_on) then begin
        let hists =
          Option.map
            (fun m ->
              ( Metrics.histogram ~buckets:level_buckets m ("bgv." ^ name ^ ".level"),
                Metrics.histogram ~buckets:noise_buckets m
                  ("bgv." ^ name ^ ".noise_budget_bits") ))
            m
        in
        let stride = Stdlib.max 1 (n / 16) in
        let min_budget = ref infinity in
        let i = ref 0 in
        while !i < n do
          let level = Live.level cts.(!i) in
          let budget = Live.noise_budget_bits cts.(!i) in
          if budget < !min_budget then min_budget := budget;
          (match hists with
           | None -> ()
           | Some (h_lvl, h_nb) ->
             Metrics.observe h_lvl (float_of_int level);
             Metrics.observe h_nb budget);
          Obs.observe_noise obs ~name ~level ~budget_bits:budget;
          i := !i + stride
        done;
        match m with
        | None -> ()
        | Some m ->
          (* Per-phase headroom gauge: the tightest sampled budget this
             batch, the number a dashboard alerts on. *)
          Metrics.set (Metrics.gauge m ("bgv." ^ name ^ ".min_noise_budget_bits")) !min_budget
      end

    type outcome = { neighbours : int array array; view : Party_b.view }

    (* One protocol round on the deployment's path: the client encrypts,
       A computes the masked distances (Algorithm 1), B decrypts and
       selects (Algorithm 2), B's indicator rows stream to A one rank at
       a time (n encrypted bits each on the per-point paths, ⌈n·d'/N⌉
       slot indicators on the packed one), A returns the selected points
       (Algorithm 3 or the slot return), the client decrypts.  Party
       counters are reset at the start, so they report this round; the
       backend's [phase]/[send] hooks time it and record its transcript. *)
    let query ?(obs = Obs.disabled) env d rng ~query ~k =
      if Array.length query <> d.db_d then invalid_arg "Protocol.query: dimension mismatch";
      if k < 1 || k > d.db_n then invalid_arg "Protocol.query: k out of range";
      let ca = Party_a.counters d.a and cb = Party_b.counters d.b in
      let cc = Client.counters d.cl in
      List.iter Counters.reset [ ca; cb; cc ];
      let pa = ("party-a", ca) and pb = ("party-b", cb) and pc = ("client", cc) in
      let phase parties name f = Live.phase env parties name f in
      let audit party ph label v = Obs.audit obs ~party ~phase:ph ~label v in
      let send sender receiver label bytes = Live.send env ~sender ~receiver ~label ~bytes in
      let returned, encrypt, distances =
        match d.state with
        | Plain_state ->
          ( Party_a.permuted_packed d.a,
            Client.encrypt_query,
            Party_a.compute_distances ~obs d.a )
        | Prepared_state p ->
          ( Party_a.permuted_packed_prepared p,
            Client.encrypt_query_ip,
            Party_a.compute_distances_prepared ~obs d.a p )
        | Packed_state p ->
          ( Party_a.permuted_return_packed p,
            Client.encrypt_query_packed,
            Party_a.compute_distances_packed ~obs d.a p )
      in
      let q = phase [ pc ] "encrypt-query" (fun () -> encrypt d.cl rng query) in
      (* The packed query's layout shows the client the stride g. *)
      (match d.state with
       | Packed_state _ ->
         audit "client" "encrypt-query" "distance-stride" (Audit.Int d.cl.Client.stride)
       | Plain_state | Prepared_state _ -> ());
      let cts = query_cts q in
      send Transcript.Client Transcript.Party_a "encrypted query" (cts_bytes cts);
      audit "party-a" "compute-distances" "query-ciphertexts" (Audit.Int (Array.length cts));
      audit "party-a" "compute-distances" "query-bytes" (Audit.Int (cts_bytes cts));
      let state, masked = phase [ pa ] "compute-distances" (fun () -> distances rng q) in
      sample_cts obs ~name:"masked-distance" masked;
      send Transcript.Party_a Transcript.Party_b "masked permuted distances" (cts_bytes masked);
      let view =
        phase [ pb ] "find-neighbours" (fun () ->
            match d.state with
            | Plain_state | Prepared_state _ -> Party_b.select_neighbours ~obs d.b masked ~k
            | Packed_state _ -> Party_b.select_neighbours_packed ~obs d.b masked ~n:d.db_n ~k)
      in
      audit "party-b" "find-neighbours" "n" (Audit.Int d.db_n);
      audit "party-b" "find-neighbours" "k" (Audit.Int k);
      (* The slot return shows B the block width d' its indicators cover. *)
      Option.iter
        (fun w -> audit "party-b" "find-neighbours" "return-block-width" (Audit.Int w))
        view.Party_b.block_width;
      audit "party-b" "find-neighbours" "masked-distance-multiset"
        (Audit.Int64s (Leakage.view_multiset view));
      audit "party-b" "find-neighbours" "equidistant-group-sizes"
        (Audit.Ints (Leakage.equidistant_group_sizes view));
      (* Return kNN: each party's work in its own child span. *)
      let indicators = ref 0 and indicator_bytes = ref 0 in
      let results =
        phase [ pa; pb ] "return-knn" (fun () ->
            let packed =
              Obs.with_span obs ~counters:[ pa ] "return-points" (fun () -> returned state)
            in
            Array.init k (fun j ->
                let args = [ ("j", string_of_int j) ] in
                let row =
                  Obs.with_span obs ~counters:[ pb ] ~args "indicator-row" (fun () ->
                      Party_b.indicator_row ~obs d.b rng view ~n:d.db_n ~j)
                in
                let bytes = cts_bytes row in
                indicators := !indicators + Array.length row;
                indicator_bytes := !indicator_bytes + bytes;
                send Transcript.Party_b Transcript.Party_a
                  (Printf.sprintf "indicator vector B^%d" (j + 1))
                  bytes;
                Obs.with_span obs ~counters:[ pa ] ~args "select-row" (fun () ->
                    Party_a.select_row ~obs d.a packed row)))
      in
      let result_cts = Array.map result_ct results in
      sample_cts obs ~name:"result" result_cts;
      audit "party-a" "return-knn" "indicator-ciphertexts" (Audit.Int !indicators);
      audit "party-a" "return-knn" "indicator-bytes" (Audit.Int !indicator_bytes);
      send Transcript.Party_a Transcript.Client "encrypted k-NN result" (cts_bytes result_cts);
      let neighbours =
        phase [ pc ] "decrypt-result" (fun () ->
            Client.decrypt_points ~obs d.cl ~d:d.db_d results)
      in
      audit "client" "decrypt-result" "neighbour-count" (Audit.Int k);
      { neighbours; view }
  end
end

(* ------------------------------------------------------------------ *)
(* The live backend: Bgv + Plaintext, recording into the cost ledger   *)
(* ------------------------------------------------------------------ *)

module Live = struct
  type params = Params.t
  type secret_key = Bgv.secret_key
  type relin_key = Bgv.relin_key
  type keys = Bgv.keys
  type ct = Bgv.ct
  type pt = Plaintext.t
  type ept = Bgv.embedded

  type env = {
    obs : Obs.t;
    tr : Transcript.t;
    clock : Clock.cursor option;
    mutable phases : (string * float) list;
  }

  let t_plain p = p.Params.t_plain
  let ring_degree p = p.Params.n
  let noise_params (p : Params.t) =
    NM.make ~n:p.Params.n ~t_plain:p.Params.t_plain ~moduli:p.Params.moduli ~eta:p.Params.eta

  let keygen rng p = Bgv.keygen rng p
  let secret_key k = k.Bgv.sk
  let relin_key k = k.Bgv.rlk

  let encrypt ~counters ?level rng sk pt =
    let seed = Rng.public_seed rng in
    Bgv.encrypt_sk ~counters ?level ~seed rng sk pt

  let expand ~counters ct = Bgv.expand ~counters ct
  let decrypt ~counters sk ct = Bgv.decrypt ~counters sk ct
  let decrypt_coeff0 ~counters sk ct = Bgv.decrypt_coeff0 ~counters sk ct
  let pt_coeffs p f = Plaintext.of_coeffs p (Array.init p.Params.n f)
  let pt_const = Plaintext.constant
  let pack ~counters p f = Plaintext.of_slots ~counters p (Array.init p.Params.n f)
  let unpack ~counters pt ~len = Array.sub (Plaintext.to_slots ~counters pt) 0 len
  let coeffs pt ~len = Array.sub (Plaintext.to_coeffs pt) 0 len
  let add ~counters a b = Bgv.add ~counters a b
  let sub ~counters a b = Bgv.sub ~counters a b
  let add_plain ~counters ct pt = Bgv.add_plain ~counters ct pt
  let embed ~counters p ~level pt = Bgv.embed ~counters p ~level pt
  let mul_plain ~counters ct e = Bgv.mul_embedded ~counters ct e
  let mul_scalar ~counters ct v = Bgv.mul_scalar ~counters ct v
  let mul ~counters ?rlk ?rescale a b = Bgv.mul ~counters ?rlk ?rescale a b
  let mul_sum ~counters ?jobs ?rlk a b = Bgv.mul_sum ~counters ?jobs ?rlk a b
  let truncate ~counters ct lvl = Bgv.truncate_to_level ~counters ct lvl
  let rescale_to_floor ~counters ct = Bgv.rescale_to_floor ~counters ct
  let eval_poly ~counters ?rlk ~coeffs ct = Bgv.eval_poly ~counters ?rlk ~coeffs ct
  let level = Bgv.level
  let noise_bits = Bgv.noise_bits
  let noise_budget_bits = Bgv.noise_budget_bits
  let byte_size = Bgv.byte_size
  let relin_key_bytes = Bgv.relin_key_bytes

  let env ?(obs = Obs.disabled) ?net () =
    { obs; tr = Transcript.create (); clock = Option.map Clock.cursor net; phases = [] }

  let transcript env = env.tr
  let phase_seconds env = List.rev env.phases

  (* A phase span carries its party's counter deltas, which the chrome
     sink turns into per-party lanes; a phase shared by two parties
     leaves the counters to its one-party child spans. *)
  let phase env parties name f =
    let counters = match parties with [ _ ] -> parties | _ -> [] in
    let args =
      match parties with
      | [] -> []
      | ps -> [ ("party", String.concat "+" (List.map fst ps)) ]
    in
    Obs.with_span env.obs ~kind:Trace.Phase ~counters ~args name (fun () ->
        let x, dt = Util.Timer.time f in
        env.phases <- (name, dt) :: env.phases;
        Obs.observe_phase env.obs name dt;
        x)

  (* Record a transcript entry and mirror it into the flight recorder, so
     a post-mortem dump shows the link traffic leading up to a failure.
     With a clock cursor (a --net run) the flight event also carries the
     message's transcript seq and virtual arrival time; stepping the
     cursor in send order reproduces Clock.replay of the final transcript
     exactly. *)
  let send env ~sender ~receiver ~label ~bytes =
    Transcript.send env.tr ~sender ~receiver ~label ~bytes;
    let sender_n = Transcript.party_name sender in
    let receiver_n = Transcript.party_name receiver in
    match env.clock with
    | None -> Obs.record_send env.obs ~sender:sender_n ~receiver:receiver_n ~bytes ()
    | Some c ->
      let _departure, arrival = Clock.step c ~sender ~receiver ~bytes in
      Obs.record_send env.obs
        ~seq:(Transcript.messages env.tr - 1)
        ~arrival_s:arrival ~sender:sender_n ~receiver:receiver_n ~bytes ()
end

include Make (Live)
