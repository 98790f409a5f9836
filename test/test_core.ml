(* Tests for the secure k-NN protocol itself: masking soundness, config
   validation, end-to-end exactness in both layouts, the paper's leakage
   profile, and the Table 1 cost model. *)

module Rng = Util.Rng
module CM = Sknn_obs.Cost_model

(* ------------------------------------------------------------------ *)
(* Masking                                                             *)
(* ------------------------------------------------------------------ *)

let t50 = 1125899906842597L (* a ~2^50 prime *)

let test_masking_envelope () =
  (* Paper-style setting: ~2^40 plaintext space, 16-bit distances. *)
  let c = Masking.max_coeff_bits ~t_plain:1099511627689L ~input_bits:16 ~degree:2 in
  Alcotest.(check bool) "some budget at degree 2" true (c >= 1 && c <= 8);
  Alcotest.(check int) "degree 9 impossible (paper's example overflows)" 0
    (Masking.max_coeff_bits ~t_plain:1099511627689L ~input_bits:16 ~degree:9);
  let c1 = Masking.max_coeff_bits ~t_plain:t50 ~input_bits:21 ~degree:1 in
  Alcotest.(check bool) "affine budget generous" true (c1 >= 25)

let test_masking_draw_and_eval () =
  let rng = Rng.of_int 31 in
  let m = Masking.draw rng ~t_plain:t50 ~input_bits:16 ~degree:2 () in
  Alcotest.(check int) "degree" 2 (Masking.degree m);
  Array.iter
    (fun a -> Alcotest.(check bool) "coeff positive" true (Int64.compare a 0L > 0))
    (Masking.coeffs m);
  Alcotest.(check bool) "monotone" true (Masking.is_monotone_on m ~max_input:65535L);
  (* Exact vs modular evaluation agree inside the envelope. *)
  for _ = 1 to 200 do
    let x = Rng.int64_below rng 65536L in
    Alcotest.(check int64) "eval = eval_mod" (Masking.eval m x)
      (Masking.eval_mod m ~t_plain:t50 x)
  done

let test_masking_rejects_unsound () =
  let rng = Rng.of_int 37 in
  Alcotest.(check bool) "rejects impossible degree" true
    (try
       ignore (Masking.draw rng ~t_plain:1099511627689L ~input_bits:30 ~degree:5 ());
       false
     with Invalid_argument _ -> true)

let prop_masking_order_preserving =
  QCheck.Test.make ~count:200 ~name:"mask preserves strict order"
    QCheck.(triple (int_range 0 65535) (int_range 0 65535) (int_range 0 10000))
    (fun (x, y, seed) ->
      let rng = Rng.of_int seed in
      let m = Masking.draw rng ~t_plain:t50 ~input_bits:16 ~degree:2 () in
      let mx = Masking.eval m (Int64.of_int x) and my = Masking.eval m (Int64.of_int y) in
      compare x y = Int64.compare mx my)

let prop_masking_fresh_each_draw =
  QCheck.Test.make ~count:50 ~name:"distinct seeds give distinct masks"
    QCheck.(pair (int_range 0 100000) (int_range 100001 200000))
    (fun (s1, s2) ->
      let m1 = Masking.draw (Rng.of_int s1) ~t_plain:t50 ~input_bits:16 ~degree:2 () in
      let m2 = Masking.draw (Rng.of_int s2) ~t_plain:t50 ~input_bits:16 ~degree:2 () in
      Masking.coeffs m1 <> Masking.coeffs m2)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_presets_valid () =
  List.iter
    (fun (name, config) ->
      match Config.validate config ~d:10 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s invalid: %s" name e)
    [ ("standard", Config.standard ()); ("fast", Config.fast ()) ]

let test_config_envelope_rejection () =
  let config = Config.with_mask_degree 9 (Config.standard ()) in
  (match Config.validate config ~d:32 with
   | Ok () -> Alcotest.fail "degree-9 mask on 21-bit distances should be rejected"
   | Error _ -> ());
  let config = Config.with_mask_degree 2 (Config.fast ()) in
  (match Config.validate config ~d:4 with
   | Ok () -> Alcotest.fail "dot-product layout must force affine masks"
   | Error _ -> ())

let test_config_distance_bits () =
  let config = Config.standard () in
  (* 8-bit coords, d=2: max distance 2*255^2 = 130050 needs 17 bits. *)
  Alcotest.(check int) "distance bits" 17 (Config.max_distance_bits config ~d:2)

(* ------------------------------------------------------------------ *)
(* End-to-end protocol                                                 *)
(* ------------------------------------------------------------------ *)

let run_protocol ?(seed = 42) ?(k = 3) config db queries =
  let rng = Rng.of_int seed in
  let dep = Protocol.deploy ~rng config ~db in
  List.map
    (fun q ->
      let r = Protocol.query dep ~query:q ~k in
      (q, r, Protocol.exact dep ~db ~query:q r))
    queries

let small_db rng = Synthetic.uniform rng ~n:40 ~d:3 ~max_value:250

let test_exactness layout_name config () =
  let rng = Rng.of_int 101 in
  let db = small_db rng in
  let queries = List.init 4 (fun _ -> Synthetic.query_like rng db) in
  List.iteri
    (fun i (_, _, ok) ->
      Alcotest.(check bool) (Printf.sprintf "%s query %d exact" layout_name i) true ok)
    (run_protocol config db queries)

let test_k_edge_cases () =
  let rng = Rng.of_int 103 in
  let db = Synthetic.uniform rng ~n:12 ~d:2 ~max_value:100 in
  let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
  let q = Synthetic.query_like rng db in
  List.iter
    (fun k ->
      let r = Protocol.query dep ~query:q ~k in
      Alcotest.(check int) (Printf.sprintf "k=%d count" k) k (Array.length r.Protocol.neighbours);
      Alcotest.(check bool) (Printf.sprintf "k=%d exact" k) true
        (Protocol.exact dep ~db ~query:q r))
    [ 1; 2; 11; 12 ];
  Alcotest.check_raises "k=0" (Invalid_argument "Protocol.query: k out of range")
    (fun () -> ignore (Protocol.query dep ~query:q ~k:0));
  Alcotest.check_raises "k>n" (Invalid_argument "Protocol.query: k out of range")
    (fun () -> ignore (Protocol.query dep ~query:q ~k:13))

let test_duplicates_and_ties () =
  (* Duplicate points and equidistant points: the distance multiset must
     still be exact. *)
  let db =
    [| [| 5; 5 |]; [| 5; 5 |]; [| 0; 0 |]; [| 10; 10 |]; [| 0; 10 |]; [| 10; 0 |];
       [| 5; 5 |]; [| 7; 7 |] |]
  in
  let dep = Protocol.deploy ~rng:(Rng.of_int 7) (Config.standard ()) ~db in
  let q = [| 5; 5 |] in
  List.iter
    (fun k ->
      let r = Protocol.query dep ~query:q ~k in
      Alcotest.(check bool) (Printf.sprintf "ties k=%d" k) true
        (Protocol.exact dep ~db ~query:q r))
    [ 1; 2; 3; 4; 5; 8 ]

let test_query_on_db_point () =
  let rng = Rng.of_int 107 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
  let q = Array.copy db.(17) in
  let r = Protocol.query dep ~query:q ~k:1 in
  Alcotest.(check bool) "self is nearest" true (Protocol.exact dep ~db ~query:q r);
  Alcotest.(check (array int)) "returns the point itself" db.(17) r.Protocol.neighbours.(0)

let test_dimension_1_and_high () =
  let rng = Rng.of_int 109 in
  List.iter
    (fun d ->
      let db = Synthetic.uniform rng ~n:20 ~d ~max_value:200 in
      let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
      let q = Synthetic.query_like rng db in
      let r = Protocol.query dep ~query:q ~k:3 in
      Alcotest.(check bool) (Printf.sprintf "d=%d exact" d) true
        (Protocol.exact dep ~db ~query:q r))
    [ 1; 2; 16; 32 ]

let test_uci_shaped_workload () =
  let rng = Rng.of_int 113 in
  let raw = Uci_like.cervical_cancer ~n:60 rng in
  let db = Preprocess.scale_to_max ~max_value:255 raw in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query dep ~query:q ~k:8 in
  Alcotest.(check bool) "cancer-shaped exact" true (Protocol.exact dep ~db ~query:q r)

let test_validation_errors () =
  let rng = Rng.of_int 127 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Protocol.query: dimension mismatch")
    (fun () -> ignore (Protocol.query dep ~query:[| 1; 2 |] ~k:1));
  Alcotest.(check bool) "out-of-range data rejected" true
    (try
       ignore (Protocol.deploy ~rng (Config.fast ()) ~db:[| [| 1; 99999 |] |]);
       false
     with Invalid_argument _ -> true)

let test_transcript_structure () =
  let rng = Rng.of_int 131 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query dep ~query:q ~k:4 in
  let tr = r.Protocol.transcript in
  (* The headline claim: ONE round of A<->B communication. *)
  Alcotest.(check int) "one A<->B round" 1
    (Transcript.rounds tr Transcript.Party_a Transcript.Party_b);
  Alcotest.(check bool) "A->B bytes positive" true
    (Transcript.bytes_between tr Transcript.Party_a Transcript.Party_b > 0);
  (* 1 query + 1 distance msg + k indicator rows + 1 result = k + 3. *)
  Alcotest.(check int) "message count" (4 + 3) (Transcript.messages tr);
  (* Setup transcript: the encrypted database to A, the secret key to B
     and to the client (no public key: every encryptor holds s). *)
  Alcotest.(check int) "setup messages" 3 (Transcript.messages (Protocol.setup_transcript dep))

let test_setup_relin_key () =
  (* Party A receives the relinearisation key exactly when it
     relinearises: a use_relin deployment's setup is the default one
     plus that one message, weighed as the symbolic backend weighs it. *)
  let module CM = Sknn_obs.Cost_model in
  let module S = CM.Symbolic in
  let db = small_db (Rng.of_int 133) in
  let n = Array.length db and d = Array.length db.(0) in
  let setup config =
    let dep = Protocol.deploy ~rng:(Rng.of_int 134) config ~db in
    List.map
      (fun (e : Transcript.entry) ->
        (e.Transcript.sender, e.Transcript.receiver, e.Transcript.label, e.Transcript.bytes))
      (Transcript.entries (Protocol.setup_transcript dep))
  in
  let base = Config.standard () in
  let relin = Config.with_relin true base in
  let without = setup base and with_rlk = setup relin in
  let labels = List.map (fun (_, _, l, _) -> l) in
  Alcotest.(check (list string)) "no key without relin"
    [ "encrypted database"; "secret key"; "secret key" ] (labels without);
  Alcotest.(check (list string)) "key to A with relin"
    [ "encrypted database"; "relinearisation key"; "secret key"; "secret key" ]
    (labels with_rlk);
  Alcotest.(check bool) "every other message unchanged" true
    (List.filter (fun (_, _, l, _) -> l <> "relinearisation key") with_rlk = without);
  let p = Attribution.model_params relin ~n ~d ~k:1 in
  let expected = S.relin_key_bytes (S.relin_key (S.keygen (Rng.of_int 135) (S.start p))) in
  let bgv = relin.Config.bgv in
  Alcotest.(check int) "symbolic size: two full-chain polynomials a gadget row"
    (40 + (p.CM.relin_rows * 2 * Params.chain_length bgv * bgv.Params.n * 4))
    expected;
  let sender, receiver, _, bytes =
    List.find (fun (_, _, l, _) -> l = "relinearisation key") with_rlk
  in
  Alcotest.(check bool) "owner to Party A" true
    (sender = Transcript.Data_owner && receiver = Transcript.Party_a);
  Alcotest.(check int) "live size = symbolic size" expected bytes

let test_phase_times_present () =
  let rng = Rng.of_int 137 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
  let r = Protocol.query dep ~query:(Synthetic.query_like rng db) ~k:2 in
  let names = List.map fst r.Protocol.phase_seconds in
  Alcotest.(check (list string)) "phases"
    [ "encrypt-query"; "compute-distances"; "find-neighbours"; "return-knn"; "decrypt-result" ]
    names;
  Alcotest.(check bool) "total positive" true (Protocol.total_seconds r > 0.0)

let test_deterministic_given_seed () =
  let db = small_db (Rng.of_int 139) in
  let q = [| 10; 20; 30 |] in
  let run () =
    let dep = Protocol.deploy ~rng:(Rng.of_int 999) (Config.fast ()) ~db in
    let r = Protocol.query ~rng:(Rng.of_int 1000) dep ~query:q ~k:3 in
    (r.Protocol.neighbours, r.Protocol.view_b.Entities.Party_b.masked_distances)
  in
  let n1, v1 = run () and n2, v2 = run () in
  Alcotest.(check bool) "same neighbours" true (n1 = n2);
  Alcotest.(check bool) "same view" true (v1 = v2)

let test_jobs_determinism () =
  (* The parallel phases must be a pure scheduling change: the protocol
     run at 1 domain and at 4 domains returns identical neighbours,
     moves identical bytes, and records identical operation counts. *)
  let db = small_db (Rng.of_int 141) in
  let q = [| 10; 20; 30 |] in
  let run jobs config =
    let dep = Protocol.deploy ~rng:(Rng.of_int 999) ~jobs config ~db in
    Protocol.query ~rng:(Rng.of_int 1000) dep ~query:q ~k:3
  in
  let counters_s c = Format.asprintf "%a" Util.Counters.pp c in
  List.iter
    (fun (name, config) ->
      let r1 = run 1 config and r4 = run 4 config in
      Alcotest.(check bool) (name ^ ": same neighbours") true
        (r1.Protocol.neighbours = r4.Protocol.neighbours);
      Alcotest.(check bool) (name ^ ": same view") true
        (r1.Protocol.view_b = r4.Protocol.view_b);
      Alcotest.(check int) (name ^ ": same message count")
        (Transcript.messages r1.Protocol.transcript)
        (Transcript.messages r4.Protocol.transcript);
      Alcotest.(check int) (name ^ ": same transcript bytes")
        (Transcript.total_bytes r1.Protocol.transcript)
        (Transcript.total_bytes r4.Protocol.transcript);
      Alcotest.(check string) (name ^ ": party A counters")
        (counters_s r1.Protocol.counters_a) (counters_s r4.Protocol.counters_a);
      Alcotest.(check string) (name ^ ": party B counters")
        (counters_s r1.Protocol.counters_b) (counters_s r4.Protocol.counters_b);
      Alcotest.(check string) (name ^ ": client counters")
        (counters_s r1.Protocol.counters_client) (counters_s r4.Protocol.counters_client))
    [ ("dot-product", Config.fast ()); ("per-coordinate", Config.standard ()) ]

(* ------------------------------------------------------------------ *)
(* Prepared multi-query path                                           *)
(* ------------------------------------------------------------------ *)

(* The per-coordinate preset with the affine mask the prepared path
   requires; coordinates and dimensions in these tests stay within the
   degree-1 masking envelope. *)
let affine_config () = Config.with_mask_degree 1 (Config.standard ())

let has_phase name r = List.mem_assoc name r.Protocol.phase_seconds

let test_prepared_exactness () =
  let rng = Rng.of_int 167 in
  let db = small_db rng in
  List.iter
    (fun (name, config) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 168) ~path:CM.Prepared config ~db in
      let queries = Array.init 3 (fun _ -> Synthetic.query_like rng db) in
      Array.iteri
        (fun i q ->
          let r = Protocol.query dep ~query:q ~k:4 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: query %d exact" name i)
            true
            (Protocol.exact dep ~db ~query:q r);
          (* The deployment prepared the database; no query does. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s: query %d prepare-db phase" name i)
            false (has_phase "prepare-db" r))
        queries)
    [ ("per-coordinate+affine", affine_config ()); ("dot-product", Config.fast ()) ]

let test_prepared_matches_unprepared () =
  (* The prepared path changes the computation plan, not the answer:
     against the same deployment both paths return the same neighbour
     set. *)
  let rng = Rng.of_int 169 in
  let db = small_db rng in
  let q = Synthetic.query_like rng db in
  let deploy path = Protocol.deploy ~rng:(Rng.of_int 170) ~path (affine_config ()) ~db in
  let r_plain = Protocol.query ~rng:(Rng.of_int 171) (deploy CM.Plain) ~query:q ~k:5 in
  let r_prep = Protocol.query ~rng:(Rng.of_int 172) (deploy CM.Prepared) ~query:q ~k:5 in
  let sorted r =
    let a = Array.map (Distance.squared_euclidean q) r.Protocol.neighbours in
    Array.sort compare a;
    a
  in
  Alcotest.(check (array int)) "same neighbour distances" (sorted r_plain)
    (sorted r_prep);
  (* Two ciphertexts instead of d: the prepared query message is
     strictly smaller for d > 2. *)
  let q_bytes r =
    List.assoc "encrypted query"
      (List.filter_map
         (fun (e : Transcript.entry) -> Some (e.Transcript.label, e.Transcript.bytes))
         (Transcript.entries r.Protocol.transcript))
  in
  Alcotest.(check bool) "smaller query message" true
    (q_bytes r_prep < q_bytes r_plain)

let test_prepared_jobs_determinism () =
  (* Same scheduling-transparency contract as the unprepared path:
     identical neighbours, views, transcripts and counters for every
     job count. *)
  let db = small_db (Rng.of_int 173) in
  let q = [| 10; 20; 30 |] in
  let run jobs config =
    let dep = Protocol.deploy ~rng:(Rng.of_int 999) ~jobs ~path:CM.Prepared config ~db in
    Protocol.query ~rng:(Rng.of_int 1000) dep ~query:q ~k:3
  in
  let counters_s c = Format.asprintf "%a" Util.Counters.pp c in
  List.iter
    (fun (name, config) ->
      let r1 = run 1 config and r2 = run 2 config and r4 = run 4 config in
      List.iter
        (fun (jn, r) ->
          Alcotest.(check bool) (name ^ ": neighbours jobs 1=" ^ jn) true
            (r1.Protocol.neighbours = r.Protocol.neighbours);
          Alcotest.(check bool) (name ^ ": view jobs 1=" ^ jn) true
            (r1.Protocol.view_b = r.Protocol.view_b);
          Alcotest.(check int) (name ^ ": transcript bytes jobs 1=" ^ jn)
            (Transcript.total_bytes r1.Protocol.transcript)
            (Transcript.total_bytes r.Protocol.transcript);
          Alcotest.(check string) (name ^ ": party A counters jobs 1=" ^ jn)
            (counters_s r1.Protocol.counters_a) (counters_s r.Protocol.counters_a);
          Alcotest.(check string) (name ^ ": party B counters jobs 1=" ^ jn)
            (counters_s r1.Protocol.counters_b) (counters_s r.Protocol.counters_b))
        [ ("2", r2); ("4", r4) ])
    [ ("dot-product", Config.fast ()); ("per-coordinate+affine", affine_config ()) ]

let test_prepared_rejects_nonaffine () =
  (* Config.standard masks with degree 2; the inner-product trick leaves
     cross terms that only an affine mask keeps sound, so a prepared
     deployment must refuse. *)
  let rng = Rng.of_int 179 in
  let db = small_db rng in
  Alcotest.check_raises "degree-2 mask rejected"
    (Invalid_argument "Party_a.prepare: prepared queries need affine (degree-1) masking")
    (fun () -> ignore (Protocol.deploy ~rng ~path:CM.Prepared (Config.standard ()) ~db))

(* ------------------------------------------------------------------ *)
(* Slot-packed (SIMD) path                                             *)
(* ------------------------------------------------------------------ *)

let sorted_dists q r =
  let a = Array.map (Distance.squared_euclidean q) r.Protocol.neighbours in
  Array.sort compare a;
  a

let test_packed_exactness () =
  let rng = Rng.of_int 401 in
  let db = small_db rng in
  List.iter
    (fun (name, config) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 402) ~path:CM.Packed config ~db in
      let queries = Array.init 3 (fun _ -> Synthetic.query_like rng db) in
      Array.iteri
        (fun i q ->
          let r = Protocol.query dep ~query:q ~k:4 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: query %d exact" name i)
            true
            (Protocol.exact dep ~db ~query:q r);
          (* The deployment packed the database; no query does. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s: query %d prepare-db phase" name i)
            false (has_phase "prepare-db" r))
        queries)
    [ ("per-coordinate+affine", affine_config ()); ("dot-product", Config.fast ()) ]

let test_packed_matches_unpacked () =
  (* The packed path changes the ciphertext layout, not the answer:
     under the same keys, the plain, prepared and packed paths return
     the same neighbour set — and Party B sees the same equidistant
     structure (one value per point, never per ciphertext). *)
  let rng = Rng.of_int 403 in
  let db = small_db rng in
  let q = Synthetic.query_like rng db in
  let run path seed =
    let dep = Protocol.deploy ~rng:(Rng.of_int 404) ~path (affine_config ()) ~db in
    Protocol.query ~rng:(Rng.of_int seed) dep ~query:q ~k:5
  in
  let r_plain = run CM.Plain 405 in
  let r_prep = run CM.Prepared 406 in
  let r_packed = run CM.Packed 407 in
  Alcotest.(check (array int)) "packed = plain neighbour distances"
    (sorted_dists q r_plain) (sorted_dists q r_packed);
  Alcotest.(check (array int)) "packed = prepared neighbour distances"
    (sorted_dists q r_prep) (sorted_dists q r_packed);
  Alcotest.(check (array int)) "same equidistant groups as plain path"
    (Leakage.equidistant_group_sizes r_plain.Protocol.view_b)
    (Leakage.equidistant_group_sizes r_packed.Protocol.view_b);
  (* n masked distances, not ⌈n/N⌉ per-ciphertext aggregates. *)
  Alcotest.(check int) "view has one masked distance per point"
    (Array.length db)
    (Array.length (Leakage.view_multiset r_packed.Protocol.view_b))

let test_packed_batch_shapes () =
  (* Exactness across batch geometries: a single ragged batch
     (n < slots), an exact multiple of the slot count, and a multi-batch
     ragged tail (n mod slots ≠ 0), at several dimensions d > 1. *)
  let slots = Params.slot_count (Config.fast ()).Config.bgv in
  List.iter
    (fun (n, d) ->
      let rng = Rng.of_int (409 + n + d) in
      let db = Synthetic.uniform rng ~n ~d ~max_value:250 in
      let deploy path = Protocol.deploy ~rng:(Rng.of_int 410) ~path (Config.fast ()) ~db in
      let dep = deploy CM.Packed in
      let q = Synthetic.query_like rng db in
      let r = Protocol.query ~rng:(Rng.of_int 411) dep ~query:q ~k:4 in
      let label = Printf.sprintf "n=%d d=%d" n d in
      Alcotest.(check bool) (label ^ " exact") true
        (Protocol.exact dep ~db ~query:q r);
      let r_plain = Protocol.query ~rng:(Rng.of_int 412) (deploy CM.Plain) ~query:q ~k:4 in
      Alcotest.(check (array int)) (label ^ " matches plain path")
        (sorted_dists q r_plain) (sorted_dists q r))
    [ (40, 3); (slots, 2); ((2 * slots) + 2, 5) ]

let test_packed_jobs_determinism () =
  (* Same scheduling-transparency contract as the other paths: identical
     neighbours, views, transcripts and counters for every job count. *)
  let db = small_db (Rng.of_int 413) in
  let q = [| 10; 20; 30 |] in
  let run jobs config =
    let dep = Protocol.deploy ~rng:(Rng.of_int 999) ~jobs ~path:CM.Packed config ~db in
    Protocol.query ~rng:(Rng.of_int 1000) dep ~query:q ~k:3
  in
  let counters_s c = Format.asprintf "%a" Util.Counters.pp c in
  List.iter
    (fun (name, config) ->
      let r1 = run 1 config and r2 = run 2 config and r4 = run 4 config in
      List.iter
        (fun (jn, r) ->
          Alcotest.(check bool) (name ^ ": neighbours jobs 1=" ^ jn) true
            (r1.Protocol.neighbours = r.Protocol.neighbours);
          Alcotest.(check bool) (name ^ ": view jobs 1=" ^ jn) true
            (r1.Protocol.view_b = r.Protocol.view_b);
          Alcotest.(check int) (name ^ ": transcript bytes jobs 1=" ^ jn)
            (Transcript.total_bytes r1.Protocol.transcript)
            (Transcript.total_bytes r.Protocol.transcript);
          Alcotest.(check string) (name ^ ": party A counters jobs 1=" ^ jn)
            (counters_s r1.Protocol.counters_a) (counters_s r.Protocol.counters_a);
          Alcotest.(check string) (name ^ ": party B counters jobs 1=" ^ jn)
            (counters_s r1.Protocol.counters_b) (counters_s r.Protocol.counters_b))
        [ ("2", r2); ("4", r4) ])
    [ ("dot-product", Config.fast ()); ("per-coordinate+affine", affine_config ()) ]

let test_packed_rejects_nonaffine () =
  (* Slot-wise masking is one plain product + one plain add per batch —
     only sound for an affine (degree-1) polynomial, so a packed
     deployment must refuse a degree-2 config just as a prepared one
     does. *)
  let rng = Rng.of_int 419 in
  let db = small_db rng in
  Alcotest.check_raises "degree-2 mask rejected"
    (Invalid_argument "Party_a.prepare_packed: packed queries need affine (degree-1) masking")
    (fun () -> ignore (Protocol.deploy ~rng ~path:CM.Packed (Config.standard ()) ~db))

let test_packed_leakage_groups () =
  (* Regression for the equidistant-group accounting: the tie database
     occupies 6 points of one 64-coefficient ciphertext, so Party B's
     Leakage extraction must run on the 6 per-point distances — never on
     a per-ciphertext aggregate, and never on the randomized coefficients
     around them or the dead points of the ragged tail. *)
  let tie_dep ?path rng_seed =
    Protocol.deploy ~rng:(Rng.of_int rng_seed) ?path (affine_config ())
      ~db:[| [| 0; 0 |]; [| 0; 4 |]; [| 4; 0 |]; [| 4; 4 |]; [| 9; 9 |]; [| 2; 1 |] |]
  in
  let q = [| 2; 2 |] in
  let r_packed = Protocol.query (tie_dep ~path:CM.Packed 425) ~query:q ~k:2 in
  Alcotest.(check (array int)) "group of four equidistant points" [| 4 |]
    (Leakage.equidistant_group_sizes r_packed.Protocol.view_b);
  Alcotest.(check int) "pairs" 6 (Leakage.equidistant_pairs r_packed.Protocol.view_b);
  Alcotest.(check int) "view sees n distances, not ciphertext aggregates" 6
    (Array.length (Leakage.view_multiset r_packed.Protocol.view_b));
  let r_plain = Protocol.query (tie_dep 426) ~query:q ~k:2 in
  Alcotest.(check (array int)) "identical group sizes to unpacked run"
    (Leakage.equidistant_group_sizes r_plain.Protocol.view_b)
    (Leakage.equidistant_group_sizes r_packed.Protocol.view_b)

let test_packed_audit_surface () =
  (* §5 leakage surface through the audit channel: the packed path
     records the unpacked paths' Party B labels plus the slot return's
     block width d' (lockstep with sknn-lint.conf). *)
  let module Audit = Sknn_obs.Audit in
  let rng = Rng.of_int 427 in
  let db = Synthetic.uniform rng ~n:20 ~d:3 ~max_value:100 in
  let audit = Audit.create () in
  let obs = Sknn_obs.Ctx.create ~audit () in
  let dep = Protocol.deploy ~obs ~rng ~path:CM.Packed (affine_config ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query ~obs dep ~query:q ~k:4 in
  Alcotest.(check (list string)) "party-b leakage surface adds the block width"
    [ "equidistant-group-sizes"; "k"; "masked-distance-multiset"; "n"; "return-block-width" ]
    (Audit.labels_for audit ~party:"party-b");
  (match Audit.value_of audit ~party:"party-b" ~label:"return-block-width" with
   | Some (Audit.Int w) -> Alcotest.(check int) "d' = 4 for d = 3" 4 w
   | _ -> Alcotest.fail "return-block-width not recorded as Int");
  (match Audit.value_of audit ~party:"party-b" ~label:"masked-distance-multiset" with
   | Some (Audit.Int64s a) ->
     Alcotest.(check (array int64)) "multiset matches view"
       (Leakage.view_multiset r.Protocol.view_b) a;
     Alcotest.(check int) "multiset has one entry per point" 20 (Array.length a)
   | _ -> Alcotest.fail "multiset not recorded as Int64s");
  (match Audit.value_of audit ~party:"party-b" ~label:"equidistant-group-sizes" with
   | Some (Audit.Ints a) ->
     Alcotest.(check (array int)) "groups match view"
       (Leakage.equidistant_group_sizes r.Protocol.view_b) a
   | _ -> Alcotest.fail "groups not recorded as Ints");
  (* Owner-delegated mode: Party A's plaintext access is declared, n·d
     coordinates (lockstep with sknn-lint.conf). *)
  match Audit.value_of audit ~party:"party-a" ~label:"plaintext-database" with
  | Some (Audit.Int nd) -> Alcotest.(check int) "plaintext database = n x d" (20 * 3) nd
  | _ -> Alcotest.fail "plaintext-database not audited for party-a"

(* ------------------------------------------------------------------ *)
(* Deploy builds one path                                              *)
(* ------------------------------------------------------------------ *)

let setup_entries dep =
  List.map
    (fun (e : Transcript.entry) ->
      (e.Transcript.sender, e.Transcript.receiver, e.Transcript.label, e.Transcript.bytes))
    (Transcript.entries (Protocol.setup_transcript dep))

let test_deploy_setup_transcripts () =
  (* Plain and prepared deployments ship the same setup; a packed one
     ships the keys alone, since its circuit reads no encrypted
     database. *)
  let db = small_db (Rng.of_int 431) in
  List.iter
    (fun (name, config) ->
      let setup path = setup_entries (Protocol.deploy ~rng:(Rng.of_int 432) ~path config ~db) in
      let plain = setup CM.Plain and packed = setup CM.Packed in
      Alcotest.(check bool) (name ^ ": prepared setup = plain setup") true
        (setup CM.Prepared = plain);
      Alcotest.(check (list string)) (name ^ ": packed setup is the keys")
        ((if config.Config.use_relin then [ "relinearisation key" ] else [])
         @ [ "secret key"; "secret key" ])
        (List.map (fun (_, _, l, _) -> l) packed);
      Alcotest.(check bool) (name ^ ": the same keys as plain") true
        (packed = List.filter (fun (_, _, l, _) -> l <> "encrypted database") plain))
    [ ("affine", affine_config ()); ("affine+relin", Config.with_relin true (affine_config ())) ]

let test_deploy_prepares_once () =
  (* Setup builds the path's state as a prepare-db span, guarded and
     audited first; no query on any path prepares anything. *)
  let module Audit = Sknn_obs.Audit in
  let module Trace = Sknn_obs.Trace in
  let db = small_db (Rng.of_int 433) in
  List.iter
    (fun path ->
      let name = Planner.path_name path in
      let audit = Audit.create () and trace = Trace.create () in
      let obs = Sknn_obs.Ctx.create ~audit ~trace () in
      let dep = Protocol.deploy ~obs ~rng:(Rng.of_int 434) ~path (affine_config ()) ~db in
      let prepares = path <> CM.Plain in
      let audited label = Audit.value_of audit ~party:"party-a" ~label <> None in
      Alcotest.(check bool) (name ^ ": prepare-db phase at deploy") prepares
        (List.mem_assoc "prepare-db" (Protocol.setup_phase_seconds dep));
      Alcotest.(check bool) (name ^ ": prepare-db span") prepares
        (List.exists (fun (sp : Trace.span) -> sp.Trace.name = "prepare-db") (Trace.roots trace));
      Alcotest.(check bool) (name ^ ": noise guard audited") prepares
        (audited "noise-min-headroom-bits");
      Alcotest.(check bool) (name ^ ": plaintext database audited") (path = CM.Packed)
        (audited "plaintext-database");
      for i = 0 to 1 do
        let q = Synthetic.query_like (Rng.of_int (435 + i)) db in
        Alcotest.(check bool)
          (Printf.sprintf "%s: query %d records no prepare-db" name i)
          false
          (has_phase "prepare-db" (Protocol.query ~obs dep ~query:q ~k:3))
      done)
    [ CM.Plain; CM.Prepared; CM.Packed ]

let test_deploy_perfbench_shim () =
  (* perfbench deploys without a path and switches to packed with
     Protocol.prepare_packed; its queries must be a packed deployment's,
     bit for bit, while its setup keeps the encrypted database. *)
  let db = small_db (Rng.of_int 437) in
  let q = Synthetic.query_like (Rng.of_int 438) db in
  let deploy ?path () = Protocol.deploy ~rng:(Rng.of_int 439) ?path (affine_config ()) ~db in
  let shim = deploy () in
  Protocol.prepare_packed shim;
  Protocol.prepare_packed shim;
  Alcotest.(check bool) "switched to packed" true (Protocol.path shim = CM.Packed);
  Alcotest.(check bool) "setup keeps the encrypted database" true
    (setup_entries shim = setup_entries (deploy ()));
  let packed = deploy ~path:CM.Packed () in
  let run dep = Protocol.query ~rng:(Rng.of_int 440) dep ~query:q ~k:3 in
  let fingerprint (r : Protocol.result) =
    Marshal.to_string
      ( (r.Protocol.neighbours, r.Protocol.view_b),
        Transcript.entries r.Protocol.transcript,
        Format.asprintf "%a|%a|%a" Util.Counters.pp r.Protocol.counters_a Util.Counters.pp
          r.Protocol.counters_b Util.Counters.pp r.Protocol.counters_client )
      []
  in
  Alcotest.(check string) "query_packed on the shim = query on a packed deployment"
    (fingerprint (run packed))
    (fingerprint (Protocol.query_packed ~rng:(Rng.of_int 440) shim ~query:q ~k:3))

(* ------------------------------------------------------------------ *)
(* Leakage profile (Theorems 4.1 / 4.2)                                *)
(* ------------------------------------------------------------------ *)

let tie_db =
  [| [| 0; 0 |]; [| 0; 4 |]; [| 4; 0 |]; [| 4; 4 |]; [| 9; 9 |]; [| 2; 1 |] |]

let test_leakage_order_preserved () =
  let rng = Rng.of_int 149 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query dep ~query:q ~k:3 in
  let true_dists = Plain_knn.distances ~query:q db in
  Alcotest.(check bool) "masked view order-isomorphic to true distances" true
    (Leakage.recovers_true_order r.Protocol.view_b true_dists);
  Alcotest.(check bool) "mask hides raw values" true
    (Leakage.mask_hides_values r.Protocol.view_b true_dists)

let test_leakage_equidistant_groups () =
  (* Query at the centre of a square: 4 equidistant points, visible to B
     as one group of 4 — the leakage Theorem 4.2 admits. *)
  let dep = Protocol.deploy ~rng:(Rng.of_int 151) (Config.standard ()) ~db:tie_db in
  let q = [| 2; 2 |] in
  let r = Protocol.query dep ~query:q ~k:2 in
  Alcotest.(check (array int)) "group of four equidistant points" [| 4 |]
    (Leakage.equidistant_group_sizes r.Protocol.view_b);
  Alcotest.(check int) "pairs" 6 (Leakage.equidistant_pairs r.Protocol.view_b)

let test_leakage_view_database_independent () =
  (* Two different databases with identical distance multisets for their
     queries must give Party B views with identical *shape* (sorted rank
     pattern), demonstrating the view depends only on the multiset.
     Masked values differ (fresh polynomial), which is the point. *)
  let db1 = [| [| 0; 0 |]; [| 3; 0 |]; [| 0; 4 |] |] in
  (* distances from (0,0): 0, 9, 16 *)
  let db2 = [| [| 10; 10 |]; [| 10; 13 |]; [| 14; 10 |] |] in
  (* distances from (10,10): 0, 9, 16 — same multiset *)
  let view db q =
    let dep = Protocol.deploy ~rng:(Rng.of_int 157) (Config.standard ()) ~db in
    let r = Protocol.query ~rng:(Rng.of_int 158) dep ~query:q ~k:1 in
    r.Protocol.view_b
  in
  let v1 = view db1 [| 0; 0 |] and v2 = view db2 [| 10; 10 |] in
  (* Same protocol randomness, same distance multiset => identical views:
     B cannot distinguish the two databases. *)
  Alcotest.(check (array int64)) "identical views" (Leakage.view_multiset v1)
    (Leakage.view_multiset v2)

let test_leakage_fresh_mask_across_queries () =
  (* The same query twice gives different masked values (search-pattern
     hiding): the polynomial and permutation are refreshed per query. *)
  let rng = Rng.of_int 163 in
  let db = small_db rng in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r1 = Protocol.query dep ~query:q ~k:2 in
  let r2 = Protocol.query dep ~query:q ~k:2 in
  Alcotest.(check bool) "different masked views for the same query" true
    (Leakage.view_multiset r1.Protocol.view_b <> Leakage.view_multiset r2.Protocol.view_b);
  Alcotest.(check bool) "both exact" true
    (Protocol.exact dep ~db ~query:q r1 && Protocol.exact dep ~db ~query:q r2)

let test_permutation_hides_indices () =
  (* The selected indices B reports live in permuted space; composing
     with A's secret permutation recovers the true indices (sanity check
     of the permutation plumbing via the exactness oracle instead of
     peeking — exactness over many seeds implies the mapping is right). *)
  let rng = Rng.of_int 167 in
  let db = Synthetic.uniform rng ~n:25 ~d:2 ~max_value:200 in
  for seed = 1 to 5 do
    let dep = Protocol.deploy ~rng:(Rng.of_int seed) (Config.fast ()) ~db in
    let q = Synthetic.query_like rng db in
    let r = Protocol.query dep ~query:q ~k:3 in
    Alcotest.(check bool) (Printf.sprintf "seed %d exact" seed) true
      (Protocol.exact dep ~db ~query:q r)
  done

let test_leakage_audit_channel () =
  (* Mechanical check of the §4/§5 leakage profile via the audit
     channel: Party B's recorded surface is exactly the admitted set
     (and matches the Leakage extraction of the actual view); Party A's
     entries are ciphertext counts and byte sizes only. *)
  let module Audit = Sknn_obs.Audit in
  let rng = Rng.of_int 171 in
  let db = Synthetic.uniform rng ~n:20 ~d:3 ~max_value:100 in
  let audit = Audit.create () in
  let obs = Sknn_obs.Ctx.create ~audit () in
  let dep = Protocol.deploy ~rng (Config.standard ()) ~db in
  let q = Synthetic.query_like rng db in
  let r = Protocol.query ~obs dep ~query:q ~k:4 in
  Alcotest.(check (list string)) "party-b leakage surface"
    [ "equidistant-group-sizes"; "k"; "masked-distance-multiset"; "n" ]
    (Audit.labels_for audit ~party:"party-b");
  (match Audit.value_of audit ~party:"party-b" ~label:"k" with
   | Some (Audit.Int k) -> Alcotest.(check int) "k" 4 k
   | _ -> Alcotest.fail "k not recorded as Int");
  (match Audit.value_of audit ~party:"party-b" ~label:"masked-distance-multiset" with
   | Some (Audit.Int64s a) ->
     Alcotest.(check (array int64)) "multiset matches view"
       (Leakage.view_multiset r.Protocol.view_b) a
   | _ -> Alcotest.fail "multiset not recorded as Int64s");
  (match Audit.value_of audit ~party:"party-b" ~label:"equidistant-group-sizes" with
   | Some (Audit.Ints a) ->
     Alcotest.(check (array int)) "groups match view"
       (Leakage.equidistant_group_sizes r.Protocol.view_b) a
   | _ -> Alcotest.fail "groups not recorded as Ints");
  let a_entries = Audit.for_party audit ~party:"party-a" in
  Alcotest.(check bool) "party-a observed" true (a_entries <> []);
  Alcotest.(check bool) "party-a never holds the plaintext database" false
    (List.mem "plaintext-database" (Audit.labels_for audit ~party:"party-a"));
  List.iter
    (fun (e : Audit.entry) ->
      match e.Audit.value with
      | Audit.Int _ -> ()
      | _ -> Alcotest.failf "party-a entry %S is not a scalar count/size" e.Audit.label)
    a_entries

(* ------------------------------------------------------------------ *)
(* Cost model (Table 1)                                                *)
(* ------------------------------------------------------------------ *)

let test_cost_measured_vs_predicted () =
  let rng = Rng.of_int 173 in
  let n = 30 and d = 4 and k = 5 in
  let db = Synthetic.uniform rng ~n ~d ~max_value:200 in
  let config = Config.standard () in
  let dep = Protocol.deploy ~rng config ~db in
  let r = Protocol.query dep ~query:(Synthetic.query_like rng db) ~k in
  let measured = Cost.measured r in
  let predicted = Cost.ours ~n ~d ~k ~mask_degree:config.Config.mask_degree () in
  Alcotest.(check int) "one round measured" 1 measured.Cost.rounds;
  Alcotest.(check int) "decryptions = n" n measured.Cost.decryptions;
  Alcotest.(check int) "encryptions = nk" (n * k) measured.Cost.encryptions;
  Alcotest.(check bool)
    (Format.asprintf "hom ops within 4x of model (measured %a, predicted %a)" Cost.pp measured
       Cost.pp predicted)
    true
    (Cost.within_asymptotic ~measured ~predicted ~slack:4.0)

let test_cost_ours_beats_yousef () =
  (* The Table 1 comparison: for 32-bit values, every row of ours is
     asymptotically below Yousef et al. *)
  let n = 1000 and d = 10 and k = 10 and l = 32 in
  let ours = Cost.ours ~n ~d ~k ~mask_degree:2 () in
  let yousef = Cost.yousef ~n ~d ~k ~l in
  Alcotest.(check bool) "hom ops" true (ours.Cost.hom_ops < yousef.Cost.hom_ops);
  Alcotest.(check bool) "encryptions" true (ours.Cost.encryptions < yousef.Cost.encryptions);
  Alcotest.(check bool) "decryptions" true (ours.Cost.decryptions < yousef.Cost.decryptions);
  Alcotest.(check int) "rounds: ours constant" 1 ours.Cost.rounds;
  Alcotest.(check int) "rounds: yousef O(k)" k yousef.Cost.rounds

(* ------------------------------------------------------------------ *)
(* Cost ledger vs analytic replica (DESIGN §5a)                        *)
(* ------------------------------------------------------------------ *)

module NM = Sknn_obs.Noise_model

let check_ledger name predicted measured =
  if not (Util.Counters.equal_ledger predicted measured) then
    Alcotest.failf "%s: ledger mismatch@.predicted: %a@.measured:  %a" name
      Util.Counters.pp predicted Util.Counters.pp measured

let check_prediction name config ~n ~d ~k path (r : Protocol.result) =
  let pred = Attribution.predict config ~n ~d ~k path in
  check_ledger (name ^ " / party-a") pred.CM.party_a r.Protocol.counters_a;
  check_ledger (name ^ " / party-b") pred.CM.party_b r.Protocol.counters_b;
  check_ledger (name ^ " / client") pred.CM.client r.Protocol.counters_client;
  (* Serialized A<->B traffic, predicted from symbolic ciphertext sizes,
     against the transcript tally (Cost.measured reads the same entries
     tally_transcript folds into bytes_sent). *)
  Alcotest.(check int)
    (name ^ " / A<->B bytes")
    (Cost.measured r).Cost.bytes pred.CM.ab_bytes;
  (* The symbolic transcript must mirror the live exchange message for
     message — same senders, labels and byte sizes in the same order —
     so its virtual-clock replay (what [predict_end_to_end] prices) is
     structurally identical to replaying the live run, per-round
     latencies and all, under every profile. *)
  let entry_key (e : Transcript.entry) =
    ( e.Transcript.seq, e.Transcript.sender, e.Transcript.receiver,
      e.Transcript.label, e.Transcript.bytes )
  in
  if
    List.map entry_key (Transcript.entries pred.CM.transcript)
    <> List.map entry_key (Transcript.entries r.Protocol.transcript)
  then
    Alcotest.failf "%s: symbolic transcript diverges@.predicted:@.%a@.live:@.%a"
      name Transcript.pp pred.CM.transcript Transcript.pp r.Protocol.transcript;
  List.iter
    (fun prof ->
      Alcotest.(check string)
        (name ^ " / identical replay under " ^ Profile.to_string prof)
        (Marshal.to_string (Clock.replay prof pred.CM.transcript) [])
        (Marshal.to_string (Clock.replay prof r.Protocol.transcript) []))
    Profile.presets

let test_cost_model_plain () =
  let db = small_db (Rng.of_int 611) in
  let n = Array.length db and d = Array.length db.(0) in
  let k = 4 in
  List.iter
    (fun (name, config) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 612) config ~db in
      let q = Synthetic.query_like (Rng.of_int 613) db in
      let r = Protocol.query dep ~query:q ~k in
      check_prediction name config ~n ~d ~k CM.Plain r)
    [ ("plain/standard", Config.standard ()); ("plain/fast", Config.fast ()) ]

let test_cost_model_prepared () =
  let db = small_db (Rng.of_int 621) in
  let n = Array.length db and d = Array.length db.(0) in
  let k = 4 in
  List.iter
    (fun (name, config) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 622) ~path:CM.Prepared config ~db in
      let q = Synthetic.query_like (Rng.of_int 623) db in
      check_prediction name config ~n ~d ~k CM.Prepared (Protocol.query dep ~query:q ~k))
    [ ("prepared/affine", affine_config ()); ("prepared/fast", Config.fast ()) ]

let test_cost_model_packed () =
  let db = small_db (Rng.of_int 631) in
  let n = Array.length db and d = Array.length db.(0) in
  let k = 4 in
  List.iter
    (fun (name, config) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 632) ~path:CM.Packed config ~db in
      let q = Synthetic.query_like (Rng.of_int 633) db in
      check_prediction name config ~n ~d ~k CM.Packed (Protocol.query dep ~query:q ~k))
    [ ("packed/affine", affine_config ()); ("packed/fast", Config.fast ()) ]

let test_fresh_ciphertexts_seeded () =
  (* Every fresh ciphertext travels as c0 plus its 8-byte seed, and Party
     A expands each one on receipt.  On every path A's expand cells match
     the client's and B's encryptions level for level, each encryption
     embeds t·e + m with one forward NTT, and the setup, query and
     indicator messages carry exactly the seeded sizes.  The packed query
     travels at the level A's drop rule reads it at, not the top. *)
  let module C = Util.Counters in
  let db = small_db (Rng.of_int 655) in
  let n = Array.length db and d = Array.length db.(0) in
  let rng = Rng.of_int 656 in
  let query = Synthetic.query_like rng db in
  let k = 3 in
  let config = affine_config () in
  let p = config.Config.bgv in
  let top = Params.chain_length p and rl = config.Config.return_level in
  let seeded level = 40 + (level * p.Params.n * 4) + 8 in
  let bytes tr prefix =
    List.fold_left
      (fun acc (e : Transcript.entry) ->
        if String.starts_with ~prefix e.Transcript.label then acc + e.Transcript.bytes else acc)
      0 (Transcript.entries tr)
  in
  List.iter
    (fun (name, path) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 657) ~path config ~db in
      let setup = Protocol.setup_transcript dep in
      (* The packed circuit reads no encrypted database, so none ships. *)
      Alcotest.(check int) (name ^ ": database ships seeded")
        (if path = CM.Packed then 0 else n * (d + 1) * seeded top)
        (bytes setup "encrypted database");
      Alcotest.(check int) (name ^ ": secret keys, one byte a coefficient")
        (2 * p.Params.n) (bytes setup "secret key");
      let r = Protocol.query dep ~query ~k in
      let a = r.Protocol.counters_a and b = r.Protocol.counters_b in
      let cl = r.Protocol.counters_client in
      let count c op level = C.op_count c op ~level in
      let ql =
        if path <> CM.Packed then top
        else
          let width = Entities.block_width d in
          let g = Entities.distance_stride ~n ~width ~slots:p.Params.n in
          Entities.packed_query_level config ~groups:((d + g) / g)
      in
      if path = CM.Packed then
        Alcotest.(check bool) "packed: the query level is below the top" true (ql < top);
      let nq = count cl C.Op_encrypt ql and nind = count b C.Op_encrypt rl in
      let check what expected actual = Alcotest.(check int) (name ^ ": " ^ what) expected actual in
      check "client encrypts at the query level only" nq (C.op_total cl C.Op_encrypt);
      check "B encrypts at the return level only" nind (C.op_total b C.Op_encrypt);
      (* The packed query level can be the return level itself. *)
      let at l = (if l = ql then nq else 0) + if l = rl then nind else 0 in
      check "A expands the query" (at ql) (count a C.Op_expand ql);
      check "A expands the indicators" (at rl) (count a C.Op_expand rl);
      check "A expands nothing else" (nq + nind) (C.op_total a C.Op_expand);
      check "one embed per query encryption" nq (count cl C.Op_ntt_fwd ql);
      check "one embed per indicator" nind (count b C.Op_ntt_fwd rl);
      check "query bytes" (nq * seeded ql) (bytes r.Protocol.transcript "encrypted query");
      check "indicator bytes" (nind * seeded rl) (bytes r.Protocol.transcript "indicator vector"))
    [ ("plain", CM.Plain); ("prepared", CM.Prepared); ("packed", CM.Packed) ];
  (* The symbolic backend sizes the wire form identically and rejects it
     in a homomorphic op, as Bgv does. *)
  let module S = CM.Symbolic in
  let run = S.start (Attribution.model_params config ~n ~d ~k) in
  let c = C.create () in
  let wire =
    S.encrypt ~counters:c (Rng.of_int 658) (S.secret_key (S.keygen rng run)) (S.pt_const run 0L)
  in
  Alcotest.(check int) "symbolic seeded size" (seeded top) (S.byte_size wire);
  Alcotest.(check int) "symbolic expanded size" (40 + (2 * top * p.Params.n * 4))
    (S.byte_size (S.expand ~counters:c wire));
  Alcotest.(check bool) "symbolic op rejects the wire form" true
    (try ignore (S.add ~counters:c wire wire); false with Invalid_argument _ -> true)

(* splitmix64 run backwards: its finaliser is a bijection (xor-shifts and
   odd multiplies), so a raw draw yields the state that produced it. *)
let splitmix_next_after draw =
  let gamma = 0x9E3779B97F4A7C15L in
  let unshift y s =
    let x = ref y in
    for _ = 0 to 64 / s do x := Int64.logxor y (Int64.shift_right_logical !x s) done;
    !x
  in
  let inverse c =
    let x = ref c in
    for _ = 1 to 6 do x := Int64.mul !x (Int64.sub 2L (Int64.mul c !x)) done;
    !x
  in
  let mix z =
    let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
    let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
    Int64.(logxor z (shift_right_logical z 31))
  in
  let z = unshift draw 31 in
  let z = unshift (Int64.mul z (inverse 0x94D049BB133111EBL)) 27 in
  let state = unshift (Int64.mul z (inverse 0xBF58476D1CE4E5B9L)) 30 in
  mix (Int64.add state gamma)

let test_seed_hides_noise_stream () =
  (* The seed a fresh ciphertext ships must not give away the stream its
     noise e is drawn from.  Control: inverting splitmix on a raw draw
     does predict the next draw, the first one e consumes. *)
  let config = affine_config () in
  let p = config.Config.bgv in
  let sk = (Entities.Live.keygen (Rng.of_int 660) p).Bgv.sk in
  let pt = Plaintext.constant p 0L in
  for i = 0 to 49 do
    let rng = Rng.of_int (661 + i) in
    let mirror = Rng.copy rng in
    let wire = Entities.Live.encrypt ~counters:(Util.Counters.create ()) rng sk pt in
    let bytes = Bgv.ct_to_bytes wire in
    let seed = Bytes.get_int64_le bytes (Bytes.length bytes - 8) in
    let raw = Rng.bits64 mirror in
    let first_noise_draw = Rng.bits64 mirror in
    Alcotest.(check int64) "control: a raw draw predicts the next" first_noise_draw
      (splitmix_next_after raw);
    Alcotest.(check bool) "the shipped seed does not" false
      (Int64.equal first_noise_draw (splitmix_next_after seed))
  done

let test_predict_end_to_end_consistency () =
  (* predict_end_to_end = priced compute + replayed symbolic wire; with
     an empty calibration table the compute term is zero, so the total
     must equal the virtual-clock replay of the live transcript — the
     same timeline the query itself recorded under [?net]. *)
  let db = small_db (Rng.of_int 651) in
  let k = 3 in
  let n = Array.length db and d = Array.length db.(0) in
  let config = Config.fast () in
  let dep = Protocol.deploy ~rng:(Rng.of_int 652) config ~db in
  let q = Synthetic.query_like (Rng.of_int 653) db in
  let r = Protocol.query ~net:Profile.wan dep ~query:q ~k in
  let pred = Attribution.predict config ~n ~d ~k CM.Plain in
  let e2e = CM.predict_end_to_end ~unit_costs:[||] ~profile:Profile.wan pred in
  Alcotest.(check (float 0.0)) "empty table prices zero compute" 0.0 e2e.CM.compute_s;
  Alcotest.(check (float 0.0)) "total = compute + wire"
    (e2e.CM.compute_s +. e2e.CM.wire_s) e2e.CM.total_s;
  let live =
    match r.Protocol.net with
    | Some tl -> tl
    | None -> Alcotest.fail "query ran with ?net but recorded no timeline"
  in
  Alcotest.(check (float 0.0)) "wire = live end-to-end" live.Clock.end_to_end_s
    e2e.CM.wire_s;
  Alcotest.(check string) "predicted timeline = live timeline"
    (Marshal.to_string live []) (Marshal.to_string e2e.CM.timeline []);
  Alcotest.(check string) "live timeline = replaying the live transcript"
    (Marshal.to_string (Clock.replay Profile.wan r.Protocol.transcript) [])
    (Marshal.to_string live [])

(* The paper uses the (S)HE scheme as a black box: the distance + mask
   pipeline (Algorithm 1) is one functor over its ciphertext backend.  On
   the live backend it yields an order-preserving masked image of the
   true distances; on the symbolic backend the same code records the
   identical op ledger, cell for cell. *)
let test_black_box_pipeline () =
  let db = small_db (Rng.of_int 701) in
  let n = Array.length db and d = Array.length db.(0) in
  List.iter
    (fun (name, config) ->
      let dep = Protocol.deploy ~rng:(Rng.of_int 702) config ~db in
      let q = Synthetic.query_like (Rng.of_int 703) db in
      let a = Protocol.party_a dep in
      let rng = Rng.of_int 704 in
      let q_enc = Entities.Client.encrypt_query (Protocol.client dep) rng q in
      Util.Counters.reset (Entities.Party_a.counters a);
      let _, masked = Entities.Party_a.compute_distances a rng q_enc in
      let view = Entities.Party_b.select_neighbours (Protocol.party_b dep) masked ~k:3 in
      let true_dists = Array.map (fun p -> Distance.squared_euclidean q p) db in
      Alcotest.(check bool) (name ^ ": live masking order-preserving") true
        (Leakage.recovers_true_order view true_dists);
      let pred = Attribution.predict config ~n ~d ~k:3 CM.Plain in
      match
        List.find_opt
          (fun ph -> ph.CM.phase = "compute-distances" && ph.CM.party = "party-a")
          pred.CM.phases
      with
      | None -> Alcotest.failf "%s: no symbolic compute-distances phase" name
      | Some ph ->
        check_ledger (name ^ ": symbolic pipeline ledger") ph.CM.counters
          (Entities.Party_a.counters a))
    [ ("standard", Config.standard ()); ("fast", Config.fast ()) ]

let test_net_timeline_jobs_determinism () =
  (* The replayed timeline is a pure function of (transcript, profile),
     and the transcript is jobs-invariant — so the whole virtual
     timeline must be byte-identical across worker counts. *)
  let db = small_db (Rng.of_int 661) in
  let q = [| 10; 20; 30 |] in
  let run jobs =
    let dep = Protocol.deploy ~rng:(Rng.of_int 999) ~jobs (Config.fast ()) ~db in
    let r = Protocol.query ~rng:(Rng.of_int 1000) ~net:Profile.wan dep ~query:q ~k:3 in
    match r.Protocol.net with
    | Some tl -> Marshal.to_string tl []
    | None -> Alcotest.fail "no timeline recorded"
  in
  let t1 = run 1 in
  List.iter
    (fun j ->
      Alcotest.(check string) (Printf.sprintf "jobs 1 = jobs %d" j) t1 (run j))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Coefficient-packed distances                                        *)
(* ------------------------------------------------------------------ *)

(* Party A of a packed deployment, driven directly: the owner's keys, A
   and its plaintext columns. *)
let packed_party_a ~seed config db =
  let module E = Entities in
  let keys = E.Data_owner.keys (E.Data_owner.create (Rng.of_int seed) config) in
  let enc_db = { E.db_n = Array.length db; db_d = Array.length db.(0); points = [||] } in
  let a = E.Party_a.create ~jobs:1 config keys.Bgv.rlk enc_db in
  (keys, a, E.Party_a.prepare_packed a ~db)

(* The distance layout at N = 64, decrypted: each batch's live targets
   (coefficient s·g + g − 1 of point s) hold exactly the masked distances
   of its points in Π order, and every other coefficient — cross terms,
   wrapped terms, dead targets — is the bare product a·Σ_c P_c·Q_c,
   recomputed here in the clear, plus a non-zero offset that no other
   coefficient shares: A's one randomizer covers it with fresh values.
   (Uniform offsets mod t ≈ 2^50 are zero or collide with probability
   below 2^-30 per run.)  Cases pick g = 1, 2 and 8, ragged and full. *)
let test_packed_targets_and_randomizer () =
  let module E = Entities in
  let config = Config.fast () in
  let p = config.Config.bgv in
  let t = p.Params.t_plain and slots = p.Params.n in
  List.iter
    (fun (n, d, want_g) ->
      let name = Printf.sprintf "n=%d d=%d" n d in
      let rng = Rng.of_int (700 + n + d) in
      let db = Synthetic.uniform rng ~n ~d ~max_value:250 in
      let g = E.distance_stride ~n ~width:(E.block_width d) ~slots in
      Alcotest.(check int) (name ^ ": stride") want_g g;
      let per = slots / g in
      let keys, a, pp = packed_party_a ~seed:701 config db in
      let cl = E.Client.create ~distance_stride:g config keys.Bgv.sk in
      let q = Synthetic.query_like rng db in
      let state, cts =
        E.Party_a.compute_distances_packed a pp rng (E.Client.encrypt_query_packed cl rng q)
      in
      Alcotest.(check int) (name ^ ": ciphertexts") ((n + per - 1) / per) (Array.length cts);
      let offsets = Hashtbl.create 64 in
      let mask = E.Party_a.state_mask state in
      let ma = (Masking.coeffs mask).(1) in
      let src = Util.Perm.apply (E.Party_a.state_perm state) (Array.init n Fun.id) in
      let m v = Mod64.reduce t (Int64.of_int v) in
      let q' j =
        if j < d then Mod64.neg t (m (2 * q.(j)))
        else m (Distance.squared_euclidean q (Array.make d 0))
      in
      let x' i j = if j < d then m db.(i).(j) else 1L in
      Array.iteri
        (fun b ct ->
          let got = Plaintext.to_coeffs (Bgv.decrypt keys.Bgv.sk ct) in
          let base = b * per in
          let len = min per (n - base) in
          let bare = Array.make slots 0L in
          for s = 0 to len - 1 do
            for j = 0 to d do
              for j2 = 0 to d do
                if j / g = j2 / g then begin
                  let e = (s * g) + g - 1 - (j mod g) + (j2 mod g) in
                  let v = Mod64.mul t (x' src.(base + s) j) (q' j2) in
                  if e < slots then bare.(e) <- Mod64.add t bare.(e) v
                  else bare.(e - slots) <- Mod64.sub t bare.(e - slots) v
                end
              done
            done
          done;
          let live = ref 0 in
          Array.iteri
            (fun e v ->
              let s = e / g in
              if e mod g = g - 1 && s < len then begin
                incr live;
                let i = src.(base + s) in
                Alcotest.(check int64)
                  (Printf.sprintf "%s: batch %d point %d masked distance" name b s)
                  (Masking.eval_mod mask ~t_plain:t
                     (Int64.of_int (Distance.squared_euclidean q db.(i))))
                  v
              end
              else begin
                let r = Mod64.sub t v (Mod64.mul t ma bare.(e)) in
                if Int64.equal r 0L || Hashtbl.mem offsets r then
                  Alcotest.failf "%s: batch %d coefficient %d not randomized" name b e;
                Hashtbl.add offsets r ()
              end)
            got;
          Alcotest.(check int) (Printf.sprintf "%s: batch %d targets" name b) len !live)
        cts)
    [ (40, 3, 1); (429, 32, 2); (5, 3, 8); (8, 3, 8) ]

(* The packed query travels at the level the drop rule picks, and Party
   A holds every query to it: one level lower is refused with the typed
   error, one level higher (a client whose return level sits one above
   A's) is truncated on receipt and yields the identical decrypted
   distances. *)
let test_packed_query_level () =
  let module E = Entities in
  let config = affine_config () in
  let p = config.Config.bgv in
  let db = small_db (Rng.of_int 445) in
  let n = Array.length db and d = Array.length db.(0) in
  let g = E.distance_stride ~n ~width:(E.block_width d) ~slots:p.Params.n in
  let level = E.packed_query_level config ~groups:((d + g) / g) in
  Alcotest.(check int) "at the return level" config.Config.return_level level;
  let keys, a, pp = packed_party_a ~seed:446 config db in
  let query = Synthetic.query_like (Rng.of_int 447) db in
  let encrypt config =
    E.Client.encrypt_query_packed
      (E.Client.create ~distance_stride:g config keys.Bgv.sk)
      (Rng.of_int 448) query
  in
  let distances q =
    let _, cts = E.Party_a.compute_distances_packed a pp (Rng.of_int 449) q in
    Array.map (fun ct -> Plaintext.to_coeffs (Bgv.decrypt keys.Bgv.sk ct)) cts
  in
  let q = encrypt config in
  let levels q = Array.map Bgv.level (Option.get q.E.q_coords) in
  Alcotest.(check (array int)) "client encrypts at the rule's level"
    (Array.make ((d + g) / g) level) (levels q);
  let low =
    { q with
      E.q_coords =
        Option.map (Array.map (fun c -> Bgv.truncate_to_level c (level - 1))) q.E.q_coords }
  in
  (match E.Party_a.compute_distances_packed a pp (Rng.of_int 449) low with
   | exception E.Query_below_level { level = l; required } ->
     Alcotest.(check (pair int int)) "typed error" (level - 1, level) (l, required)
   | _ -> Alcotest.fail "a query below its level was accepted");
  let high = encrypt (Config.with_return_level (level + 1) config) in
  Alcotest.(check (array int)) "the other client encrypts one level up"
    (Array.make ((d + g) / g) (level + 1)) (levels high);
  Alcotest.(check bool) "truncated on receipt, identical distances" true
    (distances q = distances high)

(* The audit surface and scheduling transparency on the coefficient
   circuit: Party B's labels are the packed path's five, the client's
   exactly {neighbour-count, distance-stride}, and results, transcripts
   and the non-Chunk span tree are bit-identical at jobs 1, 2 and 4. *)
let test_packed_client_surface_and_jobs () =
  let module Audit = Sknn_obs.Audit in
  let module Trace = Sknn_obs.Trace in
  let db = Synthetic.uniform (Rng.of_int 441) ~n:70 ~d:5 ~max_value:200 in
  let q = Synthetic.query_like (Rng.of_int 442) db in
  let run jobs =
    let audit = Audit.create () and trace = Trace.create () in
    let obs = Sknn_obs.Ctx.create ~audit ~trace () in
    let dep =
      Protocol.deploy ~obs ~rng:(Rng.of_int 443) ~jobs ~path:CM.Packed (Config.fast ()) ~db
    in
    let r = Protocol.query ~obs ~rng:(Rng.of_int 444) dep ~query:q ~k:3 in
    (audit, trace, r)
  in
  let audit, trace1, r1 = run 1 in
  Alcotest.(check (list string)) "party-b surface unchanged"
    [ "equidistant-group-sizes"; "k"; "masked-distance-multiset"; "n"; "return-block-width" ]
    (Audit.labels_for audit ~party:"party-b");
  Alcotest.(check (list string)) "client surface"
    [ "distance-stride"; "neighbour-count" ]
    (Audit.labels_for audit ~party:"client");
  (match Audit.value_of audit ~party:"client" ~label:"distance-stride" with
   | Some (Audit.Int g) ->
     Alcotest.(check int) "g for n = 70, d' = 8, N = 64"
       (Entities.distance_stride ~n:70 ~width:8 ~slots:64) g
   | _ -> Alcotest.fail "distance-stride not recorded as Int");
  let rec shape (s : Trace.span) =
    if s.Trace.kind = Trace.Chunk then ""
    else
      Format.asprintf "%s[%s]{%s}(%s)" s.Trace.name
        (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) s.Trace.args))
        (String.concat ";"
           (List.map
              (fun (o, c) -> Format.asprintf "%s:%a" o Util.Counters.pp c)
              s.Trace.deltas))
        (String.concat "," (List.filter (( <> ) "") (List.map shape s.Trace.children)))
  in
  let tree tr = String.concat "\n" (List.map shape (Trace.roots tr)) in
  List.iter
    (fun jobs ->
      let _, trace, r = run jobs in
      let label what = Printf.sprintf "%s: jobs 1 = jobs %d" what jobs in
      Alcotest.(check bool) (label "results") true
        (r1.Protocol.neighbours = r.Protocol.neighbours && r1.Protocol.view_b = r.Protocol.view_b);
      Alcotest.(check bool) (label "transcript") true
        (Transcript.entries r1.Protocol.transcript = Transcript.entries r.Protocol.transcript);
      Alcotest.(check string) (label "span tree") (tree trace1) (tree trace))
    [ 2; 4 ]

(* QCheck: random (n, d, k) on the packed path at N = 64, exact against
   plaintext k-NN and predicted exactly by the symbolic run.  d is 1, d'−1
   or d' for a block width d' up to 64; n is built from a stride's batch
   size so that n mod ⌊N/g⌋ lands on 0, 1 or ⌊N/g⌋ − 1 (and n = 1); k is
   1, random or n.  [test_packed_strides_covered] checks that these
   shapes reach every stride the rule can pick at N = 64. *)
let packed_case_gen =
  let open QCheck.Gen in
  let* width = oneofl [ 1; 2; 4; 8; 16; 32; 64 ] in
  let* d = oneofl (List.sort_uniq compare [ 1; max 1 (width - 1); width ]) in
  let* g0 = oneofl (List.filter (fun g -> g <= 2 * width) [ 1; 2; 4; 8; 16; 32; 64 ]) in
  let per = 64 / g0 in
  let* batches = int_range 0 2 in
  let* r = oneofl [ 0; 1; per - 1 ] in
  let n = max 1 ((batches * per) + r) in
  let* k = oneof [ return 1; return n; int_range 1 n ] in
  let* seed = int_range 0 100_000 in
  return (n, d, k, seed)

let packed_case_print (n, d, k, seed) = Printf.sprintf "n=%d d=%d k=%d seed=%d" n d k seed

let test_packed_strides_covered () =
  (* Every (n, d) the generator can build, against every stride the rule
     picks for any n <= 3·64 and d <= 64. *)
  let slots = 64 in
  let pick n d = Entities.distance_stride ~n ~width:(Entities.block_width d) ~slots in
  let reachable = ref [] and generated = ref [] in
  for d = 1 to 64 do
    for n = 1 to 3 * slots do
      reachable := pick n d :: !reachable
    done
  done;
  List.iter
    (fun width ->
      List.iter
        (fun d ->
          List.iter
            (fun g0 ->
              if g0 <= 2 * width then
                let per = slots / g0 in
                List.iter
                  (fun batches ->
                    List.iter
                      (fun r -> generated := pick (max 1 ((batches * per) + r)) d :: !generated)
                      [ 0; 1; per - 1 ])
                  [ 0; 1; 2 ])
            [ 1; 2; 4; 8; 16; 32; 64 ])
        [ 1; max 1 (width - 1); width ])
    [ 1; 2; 4; 8; 16; 32; 64 ];
  let uniq l = List.sort_uniq compare l in
  Alcotest.(check (list int)) "generated strides = reachable strides" (uniq !reachable)
    (uniq !generated);
  Alcotest.(check bool) "g = 1 is among them" true (List.mem 1 (uniq !generated))

let prop_packed_exact =
  QCheck.Test.make ~count:40 ~name:"packed path exact and predicted (N = 64)"
    (QCheck.make ~print:packed_case_print packed_case_gen)
    (fun (n, d, k, seed) ->
      let rng = Rng.of_int seed in
      let config = Config.fast () in
      let db = Synthetic.uniform rng ~n ~d ~max_value:255 in
      let q = Synthetic.query_like rng db in
      let dep = Protocol.deploy ~rng ~path:CM.Packed config ~db in
      let r = Protocol.query dep ~query:q ~k in
      check_prediction (packed_case_print (n, d, k, seed)) config ~n ~d ~k CM.Packed r;
      Protocol.exact dep ~db ~query:q r)

(* The packed path's first exact gate, at the secure-packed shape (n = 429,
   d = 32, k = 2, N = 8192, 7 × 30-bit primes, t = 2^40; g = 16): the
   symbolic run's per-phase ledger and transcript, which no machine can
   move.  A change to a phase's ops updates this pin and says why. *)
let secure_packed_config () = Config.with_layout Config.Dot_product (Config.secure ())

let test_packed_pin_secure () =
  let module C = Util.Counters in
  let pred = Attribution.predict (secure_packed_config ()) ~n:429 ~d:32 ~k:2 CM.Packed in
  Alcotest.(check (list string)) "per-phase ledger"
    [ "encrypt-query client: encrypt@6=3 ntt_fwd@6=3";
      "compute-distances party-a: ct_add@6=3 mul_plain@6=4 ntt_fwd@6=4 expand@6=3";
      "find-neighbours party-b: decrypt@6=1 ntt_inv@6=1";
      "return-knn party-a: ct_add@6=2 mul_plain@6=4 ntt_fwd@6=2 slot_pack@0=2 expand@6=4";
      "return-knn party-b: encrypt@6=4 ntt_fwd@6=4 slot_pack@0=4";
      "decrypt-result client: decrypt@6=2 ntt_inv@6=2 slot_unpack@0=2" ]
    (List.map
       (fun (ph : CM.phase) ->
         Printf.sprintf "%s %s:%s" ph.CM.phase ph.CM.party
           (String.concat ""
              (List.map
                 (fun (op, l, c) -> Printf.sprintf " %s@%d=%d" (C.op_name op) l c)
                 (C.ledger_entries ph.CM.counters))))
       pred.CM.phases);
  Alcotest.(check (list string)) "transcript"
    [ "client->party-A encrypted query 589968";
      "party-A->party-B masked permuted distances 393256";
      "party-B->party-A indicator vector B^1 393312";
      "party-B->party-A indicator vector B^2 393312";
      "party-A->client encrypted k-NN result 786512" ]
    (List.map
       (fun (e : Transcript.entry) ->
         Printf.sprintf "%s->%s %s %d"
           (Transcript.party_name e.Transcript.sender)
           (Transcript.party_name e.Transcript.receiver)
           e.Transcript.label e.Transcript.bytes)
       (Transcript.entries pred.CM.transcript))

(* The same shape live at N = 8192: exact, and the symbolic run predicts
   its ledger and transcript exactly. *)
let test_cost_model_packed_secure () =
  let config = secure_packed_config () in
  let db = Synthetic.uniform (Rng.of_int 641) ~n:429 ~d:32 ~max_value:63 in
  let q = Synthetic.query_like (Rng.of_int 642) db in
  let dep = Protocol.deploy ~rng:(Rng.of_int 643) ~path:CM.Packed config ~db in
  let r = Protocol.query dep ~query:q ~k:2 in
  Alcotest.(check bool) "exact" true (Protocol.exact dep ~db ~query:q r);
  check_prediction "packed/secure" config ~n:429 ~d:32 ~k:2 CM.Packed r

(* ------------------------------------------------------------------ *)
(* Slot return (packed Return-kNN)                                     *)
(* ------------------------------------------------------------------ *)

let slots_fast = Params.slot_count (Config.fast ()).Config.bgv

(* One packed round, from a fresh deployment, at 1, 2 and 4 domains: the
   answer exact against Plain_knn, the runs bit-identical (neighbours,
   view, transcript, counters), and the symbolic run of the circuit
   predicting the jobs-1 ledger and transcript exactly. *)
let check_slot_case name ~db ~query ~k =
  let config = Config.fast () in
  let n = Array.length db and d = Array.length db.(0) in
  let run jobs =
    let dep = Protocol.deploy ~rng:(Rng.of_int 951) ~jobs ~path:CM.Packed config ~db in
    (dep, Protocol.query ~rng:(Rng.of_int 952) dep ~query ~k)
  in
  let dep, r1 = run 1 in
  Alcotest.(check bool) (name ^ ": exact") true (Protocol.exact dep ~db ~query r1);
  let fingerprint r =
    Marshal.to_string
      ( (r.Protocol.neighbours, r.Protocol.view_b),
        Transcript.entries r.Protocol.transcript,
        Format.asprintf "%a|%a|%a" Util.Counters.pp r.Protocol.counters_a Util.Counters.pp
          r.Protocol.counters_b Util.Counters.pp r.Protocol.counters_client )
      []
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string) (Printf.sprintf "%s: jobs 1 = jobs %d" name jobs)
        (fingerprint r1) (fingerprint (snd (run jobs))))
    [ 2; 4 ];
  check_prediction name config ~n ~d ~k CM.Packed r1

let test_slot_return_shapes () =
  (* n ≡ 0, 1, −1 mod N/d' blocks per slot plaintext, with d < d' (d = 3,
     d' = 4) and d = d' = 8. *)
  List.iter
    (fun (n, d) ->
      let per = slots_fast / Entities.block_width d in
      let rng = Rng.of_int (960 + n + d) in
      let db = Synthetic.uniform rng ~n ~d ~max_value:250 in
      let name = Printf.sprintf "n=%d (%d mod %d) d=%d" n (n mod per) per d in
      check_slot_case ("packed " ^ name) ~db ~query:(Synthetic.query_like rng db) ~k:3)
    [ (32, 3); (33, 3); (31, 3); (16, 8); (17, 8); (15, 8) ]

let test_slot_return_zero_point () =
  (* Only the selected block is non-zero in a slot result, so an all-zero
     neighbour decodes to zeros rather than being lost. *)
  let origin = [| 0; 0; 0 |] in
  let far = Synthetic.uniform (Rng.of_int 971) ~n:20 ~d:3 ~max_value:150 in
  let db = Array.append (Array.map (Array.map (( + ) 100)) far) [| origin |] in
  check_slot_case "packed zero point" ~db ~query:origin ~k:1;
  check_slot_case "packed next to the zero point" ~db ~query:[| 1; 0; 2 |] ~k:1;
  let dep = Protocol.deploy ~rng:(Rng.of_int 972) ~path:CM.Packed (Config.fast ()) ~db in
  let r = Protocol.query dep ~query:origin ~k:1 in
  Alcotest.(check (array (array int))) "the zero point itself" [| origin |]
    r.Protocol.neighbours

let test_slot_return_k_equals_n () =
  (* k = n over a database of heavy ties: every point comes back, each
     from its own block. *)
  let base = [| [| 1; 1; 1 |]; [| 2; 2; 2 |]; [| 0; 0; 0 |]; [| 1; 1; 1 |] |] in
  let db = Array.init 18 (fun i -> base.(i mod 4)) in
  let n = Array.length db in
  check_slot_case "packed k=n ties" ~db ~query:[| 1; 1; 1 |] ~k:n;
  check_slot_case "packed k=n ties from the origin" ~db ~query:[| 0; 0; 0 |] ~k:n;
  let dep = Protocol.deploy ~rng:(Rng.of_int 973) ~path:CM.Packed (Config.fast ()) ~db in
  let r = Protocol.query dep ~query:[| 2; 2; 2 |] ~k:n in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  Alcotest.(check (array (array int))) "all n points returned" (sorted db)
    (sorted r.Protocol.neighbours)

let test_indicator_count_per_path () =
  (* party-a/return-knn/indicator-ciphertexts counts what B actually
     sent: k·n bits on the per-point paths, k·⌈n·d'/N⌉ slot indicators
     on the packed one. *)
  let module Audit = Sknn_obs.Audit in
  let db = small_db (Rng.of_int 981) in
  let n = Array.length db and d = Array.length db.(0) in
  let k = 3 in
  let blocks = ((n * Entities.block_width d) + slots_fast - 1) / slots_fast in
  let query = Synthetic.query_like (Rng.of_int 982) db in
  List.iter
    (fun (name, expected, path) ->
      let audit = Audit.create () in
      let obs = Sknn_obs.Ctx.create ~audit () in
      let dep = Protocol.deploy ~rng:(Rng.of_int 983) ~path (Config.fast ()) ~db in
      ignore (Protocol.query ~obs dep ~query ~k);
      match Audit.value_of audit ~party:"party-a" ~label:"indicator-ciphertexts" with
      | Some (Audit.Int c) -> Alcotest.(check int) (name ^ ": indicators received") expected c
      | _ -> Alcotest.failf "%s: indicator-ciphertexts not recorded" name)
    [ ("plain", k * n, CM.Plain); ("prepared", k * n, CM.Prepared);
      ("packed", k * blocks, CM.Packed) ]

let test_slot_return_plain_surface () =
  (* The slot return widens only the packed paths' surface: the
     per-point paths still show B exactly the paper's four labels. *)
  let module Audit = Sknn_obs.Audit in
  let db = small_db (Rng.of_int 985) in
  let q = Synthetic.query_like (Rng.of_int 986) db in
  List.iter
    (fun (name, path) ->
      let audit = Audit.create () in
      let obs = Sknn_obs.Ctx.create ~audit () in
      let dep = Protocol.deploy ~obs ~rng:(Rng.of_int 987) ~path (Config.fast ()) ~db in
      ignore (Protocol.query ~obs dep ~query:q ~k:3);
      Alcotest.(check (list string)) (name ^ ": party-b surface")
        [ "equidistant-group-sizes"; "k"; "masked-distance-multiset"; "n" ]
        (Audit.labels_for audit ~party:"party-b"))
    [ ("plain", CM.Plain); ("prepared", CM.Prepared) ]

let test_slot_return_forecast_conservative () =
  (* The packed forecast runs the slot return's plain products, and its
     minimum headroom is no higher than any live budget the round
     samples. *)
  let module Metrics = Sknn_obs.Metrics in
  let db = small_db (Rng.of_int 991) in
  let query = Synthetic.query_like (Rng.of_int 992) db in
  List.iter
    (fun (name, path) ->
      let metrics = Metrics.create () in
      let obs = Sknn_obs.Ctx.create ~metrics () in
      let dep = Protocol.deploy ~rng:(Rng.of_int 993) ~path (Config.fast ()) ~db in
      let report = Protocol.forecast_noise dep in
      Alcotest.(check bool) (name ^ ": forecast prices the slot products") true
        (List.exists (fun st -> st.NM.op = "return-knn/mul_plain") report.NM.steps);
      Alcotest.(check bool) (name ^ ": no n-term inner product") false
        (List.exists (fun st -> st.NM.op = "return-knn/mul_sum") report.NM.steps);
      ignore (Protocol.query ~obs dep ~query ~k:3);
      List.iter
        (fun gauge ->
          match Metrics.gauge_value (Metrics.gauge metrics gauge) with
          | None -> Alcotest.failf "%s: %s not sampled" name gauge
          | Some live ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s live %.1f >= forecast %.1f" name gauge live
                 report.NM.min_headroom_bits)
              true
              (live >= report.NM.min_headroom_bits))
        [ "bgv.masked-distance.min_noise_budget_bits"; "bgv.result.min_noise_budget_bits" ])
    [ ("packed", CM.Packed) ]

let test_slot_return_short_level_flagged () =
  (* At the secure preset the slot product needs ~108 bits at the return
     level; three 30-bit primes cannot hold it.  The deploy-time guard
     must warn (audit entry and flight event), and the query must fail
     loudly instead of returning a wrong neighbour set. *)
  let module Audit = Sknn_obs.Audit in
  let module Flight = Sknn_obs.Flight in
  let config = Config.with_return_level 3 (Config.secure ()) in
  let db = Synthetic.uniform (Rng.of_int 995) ~n:4 ~d:2 ~max_value:60 in
  let audit = Audit.create () in
  let flight = Flight.create () in
  let obs = Sknn_obs.Ctx.create ~audit ~flight () in
  let dep = Protocol.deploy ~obs ~rng:(Rng.of_int 996) ~jobs:1 ~path:CM.Packed config ~db in
  let report = Protocol.forecast_noise dep in
  Alcotest.(check bool) "forecast below margin" true report.NM.below_margin;
  Alcotest.(check bool) "warning audited at deploy time" true
    (Audit.value_of audit ~party:"party-a" ~label:"noise-low-headroom-warning" <> None);
  Alcotest.(check bool) "warning flight event" true
    (List.exists
       (fun e -> e.Flight.kind = Flight.Warning && e.Flight.name = "noise-low-headroom")
       (Flight.events flight));
  match Protocol.query ~obs dep ~query:[| 5; 5 |] ~k:2 with
  | exception Bgv.Decryption_failure _ -> ()
  | r ->
    Alcotest.failf "query returned %s instead of failing"
      (if Protocol.exact dep ~db ~query:[| 5; 5 |] r then "an exact answer" else "a wrong answer")

(* ------------------------------------------------------------------ *)
(* Property: random end-to-end instances                               *)
(* ------------------------------------------------------------------ *)

let prop_end_to_end_exact =
  QCheck.Test.make ~count:8 ~name:"random instances are exact (fast layout)"
    QCheck.(triple (int_range 5 30) (int_range 1 6) (int_range 0 10000))
    (fun (n, d, seed) ->
      let rng = Rng.of_int seed in
      let db = Synthetic.uniform rng ~n ~d ~max_value:250 in
      let dep = Protocol.deploy ~rng (Config.fast ()) ~db in
      let q = Synthetic.query_like rng db in
      let k = 1 + (seed mod n) in
      let r = Protocol.query dep ~query:q ~k in
      Protocol.exact dep ~db ~query:q r)

let () =
  Alcotest.run "secure_knn"
    [ ("masking",
       [ Alcotest.test_case "envelope" `Quick test_masking_envelope;
         Alcotest.test_case "draw/eval" `Quick test_masking_draw_and_eval;
         Alcotest.test_case "rejects unsound" `Quick test_masking_rejects_unsound ]);
      ("config",
       [ Alcotest.test_case "presets valid" `Quick test_config_presets_valid;
         Alcotest.test_case "envelope rejection" `Quick test_config_envelope_rejection;
         Alcotest.test_case "distance bits" `Quick test_config_distance_bits ]);
      ("protocol",
       [ Alcotest.test_case "exact (per-coordinate)" `Quick
           (test_exactness "per-coordinate" (Config.standard ()));
         Alcotest.test_case "exact (dot-product)" `Quick
           (test_exactness "dot-product" (Config.fast ()));
         Alcotest.test_case "k edge cases" `Quick test_k_edge_cases;
         Alcotest.test_case "duplicates and ties" `Quick test_duplicates_and_ties;
         Alcotest.test_case "query on db point" `Quick test_query_on_db_point;
         Alcotest.test_case "dimensions 1..32" `Quick test_dimension_1_and_high;
         Alcotest.test_case "uci-shaped workload" `Quick test_uci_shaped_workload;
         Alcotest.test_case "validation errors" `Quick test_validation_errors;
         Alcotest.test_case "transcript structure" `Quick test_transcript_structure;
         Alcotest.test_case "setup carries the relinearisation key" `Quick
           test_setup_relin_key;
         Alcotest.test_case "phase times" `Quick test_phase_times_present;
         Alcotest.test_case "deterministic given seed" `Quick test_deterministic_given_seed;
         Alcotest.test_case "identical across job counts" `Quick test_jobs_determinism ]);
      ("prepared",
       [ Alcotest.test_case "exact over repeated queries" `Quick test_prepared_exactness;
         Alcotest.test_case "matches unprepared path" `Quick test_prepared_matches_unprepared;
         Alcotest.test_case "identical across job counts" `Quick test_prepared_jobs_determinism;
         Alcotest.test_case "rejects non-affine masking" `Quick test_prepared_rejects_nonaffine ]);
      ("packed",
       [ Alcotest.test_case "exact over repeated queries" `Quick test_packed_exactness;
         Alcotest.test_case "matches unpacked paths" `Quick test_packed_matches_unpacked;
         Alcotest.test_case "ragged and full batch shapes" `Quick test_packed_batch_shapes;
         Alcotest.test_case "identical across job counts" `Quick test_packed_jobs_determinism;
         Alcotest.test_case "rejects non-affine masking" `Quick test_packed_rejects_nonaffine;
         Alcotest.test_case "equidistant groups slot-unpacked" `Quick
           test_packed_leakage_groups;
         Alcotest.test_case "audit surface" `Quick test_packed_audit_surface;
         Alcotest.test_case "targets and randomizer" `Quick
           test_packed_targets_and_randomizer;
         Alcotest.test_case "query level checked" `Quick test_packed_query_level;
         Alcotest.test_case "client surface, identical across jobs" `Quick
           test_packed_client_surface_and_jobs;
         Alcotest.test_case "generated shapes reach every stride" `Quick
           test_packed_strides_covered ]);
      ("deploy",
       [ Alcotest.test_case "setup transcript per path" `Quick test_deploy_setup_transcripts;
         Alcotest.test_case "prepares once, at setup" `Quick test_deploy_prepares_once;
         Alcotest.test_case "perfbench shim matches ~path" `Quick test_deploy_perfbench_shim ]);
      ("leakage",
       [ Alcotest.test_case "order preserved" `Quick test_leakage_order_preserved;
         Alcotest.test_case "equidistant groups" `Quick test_leakage_equidistant_groups;
         Alcotest.test_case "database independence" `Quick test_leakage_view_database_independent;
         Alcotest.test_case "fresh mask per query" `Quick test_leakage_fresh_mask_across_queries;
         Alcotest.test_case "permutation plumbing" `Quick test_permutation_hides_indices;
         Alcotest.test_case "audit channel" `Quick test_leakage_audit_channel ]);
      ("cost",
       [ Alcotest.test_case "measured vs predicted" `Quick test_cost_measured_vs_predicted;
         Alcotest.test_case "ours beats yousef" `Quick test_cost_ours_beats_yousef;
         Alcotest.test_case "ledger exact (plain)" `Quick test_cost_model_plain;
         Alcotest.test_case "ledger exact (prepared)" `Quick test_cost_model_prepared;
         Alcotest.test_case "ledger exact (packed)" `Quick test_cost_model_packed;
         Alcotest.test_case "ledger exact (packed, N = 8192)" `Quick
           test_cost_model_packed_secure;
         Alcotest.test_case "packed pin at the secure-packed shape" `Quick
           test_packed_pin_secure;
         Alcotest.test_case "fresh ciphertexts seeded" `Quick test_fresh_ciphertexts_seeded;
         Alcotest.test_case "seed hides the noise stream" `Quick test_seed_hides_noise_stream;
         Alcotest.test_case "end-to-end prediction consistent" `Quick
           test_predict_end_to_end_consistency;
         Alcotest.test_case "net timeline jobs-invariant" `Quick
           test_net_timeline_jobs_determinism ]);
      ("return",
       [ Alcotest.test_case "block shapes" `Quick test_slot_return_shapes;
         Alcotest.test_case "all-zero neighbour" `Quick test_slot_return_zero_point;
         Alcotest.test_case "k = n with ties" `Quick test_slot_return_k_equals_n;
         Alcotest.test_case "indicator count per path" `Quick test_indicator_count_per_path;
         Alcotest.test_case "per-point surfaces unchanged" `Quick
           test_slot_return_plain_surface;
         Alcotest.test_case "forecast conservative" `Quick
           test_slot_return_forecast_conservative;
         Alcotest.test_case "short return level flagged" `Slow
           test_slot_return_short_level_flagged ]);
      ("black box",
       [ Alcotest.test_case "distance + mask pipeline" `Quick test_black_box_pipeline ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_masking_order_preserving; prop_masking_fresh_each_draw; prop_end_to_end_exact;
           prop_packed_exact ]) ]
