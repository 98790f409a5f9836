(* Analytic replica of the protocol's ciphertext-operation cost and
   noise: [Symbolic] is a ciphertext backend whose values are
   Noise_model states instead of ring elements.  The protocol circuit
   (lib/core/entities.ml, a functor over its ciphertext backend) runs on
   it unchanged, and every operation records the same op-kind × BGV-level
   ledger cells (Util.Counters) the instrumented scheme records on live
   ciphertexts — without touching a single ciphertext.

   Exactness is the contract: the test suite asserts
   [Counters.equal_ledger] between a prediction and a measured run on
   every preset.  That holds because the circuit, and with it every
   branch it takes on a noise bound (rescale_to_floor loop trips, the
   level-drop rule), is the live one, and each operation here mirrors
   lib/bgv/bgv.ml's recording and noise bookkeeping term for term —
   including the sequential term-order fold of [mul_sum], where
   Noise_model's closed form is only a bound.

   The level-0 row of the ledger holds the slot pack/unpack NTTs mod t,
   exactly as Plaintext records them. *)

module C = Util.Counters
module NM = Noise_model

type params = {
  nm : NM.params;
  t_plain : int64;
  q_ibits : int array;
  n_points : int;
  d : int;
  k : int;
  per_coordinate : bool;
  mask_degree : int;
  mask_coeff_bits : int;
  max_coord_bits : int;
  rescale_distances : bool;
  return_level : int;
  use_relin : bool;
  relin_digit_bits : int;
  relin_rows : int;
}

type path = Plain | Prepared | Packed

type phase = { phase : string; party : string; counters : C.t }

type prediction = {
  phases : phase list;
  party_a : C.t;
  party_b : C.t;
  client : C.t;
  ab_bytes : int;
  transcript : Transcript.t;
}

let log2 x = log x /. log 2.0

(* ------------------------------------------------------------------ *)
(* The symbolic ciphertext backend                                     *)
(* ------------------------------------------------------------------ *)

module Symbolic = struct
  (* One symbolic protocol run: the parameters, the per-(phase, party)
     ledgers and transcript the driver hooks record, and the noise
     forecast — the current phase and the states every operation
     produced, the lowest headroom per (phase, op), in first-seen
     order.  A [setup] recorder of the run shares its forecast. *)
  type run = {
    p : params;
    log2_q : float array;  (* NM.log2_q by level, as a prefix-sum table *)
    fresh_bits : float;
    tr : Transcript.t;
    mutable rev_phases : phase list;
    fc : forecast;
  }

  and forecast = { mutable current : string; mutable noise : point list (* newest first *) }

  (* The lowest-headroom state seen at one (phase, op).  Both names are
     string literals of the driver and of this module, compared
     physically, so the per-op bookkeeping neither hashes nor
     allocates. *)
  and point = { ph : string; op : string; mutable low : NM.state; mutable room : float }

  type params = run
  type secret_key = run
  type relin_key = run
  type keys = { sk : secret_key; rlk : relin_key }

  (* [seeded]: the wire form, c0 plus a seed (Bgv's [seed <> None]). *)
  type ct = { run : run; st : NM.state; seeded : bool }
  type pt = unit
  type ept = int (* the level the plaintext is embedded at *)
  type env = run

  let start p =
    let nm = p.nm in
    { p;
      log2_q = Array.init (NM.chain_length nm + 1) (fun level -> NM.log2_q nm ~level);
      fresh_bits = NM.fresh_noise_bits nm; tr = Transcript.create (); rev_phases = [];
      fc = { current = "setup"; noise = [] } }

  let setup run = { run with tr = Transcript.create (); rev_phases = [] }

  let t_plain r = r.p.t_plain
  let ring_degree r = r.p.nm.NM.n
  let noise_params r = r.p.nm

  (* Every state an operation produces is a point of the forecast. *)
  let mk run op (st : NM.state) =
    let room = run.log2_q.(st.NM.level) -. 1.0 -. st.NM.bits in
    let fc = run.fc in
    let same pt = pt.op == op && pt.ph == fc.current in
    (match List.find_opt same fc.noise with
     | Some pt -> if room < pt.room then begin pt.low <- st; pt.room <- room end
     | None -> fc.noise <- { ph = fc.current; op; low = st; room } :: fc.noise);
    { run; st; seeded = false }

  let keygen _rng run = { sk = run; rlk = run }
  let secret_key k = k.sk
  let relin_key k = k.rlk

  (* Bgv's guard: every homomorphic op rejects the wire form. *)
  let require_expanded op x =
    if x.seeded then
      invalid_arg ("Cost_model.Symbolic." ^ op ^ ": seeded ciphertext not expanded")

  (* Each operation mirrors the recording discipline of the matching
     Bgv/Plaintext entry point: primary op cell, the whole-polynomial NTT
     passes it triggers, and the coarse Table 1 event. *)

  let encrypt ~counters:c ?level _rng run () =
    let level = match level with Some l -> l | None -> NM.chain_length run.p.nm in
    C.record c C.Encrypt;
    C.record_op c C.Op_encrypt ~level;
    C.record_op c C.Op_ntt_fwd ~level;
    let x = mk run "encrypt" { NM.level; degree = 1; bits = run.fresh_bits } in
    { x with seeded = true }

  let expand ~counters:c x =
    if not x.seeded then x
    else begin
      C.record_op c C.Op_expand ~level:x.st.NM.level;
      { x with seeded = false }
    end

  (* Full decrypt: the sk dot product leaves an Eval-domain accumulator,
     so presenting coefficients always costs one inverse pass. *)
  let decrypt ~counters:c _ x =
    require_expanded "decrypt" x;
    C.record c C.Decrypt;
    C.record_op c C.Op_decrypt ~level:x.st.NM.level;
    C.record_op c C.Op_ntt_inv ~level:x.st.NM.level

  (* decrypt_coeff0 reads the evaluation-domain residues directly. *)
  let decrypt_coeff0 ~counters:c _ x =
    require_expanded "decrypt_coeff0" x;
    C.record c C.Decrypt;
    C.record_op c C.Op_decrypt ~level:x.st.NM.level;
    0L

  let pt_coeffs _ _ = ()
  let pt_const _ _ = ()
  let pack ~counters:c _ _ = C.record_op c C.Op_slot_pack ~level:0

  let unpack ~counters:c () ~len =
    C.record_op c C.Op_slot_unpack ~level:0;
    Array.make len 0L

  let coeffs () ~len = Array.make len 0L

  let add ~counters:c a b =
    require_expanded "add" a;
    require_expanded "add" b;
    C.record c C.Hom_add;
    C.record_op c C.Op_ct_add ~level:(Stdlib.min a.st.NM.level b.st.NM.level);
    mk a.run "add" (NM.add a.st b.st)

  let sub = add

  let add_plain ~counters:c x () =
    require_expanded "add_plain" x;
    C.record c C.Hom_add;
    C.record_op c C.Op_ct_add ~level:x.st.NM.level;
    C.record_op c C.Op_ntt_fwd ~level:x.st.NM.level;
    mk x.run "add_plain" (NM.add_plain x.run.p.nm x.st)

  let add_const ~counters x _ = add_plain ~counters x ()

  (* Bgv.embed: the plaintext's one Coeff→Eval pass, at its level. *)
  let embed ~counters:c _ ~level () =
    C.record_op c C.Op_ntt_fwd ~level;
    level

  (* Bgv.mul_embedded. *)
  let mul_plain ~counters:c x level =
    require_expanded "mul_plain" x;
    if level < x.st.NM.level then
      invalid_arg "Cost_model.Symbolic.mul_plain: plaintext below the ciphertext level";
    C.record c C.Hom_mul_plain;
    C.record_op c C.Op_mul_plain ~level:x.st.NM.level;
    mk x.run "mul_plain" (NM.mul_plain x.run.p.nm x.st)

  (* Bgv.centered_magnitude: the scalar's noise factor is its centered
     residue mod t. *)
  let centered_bits t v =
    let r = Int64.rem v t in
    let r = if Int64.compare r 0L < 0 then Int64.add r t else r in
    let r = if Int64.compare r (Int64.shift_right_logical t 1) > 0 then Int64.sub r t else r in
    log2 (Float.max 1.0 (Int64.to_float (Int64.abs r)))

  let mul_scalar ~counters:c x v =
    require_expanded "mul_scalar" x;
    C.record c C.Hom_mul_plain;
    C.record_op c C.Op_mul_plain ~level:x.st.NM.level;
    mk x.run "mul_scalar" (NM.mul_scalar x.st ~bits:(centered_bits x.run.p.t_plain v))

  let modswitch c x =
    C.record c C.Hom_modswitch;
    let k = x.st.NM.level in
    C.record_op c C.Op_modswitch ~level:k;
    (* Every component is Eval (the scheme's invariant), so each pays the
       inverse pass at the source level and a forward pass below. *)
    C.record_op_n c C.Op_ntt_inv ~level:k (x.st.NM.degree + 1);
    C.record_op_n c C.Op_ntt_fwd ~level:(k - 1) (x.st.NM.degree + 1);
    mk x.run "modswitch" (NM.modswitch x.run.p.nm x.st)

  let rescale_to_floor ~counters x =
    require_expanded "rescale_to_floor" x;
    let nm = x.run.p.nm in
    let rec go x =
      let st = x.st in
      if st.NM.level <= 1 then x
      else
        let predicted =
          NM.log2_add
            (st.NM.bits -. nm.NM.moduli_bits.(st.NM.level - 1))
            (NM.switch_floor_bits nm ~degree:st.NM.degree)
        in
        if predicted < st.NM.bits -. 0.5 then go (modswitch counters x) else x
    in
    go x

  (* Recorded truncation (Bgv.truncate_to_level ~counters): a cell only
     when components are actually dropped. *)
  let truncate ~counters:c x level =
    if level >= x.st.NM.level then x
    else begin
      C.record_op c C.Op_level_drop ~level;
      (* The expansion is limb-major: a wire form stays seeded. *)
      { (mk x.run "truncate" (NM.truncate x.st ~level)) with seeded = x.seeded }
    end

  (* The silent alignments inside add/mul/mul_sum/eval_poly. *)
  let align x level =
    if level >= x.st.NM.level then x else { x with st = NM.truncate x.st ~level }

  let relinearize c x =
    let p = x.run.p in
    C.record c C.Hom_relin;
    let k = x.st.NM.level in
    C.record_op c C.Op_key_switch ~level:k;
    (* key_switch_digits: the tensor component is Eval, one inverse pass;
       then ndigits digit polynomials embed Coeff→Eval. *)
    let w = p.relin_digit_bits in
    let ndigits = Stdlib.min p.relin_rows ((p.q_ibits.(k - 1) + w - 1) / w) in
    C.record_op c C.Op_ntt_inv ~level:k;
    C.record_op_n c C.Op_ntt_fwd ~level:k ndigits;
    let added =
      p.nm.NM.t_bits
      +. log2 (float_of_int ndigits)
      +. log2 (float_of_int p.nm.NM.n)
      +. float_of_int w
      +. log2 p.nm.NM.eta
    in
    mk x.run "relinearize"
      { x.st with NM.degree = 1; NM.bits = NM.log2_add x.st.NM.bits added }

  let mul ~counters:c ?rlk ?(rescale = true) a b =
    require_expanded "mul" a;
    require_expanded "mul" b;
    C.record c C.Hom_mul;
    C.record_op c C.Op_ct_mul ~level:(Stdlib.min a.st.NM.level b.st.NM.level);
    let x = mk a.run "mul" (NM.mul a.run.p.nm a.st b.st) in
    let x = if Option.is_some rlk && x.st.NM.degree = 2 then relinearize c x else x in
    if rescale then rescale_to_floor ~counters:c x else x

  (* Bgv.mul_sum: operands aligned to the common minimum level; the fused
     fast path without relinearisation, the exact mul-then-add fold with
     it; the noise bound folded in term order either way. *)
  let mul_sum ~counters:c ?jobs:_ ?rlk a b =
    let m = Array.length a in
    if m = 0 || Array.length b <> m then
      invalid_arg "Cost_model.Symbolic.mul_sum: empty or mismatched inputs";
    Array.iter (require_expanded "mul_sum") a;
    Array.iter (require_expanded "mul_sum") b;
    let lvl =
      let mn acc x = Stdlib.min acc x.st.NM.level in
      Array.fold_left mn (Array.fold_left mn a.(0).st.NM.level a) b
    in
    let a = Array.map (fun x -> align x lvl) a and b = Array.map (fun x -> align x lvl) b in
    if Option.is_some rlk then begin
      let acc = ref (mul ~counters:c ?rlk ~rescale:false a.(0) b.(0)) in
      for i = 1 to m - 1 do
        acc := add ~counters:c !acc (mul ~counters:c ?rlk ~rescale:false a.(i) b.(i))
      done;
      !acc
    end
    else begin
      C.record_n c C.Hom_mul m;
      C.record_n c C.Hom_add (m - 1);
      C.record_op_n c C.Op_ct_mul ~level:lvl m;
      C.record_op_n c C.Op_ct_add ~level:lvl (m - 1);
      let log2_n = log2 (float_of_int a.(0).run.p.nm.NM.n) in
      let term i = log2_n +. a.(i).st.NM.bits +. b.(i).st.NM.bits in
      let bits = ref (term 0) and degree = ref 0 in
      for i = 0 to m - 1 do
        if i > 0 then bits := NM.log2_add !bits (term i);
        degree := Stdlib.max !degree (a.(i).st.NM.degree + b.(i).st.NM.degree)
      done;
      mk a.(0).run "mul_sum" { NM.level = lvl; degree = !degree; bits = !bits }
    end

  (* Bgv.eval_poly: Horner with the leading coefficient as a scalar. *)
  let eval_poly ~counters ?rlk ~coeffs x =
    require_expanded "eval_poly" x;
    let d = Array.length coeffs - 1 in
    if d = 0 then add_const ~counters (mul_scalar ~counters x 0L) coeffs.(0)
    else begin
      let acc = ref (mul_scalar ~counters x coeffs.(d)) in
      for i = d - 1 downto 0 do
        if i < d - 1 then acc := mul ~counters ?rlk !acc (align x !acc.st.NM.level);
        acc := add_const ~counters !acc coeffs.(i)
      done;
      !acc
    end

  let level x = x.st.NM.level
  let noise_bits x = x.st.NM.bits
  let noise_budget_bits x = NM.headroom x.run.p.nm x.st

  (* The exact Bgv.byte_size formula: (degree+1) residue polynomials per
     remaining prime at 4 bytes a coefficient plus the fixed header; a
     seeded ciphertext carries c0 and an 8-byte seed instead. *)
  let byte_size x =
    let poly = x.st.NM.level * x.run.p.nm.NM.n * 4 in
    if x.seeded then 40 + poly + 8 else 40 + ((x.st.NM.degree + 1) * poly)

  (* Bgv.relin_key_bytes: the header plus (b_j, a_j) per gadget row at
     the full chain. *)
  let relin_key_bytes run =
    let nm = run.p.nm in
    40 + (run.p.relin_rows * 2 * NM.chain_length nm * nm.NM.n * 4)

  (* Driver hooks: a phase's ledger is each watched party's counter
     delta across it; sends append to the symbolic transcript. *)
  let phase run parties name f =
    let before = List.map (fun (_, c) -> C.copy c) parties in
    let outer = run.fc.current in
    run.fc.current <- name;
    let x = f () in
    run.fc.current <- outer;
    List.iter2
      (fun (party, c) b ->
        run.rev_phases <- { phase = name; party; counters = C.diff c b } :: run.rev_phases)
      parties before;
    x

  let send run ~sender ~receiver ~label ~bytes =
    Transcript.send run.tr ~sender ~receiver ~label ~bytes

  let prediction run =
    let phases = List.rev run.rev_phases in
    let total party =
      let acc = C.create () in
      List.iter
        (fun ph -> if String.equal ph.party party then C.absorb ~into:acc ph.counters)
        phases;
      acc
    in
    { phases;
      party_a = total "party-a";
      party_b = total "party-b";
      client = total "client";
      ab_bytes = Transcript.bytes_between run.tr Transcript.Party_a Transcript.Party_b;
      transcript = run.tr }

  let report ?margin_bits run =
    let steps =
      List.rev_map
        (fun pt ->
          { NM.op = pt.ph ^ "/" ^ pt.op; s_level = pt.low.NM.level;
            s_bits = pt.low.NM.bits; s_headroom = pt.room })
        run.fc.noise
    in
    NM.report_of_steps ?margin_bits steps
end

(* ------------------------------------------------------------------ *)
(* Calibrated time prediction                                          *)
(* ------------------------------------------------------------------ *)

type unit_costs = float array array

(* Composite operations already include the NTT passes they trigger in
   their measured unit cost, so the ledger's NTT census rows are
   attribution detail, not an extra term — summing them too would count
   the same microseconds twice. *)
let primary_op = function
  | C.Op_ntt_fwd | C.Op_ntt_inv -> false
  | _ -> true

let predict_seconds ~unit_costs counters =
  List.fold_left
    (fun acc (op, level, count) ->
      if not (primary_op op) then acc
      else
        let i = C.op_index op in
        if i < Array.length unit_costs && level < Array.length unit_costs.(i) then
          acc +. (float_of_int count *. unit_costs.(i).(level))
        else acc)
    0.0
    (C.ledger_entries counters)

(* ------------------------------------------------------------------ *)
(* Comms-aware end-to-end time                                         *)
(* ------------------------------------------------------------------ *)

type end_to_end = {
  e2e_profile : Profile.t;
  compute_party_s : (string * float) list;
  compute_s : float;
  wire_s : float;
  total_s : float;
  timeline : Clock.timeline;
}

(* The protocol is a strict sequential exchange — every phase waits for
   the previous phase's message — so the compute critical path is the sum
   of all phases, attributed per party for the breakdown; the wire term
   is the Clock replay of the predicted transcript (serialization + the
   causal chain of RTT/2 hops, i.e. rounds × RTT + bytes/bandwidth).
   Rounds and bytes agree exactly with a live run's replay because the
   symbolic transcript reproduces the live message structure; the time
   split only disagrees through the calibrated unit costs. *)
let predict_end_to_end ~unit_costs ~profile pred =
  let order = ref [] in
  let totals = Hashtbl.create 4 in
  List.iter
    (fun ph ->
      let s = predict_seconds ~unit_costs ph.counters in
      match Hashtbl.find_opt totals ph.party with
      | Some acc -> Hashtbl.replace totals ph.party (acc +. s)
      | None ->
        order := ph.party :: !order;
        Hashtbl.add totals ph.party s)
    pred.phases;
  let compute_party_s =
    List.rev_map (fun party -> (party, Hashtbl.find totals party)) !order
  in
  let compute_s = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 compute_party_s in
  let timeline = Clock.replay profile pred.transcript in
  let wire_s = timeline.Clock.end_to_end_s in
  { e2e_profile = profile;
    compute_party_s;
    compute_s;
    wire_s;
    total_s = compute_s +. wire_s;
    timeline }

(* ------------------------------------------------------------------ *)
(* Unit-cost model: extrapolating one calibration across (n, chain)    *)
(* ------------------------------------------------------------------ *)

(* The planner prices candidate parameter sets at ring degrees and chain
   lengths that were never calibrated.  Each op kind has a known analytic
   work shape in (ring degree, active primes) — NTT-bound ops scale as
   level·n·lg n, pointwise ops as level·n, key switching as level²·n·lg n
   because the digit count grows with the modulus — so one measured table
   pins a single seconds-per-work-unit scale per op, and any other shape
   is priced by re-evaluating the basis. *)

type unit_model = { scales : float array }

let op_basis ~n ~level op =
  let fn = float_of_int n in
  let lg = log2 fn in
  let lvl = float_of_int (Stdlib.max 1 level) in
  match op with
  | C.Op_ct_add | C.Op_ct_mul | C.Op_level_drop | C.Op_expand -> lvl *. fn
  | C.Op_encrypt | C.Op_decrypt | C.Op_mul_plain | C.Op_modswitch
  | C.Op_ntt_fwd | C.Op_ntt_inv ->
    lvl *. fn *. lg
  | C.Op_key_switch -> lvl *. lvl *. fn *. lg
  | C.Op_slot_pack | C.Op_slot_unpack -> fn *. lg

let fit_unit_model ~n (costs : unit_costs) =
  let scales = Array.make C.num_ops 0.0 in
  Array.iter
    (fun op ->
      let i = C.op_index op in
      if i < Array.length costs then begin
        let num = ref 0.0 and den = ref 0.0 in
        Array.iteri
          (fun level c ->
            if c > 0.0 then begin
              let b = op_basis ~n ~level op in
              num := !num +. (c *. b);
              den := !den +. (b *. b)
            end)
          costs.(i);
        if !den > 0.0 then scales.(i) <- !num /. !den
      end)
    C.all_ops;
  { scales }

let unit_costs_for model ~n ~levels =
  let costs = Array.make_matrix C.num_ops (Stdlib.max 1 levels + 1) 0.0 in
  Array.iter
    (fun op ->
      let i = C.op_index op in
      let s = model.scales.(i) in
      if s > 0.0 then
        match op with
        | C.Op_slot_pack | C.Op_slot_unpack ->
          costs.(i).(0) <- s *. op_basis ~n ~level:0 op
        | _ ->
          for level = 1 to levels do
            costs.(i).(level) <- s *. op_basis ~n ~level op
          done)
    C.all_ops;
  costs
