(* Log2-domain replica of Bgv's noise bookkeeping, over plain numeric
   parameters so it can run before any ciphertext exists (and without
   this library depending on the scheme).  Every formula mirrors the
   tracked bound in lib/bgv/bgv.ml; test_obs cross-checks the two. *)

type params = {
  n : int;              (* ring degree *)
  t_bits : float;       (* log2 of the plaintext modulus *)
  moduli_bits : float array; (* log2 of each RNS chain prime, in order *)
  eta : float;          (* CBD noise parameter *)
}

type state = {
  level : int;   (* active RNS primes *)
  degree : int;  (* ciphertext degree (components - 1) *)
  bits : float;  (* log2 bound on the decryption noise term *)
}

let log2 x = log x /. log 2.0

let log2_add a b =
  let hi = Float.max a b and lo = Float.min a b in
  hi +. log2 (1.0 +. (2.0 ** (lo -. hi)))

let log2_n p = log2 (float_of_int p.n)

let make ~n ~t_plain ~moduli ~eta =
  { n;
    t_bits = log2 (Int64.to_float t_plain);
    moduli_bits = Array.map (fun m -> log2 (float_of_int m)) moduli;
    eta = float_of_int eta }

(* A fresh seeded secret-key ciphertext: |t·e + m| <= t·(eta + 1/2). *)
let fresh_noise_bits p = p.t_bits +. log2 (p.eta +. 0.5)

let switch_floor_bits p ~degree =
  let n = float_of_int p.n in
  let rec sum acc i = if i > degree then acc else sum (acc +. (n ** float_of_int i)) (i + 1) in
  p.t_bits -. 1.0 +. log2 (sum 0.0 0)

let log2_q p ~level =
  let acc = ref 0.0 in
  for i = 0 to Stdlib.min level (Array.length p.moduli_bits) - 1 do
    acc := !acc +. p.moduli_bits.(i)
  done;
  !acc

let headroom p st = log2_q p ~level:st.level -. 1.0 -. st.bits

let chain_length p = Array.length p.moduli_bits

let fresh_at p ~level = { level; degree = 1; bits = fresh_noise_bits p }
let fresh p = fresh_at p ~level:(chain_length p)

let add a b =
  { level = Stdlib.min a.level b.level;
    degree = Stdlib.max a.degree b.degree;
    bits = log2_add a.bits b.bits }

let sub = add
let add_plain p st = { st with bits = log2_add st.bits (p.t_bits -. 1.0) }
let mul_plain p st = { st with bits = st.bits +. log2_n p +. p.t_bits -. 1.0 }
let mul_scalar st ~bits = { st with bits = st.bits +. Float.max 0.0 bits }

let mul p a b =
  { level = Stdlib.min a.level b.level;
    degree = a.degree + b.degree;
    bits = log2_n p +. a.bits +. b.bits }

let sum st ~terms = { st with bits = st.bits +. log2 (float_of_int terms) }

let modswitch p st =
  if st.level <= 1 then invalid_arg "Noise_model.modswitch: already at the last level";
  { st with
    level = st.level - 1;
    bits =
      log2_add
        (st.bits -. p.moduli_bits.(st.level - 1))
        (switch_floor_bits p ~degree:st.degree) }

let rescale_to_floor p st =
  let rec go st =
    if st.level <= 1 then st
    else
      let predicted =
        log2_add
          (st.bits -. p.moduli_bits.(st.level - 1))
          (switch_floor_bits p ~degree:st.degree)
      in
      if predicted < st.bits -. 0.5 then go (modswitch p st) else st
  in
  go st

let truncate st ~level =
  if level < 1 || level > st.level then invalid_arg "Noise_model.truncate: bad level";
  { st with level }

(* ------------------------------------------------------------------ *)
(* Forecast reports                                                    *)
(* ------------------------------------------------------------------ *)

type step = { op : string; s_level : int; s_bits : float; s_headroom : float }

type report = {
  steps : step list;
  min_headroom_bits : float;
  margin_bits : float;
  below_margin : bool;
}

let report_of_steps ?(margin_bits = 4.0) steps =
  let min_headroom_bits =
    List.fold_left (fun m s -> Float.min m s.s_headroom) infinity steps
  in
  { steps; min_headroom_bits; margin_bits; below_margin = min_headroom_bits < margin_bits }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>noise forecast (margin %.1f bits):@," r.margin_bits;
  List.iter
    (fun s ->
      Format.fprintf ppf "  %-28s level=%-2d noise=%7.1f headroom=%7.1f@," s.op s.s_level
        s.s_bits s.s_headroom)
    r.steps;
  Format.fprintf ppf "  min headroom %.1f bits — %s@]" r.min_headroom_bits
    (if r.below_margin then "BELOW MARGIN" else "ok")
