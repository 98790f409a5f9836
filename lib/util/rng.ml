type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = seed }

let of_int seed = create (Int64.of_int seed)

(* splitmix64 finaliser: xor-shift-multiply chain with full avalanche. *)
let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  (* A second mixing round decorrelates the child stream from the parent. *)
  create (mix (Int64.logxor seed 0xA0761D6478BD642FL))

let copy t = { state = t.state }

(* [mix] is a bijection, so a raw draw given away is the stream state
   given away; a published seed goes through MD5 first. *)
let public_seed t =
  let b = Stdlib.Bytes.create 8 in
  Stdlib.Bytes.set_int64_le b 0 (bits64 t);
  String.get_int64_le (Digest.bytes (Stdlib.Bytes.cat (Stdlib.Bytes.of_string "sknn-seed") b)) 0

let int64_below t bound =
  if Int64.compare bound 0L <= 0 then invalid_arg "Rng.int64_below: bound <= 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let rec loop () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r bound in
    (* Accept unless r falls in the final partial block. *)
    if Int64.compare (Int64.sub r v) (Int64.sub Int64.max_int (Int64.sub bound 1L)) > 0
    then loop ()
    else v
  in
  loop ()

let int_below t bound =
  if bound <= 0 then invalid_arg "Rng.int_below: bound <= 0";
  Int64.to_int (int64_below t (Int64.of_int bound))

(* The draws of [int_below] in a loop whose int64 state stays unboxed:
   the per-call form allocates a box per state update and result, which
   dominates the uniform ring samples behind seed expansion. *)
let fill_below t bound dst =
  if bound <= 0 then invalid_arg "Rng.fill_below: bound <= 0";
  let b = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.sub b 1L) in
  let state = ref t.state in
  for i = 0 to Array.length dst - 1 do
    let v = ref (-1L) in
    while (!v : int64) < 0L do
      state := Int64.add !state golden_gamma;
      let r = Int64.shift_right_logical (mix !state) 1 in
      let x = Int64.rem r b in
      if (Int64.sub r x : int64) <= limit then v := x
    done;
    dst.(i) <- Int64.to_int !v
  done;
  t.state <- !state

let int_range t lo hi =
  if hi < lo then invalid_arg "Rng.int_range: hi < lo";
  lo + int_below t (hi - lo + 1)

let bool t = Int64.logand (bits64 t) 1L = 1L

let float t =
  (* 53 top bits, scaled into [0,1). *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0)

let gaussian t ~mu ~sigma =
  let rec nonzero () =
    let u = float t in
    if u <= 0.0 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let bytes t n =
  let b = Stdlib.Bytes.create n in
  for i = 0 to n - 1 do
    Stdlib.Bytes.set b i (Char.chr (int_below t 256))
  done;
  b
