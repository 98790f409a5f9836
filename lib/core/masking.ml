type t = { coeffs : int64 array }

let degree m = Array.length m.coeffs - 1
let coeffs m = Array.copy m.coeffs

let log2 x = log x /. log 2.0

let max_coeff_bits ~t_plain ~input_bits ~degree =
  if degree < 1 then invalid_arg "Masking.max_coeff_bits: degree < 1";
  (* Need (2^C - 1) * (D+1) * 2^(D*N) < t, i.e.
     C < log2 t - D*N - log2 (D+1). *)
  let budget =
    log2 (Int64.to_float t_plain)
    -. (float_of_int degree *. float_of_int input_bits)
    -. log2 (float_of_int (degree + 1))
  in
  Stdlib.max 0 (int_of_float (floor (budget -. 1e-9)))

(* 2^C for the clamped coefficient width C: draws are uniform in [1, 2^C). *)
let coeff_bound ~t_plain ~input_bits ~degree coeff_bits =
  let sound = max_coeff_bits ~t_plain ~input_bits ~degree in
  let c =
    match coeff_bits with
    | None -> sound
    | Some c -> Stdlib.min c sound
  in
  if c < 1 then
    invalid_arg
      (Printf.sprintf
         "Masking.draw: no sound coefficient width for t=%Ld, %d input bits, degree %d \
          (reduce the degree or rescale the data)"
         t_plain input_bits degree);
  Int64.shift_left 1L c

let draw rng ~t_plain ~input_bits ~degree ?coeff_bits () =
  let upper = coeff_bound ~t_plain ~input_bits ~degree coeff_bits in
  let coeffs =
    Array.init (degree + 1) (fun _ ->
        Int64.succ (Util.Rng.int64_below rng (Int64.pred upper)))
  in
  { coeffs }

let largest ~t_plain ~input_bits ~degree ?coeff_bits () =
  let upper = coeff_bound ~t_plain ~input_bits ~degree coeff_bits in
  { coeffs = Array.make (degree + 1) (Int64.pred upper) }

let eval m x =
  if Int64.compare x 0L < 0 then invalid_arg "Masking.eval: negative input";
  let d = degree m in
  let acc = ref m.coeffs.(d) in
  for i = d - 1 downto 0 do
    acc := Int64.add (Int64.mul !acc x) m.coeffs.(i)
  done;
  !acc

let eval_mod m ~t_plain x =
  let d = degree m in
  let x = Mod64.reduce t_plain x in
  let acc = ref (Mod64.reduce t_plain m.coeffs.(d)) in
  for i = d - 1 downto 0 do
    acc := Mod64.add t_plain (Mod64.mul t_plain !acc x) (Mod64.reduce t_plain m.coeffs.(i))
  done;
  !acc

let is_monotone_on m ~max_input =
  (* All coefficients positive ⇒ strictly increasing on x >= 0, provided
     evaluation at the endpoint does not overflow int64. *)
  Int64.compare max_input 0L >= 0
  && Array.for_all (fun a -> Int64.compare a 0L > 0) m.coeffs
  && Int64.compare (eval m max_input) 0L > 0

let pp ppf m =
  let d = degree m in
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun i a ->
      if i = 0 then Format.fprintf ppf "%Ld" a
      else Format.fprintf ppf " + %Ld·x^%d" a i)
    m.coeffs;
  Format.fprintf ppf " (degree %d)@]" d
