type view = { masked_distances : int64 array; selected : int array; block_width : int option }

let view_multiset (v : view) =
  let a = Array.copy v.masked_distances in
  Array.sort Int64.compare a;
  a

let equidistant_group_sizes v =
  let sorted = view_multiset v in
  let groups = ref [] in
  let run = ref 1 in
  for i = 1 to Array.length sorted - 1 do
    if Int64.equal sorted.(i) sorted.(i - 1) then incr run
    else begin
      if !run > 1 then groups := !run :: !groups;
      run := 1
    end
  done;
  if !run > 1 then groups := !run :: !groups;
  Array.of_list (List.rev !groups)

let equidistant_pairs v =
  Array.fold_left (fun acc g -> acc + (g * (g - 1) / 2)) 0 (equidistant_group_sizes v)

let recovers_true_order v true_dists =
  let masked = view_multiset v in
  let dists = Array.copy true_dists in
  Array.sort Int.compare dists;
  Array.length masked = Array.length dists
  &&
  (* Order-preservation: equal true distances <-> equal masked values,
     strictly smaller <-> strictly smaller, position by position in the
     two sorted sequences. *)
  let ok = ref true in
  for i = 1 to Array.length dists - 1 do
    let same_true = dists.(i) = dists.(i - 1) in
    let same_masked = Int64.equal masked.(i) masked.(i - 1) in
    if same_true <> same_masked then ok := false;
    if (not same_true) && Int64.compare masked.(i) masked.(i - 1) <= 0 then ok := false
  done;
  !ok

let mask_hides_values v true_dists =
  let masked = v.masked_distances in
  let as_set = Hashtbl.create 16 in
  Array.iter (fun d -> Hashtbl.replace as_set (Int64.of_int d) ()) true_dists;
  not (Array.exists (fun m -> Hashtbl.mem as_set m) masked)
