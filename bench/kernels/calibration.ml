(* Per-op unit-cost calibration for the cost ledger.

   The ledger (Util.Counters) attributes every ciphertext operation to
   an (op kind, BGV level) cell; this pass measures how many seconds one
   operation of each kind costs at each level of a parameter set's
   modulus chain, producing the unit-cost table the analytic replica
   (Sknn_obs.Cost_model.predict_seconds) prices ledgers with:

     predicted_time = sum over cells of count * unit_cost.

   Measurements use the same adaptive-repetition loop as Kernel_bench
   (not shared: Kernel_bench is the library's main module, so it cannot
   be a dependency of this one).  The NTT census rows (ntt_fwd/ntt_inv)
   stay at zero on purpose: each composite op is measured end to end,
   NTT passes included, so pricing the census too would double-count
   them. *)

module C = Util.Counters

(* [costs.(C.op_index op).(level)] = seconds per op; row 0 of the
   level axis holds the level-free slot ops. *)
type t = float array array

(* Grow the repetition count until the timed loop runs for [target]
   seconds, then report the mean; two untimed calls warm the code and
   working set first. *)
let seconds ~target f =
  f ();
  f ();
  let rec go reps =
    let t0 = Util.Timer.now () in
    for _ = 1 to reps do
      f ()
    done;
    let elapsed = Util.Timer.now () -. t0 in
    if elapsed >= target || reps >= 100_000_000 then elapsed /. float_of_int reps
    else go (reps * 4)
  in
  go 1

(* Measurement window per op.  Quick mode keeps a full-chain calibration
   under a couple of seconds for CI; the default gives ~1% stable means
   on a quiet machine. *)
let target ~quick = if quick then 0.01 else 0.1

let measure ?(quick = false) ?rng (params : Params.t) : t =
  let rng = match rng with Some r -> r | None -> Util.Rng.create 1907L in
  let target = target ~quick in
  let sec f = seconds ~target f in
  let chain = Params.chain_length params in
  let costs = Array.make_matrix C.num_ops (Stdlib.max 1 chain + 1) 0.0 in
  let set op level s = costs.(C.op_index op).(level) <- s in
  let keys = Bgv.keygen rng params in
  let pt = Plaintext.constant params 123L in
  let encrypt ?level () = Bgv.encrypt_sk ?level ~seed:(Util.Rng.public_seed rng) rng keys.Bgv.sk pt in
  let fresh = Bgv.expand (encrypt ()) in
  (* The protocol encrypts with the seeded secret-key form, at the full
     chain and directly at lower levels (Party B's Return-kNN indicators
     at return_level), and its receiver expands each ciphertext at that
     level, so every level gets its own cell of both. *)
  for lvl = 1 to chain do
    set C.Op_encrypt lvl (sec (fun () -> ignore (encrypt ~level:lvl ())));
    let wire = encrypt ~level:lvl () in
    set C.Op_expand lvl (sec (fun () -> ignore (Bgv.expand wire)))
  done;
  (* Slot packing/unpacking is plaintext-side and level-free (row 0).
     to_slots caches its answer per plaintext, so the unpack measurement
     rebuilds an uncached (coefficient-born) plaintext each rep and
     subtracts the rebuild cost. *)
  let slots =
    Array.init (Params.slot_count params) (fun i -> Int64.of_int ((i mod 251) + 1))
  in
  set C.Op_slot_pack 0 (sec (fun () -> ignore (Plaintext.of_slots params slots)));
  let coeffs = Array.init params.Params.n (fun i -> Int64.of_int (i mod 5)) in
  let rebuild = sec (fun () -> ignore (Plaintext.of_coeffs params coeffs)) in
  let both =
    sec (fun () -> ignore (Plaintext.to_slots (Plaintext.of_coeffs params coeffs)))
  in
  set C.Op_slot_unpack 0 (Float.max 0.0 (both -. rebuild));
  (* Per-level ciphertexts come from repeated modulus switching, like
     the live pipeline, so their noise shrinks with the modulus.  The
     decrypt measurement is additionally guarded: levels whose modulus
     cannot hold the plaintext at all (the live path never decrypts
     there, so their ledger cells are always zero) stay at zero cost. *)
  let ladder = Array.make (chain + 1) fresh in
  for lvl = chain - 1 downto 1 do
    ladder.(lvl) <- Bgv.modswitch ladder.(lvl + 1)
  done;
  for lvl = 1 to chain do
    let ct = ladder.(lvl) in
    (try set C.Op_decrypt lvl (sec (fun () -> ignore (Bgv.decrypt keys.Bgv.sk ct)))
     with Bgv.Decryption_failure _ -> ());
    set C.Op_ct_add lvl (sec (fun () -> ignore (Bgv.add ct ct)));
    set C.Op_mul_plain lvl (sec (fun () -> ignore (Bgv.mul_plain ct pt)));
    set C.Op_ct_mul lvl (sec (fun () -> ignore (Bgv.mul ~rescale:false ct ct)));
    let deg2 = Bgv.mul ~rescale:false ct ct in
    set C.Op_key_switch lvl
      (sec (fun () -> ignore (Bgv.relinearize keys.Bgv.rlk deg2)));
    if lvl >= 2 then
      set C.Op_modswitch lvl (sec (fun () -> ignore (Bgv.modswitch ct)));
    (* A level drop records at its target level; dropping to the current
       level is a no-op the live path never records. *)
    if lvl < chain then
      set C.Op_level_drop lvl (sec (fun () -> ignore (Bgv.truncate_to_level fresh lvl)))
  done;
  costs

(* The census rows stay zero; everything else is worth printing. *)
let priced_ops =
  List.filter
    (fun op -> op <> C.Op_ntt_fwd && op <> C.Op_ntt_inv)
    (Array.to_list C.all_ops)

let pp ppf (costs : t) =
  let levels = Array.length costs.(0) - 1 in
  Format.fprintf ppf "%-12s" "op \\ level";
  for lvl = 0 to levels do
    Format.fprintf ppf " %9s" (if lvl = 0 then "slots" else Printf.sprintf "L%d" lvl)
  done;
  Format.fprintf ppf "@.";
  List.iter
    (fun op ->
      let row = costs.(C.op_index op) in
      if Array.exists (fun s -> s > 0.0) row then begin
        Format.fprintf ppf "%-12s" (C.op_name op);
        Array.iter
          (fun s ->
            if s > 0.0 then Format.fprintf ppf " %8.2fus" (s *. 1e6)
            else Format.fprintf ppf " %9s" "-")
          row;
        Format.fprintf ppf "@."
      end)
    priced_ops

(* ------------------------------------------------------------------ *)
(* Cache: measured tables persisted across invocations                 *)
(* ------------------------------------------------------------------ *)

(* A full calibration takes tens of seconds; `sknn cost`, `sknn plan`
   and `bench --json` all want the same table.  The cache file holds one
   JSON line per (params, quick) key, versioned and stamped with the git
   revision and machine fields.  A key match with a stale stamp is still
   usable — unit costs drift with the code and the host, not with the
   inputs — so mismatches produce warnings, not misses. *)

let cache_version = 1

(* The environment the table was measured in.  kernel_bench has no unix
   dependency, so the revision comes from the git CLI via a temp file;
   "unknown" outside a work tree. *)
let git_rev () =
  let tmp = Filename.temp_file "sknn-rev" ".txt" in
  let cleanup () = try Sys.remove tmp with Sys_error _ -> () in
  let rc =
    try
      Sys.command
        (Printf.sprintf "git rev-parse --short HEAD > %s 2>/dev/null"
           (Filename.quote tmp))
    with Sys_error _ -> 1
  in
  let rev =
    if rc <> 0 then "unknown"
    else begin
      let ic = open_in tmp in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      close_in ic;
      if line = "" then "unknown" else line
    end
  in
  cleanup ();
  rev

let machine () =
  Printf.sprintf "%s/%d-bit/%d-domains" Sys.os_type Sys.word_size
    (Domain.recommended_domain_count ())

(* Minimal recursive-descent JSON reader, just enough for the cache's
   own lines: objects, arrays, strings (quote and backslash escapes),
   numbers, bools.  Report/check_regress have their own; this module
   cannot depend on either. *)
module Json = struct
  type v =
    | Obj of (string * v) list
    | Arr of v list
    | Str of string
    | Num of float
    | Bool of bool
    | Null

  exception Bad of string

  let parse (s : string) : v =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else raise (Bad (Printf.sprintf "expected %c at %d" c !pos))
    in
    let string_lit () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then raise (Bad "unterminated string")
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            if !pos + 1 >= n then raise (Bad "bad escape");
            (match s.[!pos + 1] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | c -> Buffer.add_char buf c);
            pos := !pos + 2;
            go ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents buf
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '"' -> Str (string_lit ())
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then (incr pos; Obj [])
        else begin
          let rec members acc =
            skip_ws ();
            let key = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; members ((key, v) :: acc)
            | Some '}' -> incr pos; Obj (List.rev ((key, v) :: acc))
            | _ -> raise (Bad "expected , or } in object")
          in
          members []
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then (incr pos; Arr [])
        else begin
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; elements (v :: acc)
            | Some ']' -> incr pos; Arr (List.rev (v :: acc))
            | _ -> raise (Bad "expected , or ] in array")
          in
          elements []
        end
      | Some 't' -> pos := !pos + 4; Bool true
      | Some 'f' -> pos := !pos + 5; Bool false
      | Some 'n' -> pos := !pos + 4; Null
      | Some _ ->
        let start = !pos in
        while
          !pos < n
          && (match s.[!pos] with
              | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
              | _ -> false)
        do
          incr pos
        done;
        if !pos = start then raise (Bad "unexpected character");
        Num (float_of_string (String.sub s start (!pos - start)))
      | None -> raise (Bad "unexpected end of input")
    in
    let v = value () in
    skip_ws ();
    v

  let mem key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
  let str = function Some (Str s) -> Some s | _ -> None
  let num = function Some (Num f) -> Some f | _ -> None
  let booln = function Some (Bool b) -> Some b | _ -> None
  let arr = function Some (Arr l) -> Some l | _ -> None
end

(* The cache key: the table is only reusable for the shape it was
   measured at, and quick-pass tables are noisier than full ones, so the
   pass kind is part of the key. *)
let cache_key (params : Params.t) ~quick =
  (params.Params.name, params.Params.n, Params.chain_length params, quick)

let entry_key line =
  match
    ( Json.str (Json.mem "params" line),
      Json.num (Json.mem "n" line),
      Json.num (Json.mem "chain" line),
      Json.booln (Json.mem "quick" line) )
  with
  | Some name, Some n, Some chain, Some quick ->
    Some (name, int_of_float n, int_of_float chain, quick)
  | _ -> None

let read_cache_lines file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> List.rev acc
      | line when String.trim line = "" -> go acc
      | line -> go (line :: acc)
    in
    let lines = go [] in
    close_in ic;
    lines
  end

let costs_of_entry (params : Params.t) line =
  let chain = Params.chain_length params in
  let costs = Array.make_matrix C.num_ops (Stdlib.max 1 chain + 1) 0.0 in
  let op_of_name name =
    Array.fold_left
      (fun acc op -> if String.equal (C.op_name op) name then Some op else acc)
      None C.all_ops
  in
  match Json.arr (Json.mem "ops" line) with
  | None -> None
  | Some ops ->
    let ok = ref true in
    List.iter
      (fun cell ->
        match
          ( Json.str (Json.mem "op" cell),
            Json.num (Json.mem "level" cell),
            Json.num (Json.mem "s" cell) )
        with
        | Some name, Some level, Some s ->
          (match op_of_name name with
           | Some op ->
             let level = int_of_float level in
             if level >= 0 && level <= chain then
               costs.(C.op_index op).(level) <- s
           | None -> ok := false)
        | _ -> ok := false)
      ops;
    if !ok then Some costs else None

(* Look the key up; [Ok] carries staleness warnings (git revision or
   machine drift) the caller should surface. *)
let load_cached ~file ?(quick = false) (params : Params.t) :
    (t * string list) option =
  let key = cache_key params ~quick in
  let find line =
    match Json.parse line with
    | exception Json.Bad _ -> None
    | v ->
      if Json.str (Json.mem "rec" v) <> Some "calibration-cache" then None
      else if Json.num (Json.mem "version" v) <> Some (float_of_int cache_version)
      then None
      else if entry_key v <> Some key then None
      else Some v
  in
  match List.filter_map find (read_cache_lines file) with
  | [] -> None
  | line :: _ ->
    (match costs_of_entry params line with
     | None -> None
     | Some costs ->
       let warn field now =
         match Json.str (Json.mem field line) with
         | Some v when not (String.equal v now) ->
           [ Printf.sprintf
               "calibration cache %s: %s was %S, now %S — consider re-measuring \
                (delete the entry or the file)"
               file field v now ]
         | _ -> []
       in
       Some (costs, warn "git_rev" (git_rev ()) @ warn "machine" (machine ())))

let entry_json (params : Params.t) ~quick (costs : t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"rec\":\"calibration-cache\",\"version\":%d,\"git_rev\":%S,\"machine\":%S,\
        \"params\":%S,\"n\":%d,\"chain\":%d,\"quick\":%b,\"ops\":["
       cache_version (git_rev ()) (machine ()) params.Params.name params.Params.n
       (Params.chain_length params) quick);
  let first = ref true in
  Array.iter
    (fun op ->
      Array.iteri
        (fun lvl s ->
          if s > 0.0 then begin
            if not !first then Buffer.add_char buf ',';
            first := false;
            Buffer.add_string buf
              (Printf.sprintf "{\"op\":%S,\"level\":%d,\"s\":%.9g}" (C.op_name op) lvl s)
          end)
        costs.(C.op_index op))
    C.all_ops;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* Replace the entry for this key, keep every other line verbatim. *)
let store_cached ~file ?(quick = false) (params : Params.t) (costs : t) =
  let key = Some (cache_key params ~quick) in
  let others =
    List.filter
      (fun line ->
        match Json.parse line with
        | exception Json.Bad _ -> true
        | v -> entry_key v <> key)
      (read_cache_lines file)
  in
  let oc = open_out file in
  List.iter (fun line -> output_string oc (line ^ "\n")) others;
  output_string oc (entry_json params ~quick costs ^ "\n");
  close_out oc

(* The one entry point the verbs share: cache hit (with any staleness
   warnings), or measure and fill the cache. *)
let measure_cached ?(quick = false) ?rng ?file (params : Params.t) :
    t * string list =
  match file with
  | None -> (measure ~quick ?rng params, [])
  | Some file ->
    (match load_cached ~file ~quick params with
     | Some (costs, warnings) -> (costs, warnings)
     | None ->
       let costs = measure ~quick ?rng params in
       store_cached ~file ~quick params costs;
       (costs, []))

(* One JSON line per table, parseable by Report/check_regress's minimal
   readers: {"rec":"calibration","ops":[{"op":...,"level":...,"s":...}]} *)
let to_json_line (costs : t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"rec\":\"calibration\",\"ops\":[";
  let first = ref true in
  List.iter
    (fun op ->
      Array.iteri
        (fun lvl s ->
          if s > 0.0 then begin
            if not !first then Buffer.add_char buf ',';
            first := false;
            Buffer.add_string buf
              (Printf.sprintf "{\"op\":%S,\"level\":%d,\"s\":%.9g}" (C.op_name op) lvl s)
          end)
        costs.(C.op_index op))
    priced_ops;
  Buffer.add_string buf "]}";
  Buffer.contents buf
