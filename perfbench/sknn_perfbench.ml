(* End-to-end and per-layer benchmark of the secure k-NN protocol.

   perfbench/run.py builds this program and drives it:

     sknn_perfbench.exe --workload W --seed S --seconds T --trace 0|1
                        [--jobs J] [--tiny] [--out FILE]

   Every workload queries the cervical-cancer-shaped database
   (Uci_like.cervical_cancer, n = 429, d = 32, k = 2) with one client in
   a closed loop: each query is sent only after the previous one has
   returned, and every answer is checked against plaintext k-NN.  The
   seed fixes the database, the queries and all protocol randomness.

   --trace 0 measures through Protocol's entry points alone (deploy,
   prepare_packed, query, query_packed, exact, setup_transcript) plus
   Clock.replay, so reshaping Entities cannot change what the gated
   numbers mean.  --trace 1 also calls the Entities functions in
   protocol order on the deployment's own parties and times each call
   from outside; the spans (name, start, stop, query id) stay in memory
   and are written to the --out file when the run ends.

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}; everything above it is
   the human-readable report. *)

module C = Util.Counters
module E = Entities
module Rng = Util.Rng

let now = Util.Timer.now

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type path = Packed | Plain

type workload = {
  name : string;
  config : unit -> Config.t;
  path : path;
  max_coord : int;  (** coordinates are scaled into [0, max_coord] *)
  min_security_bits : float;  (** the run aborts below this estimate *)
  setup_reps : int;  (** set-ups per untraced run; setup_s is their median *)
  warmup : int;  (** checked but unmeasured queries before the steady loop *)
  min_queries : int;  (** steady queries measured even when --seconds is up *)
  trace_min : int;  (** minimum queries in each half of a traced run *)
}

(* Why each workload exists is recorded beside its name in
   BENCHMARK.json.  In short: secure-packed is the >= 128-bit parameter
   set, where B's indicator encryption dominates; fast-packed exposes
   per-call fixed costs at N = 64 and has enough queries for a p90;
   plain-fig3 is the paper-faithful per-coordinate path, where
   Compute-Distances dominates. *)
let workloads =
  [ { name = "secure-packed";
      config = (fun () -> Config.with_layout Config.Dot_product (Config.secure ()));
      path = Packed;
      max_coord = 63;
      min_security_bits = 128.0;
      setup_reps = 2;
      warmup = 1;
      min_queries = 3;
      trace_min = 2 };
    { name = "fast-packed";
      config = (fun () -> Config.with_mask_degree 1 (Config.standard ()));
      path = Packed;
      max_coord = 255;
      min_security_bits = 0.0;
      setup_reps = 5;
      warmup = 10;
      min_queries = 100;
      trace_min = 20 };
    { name = "plain-fig3";
      config = Config.standard;
      path = Plain;
      max_coord = 255;
      min_security_bits = 0.0;
      setup_reps = 3;
      warmup = 1;
      min_queries = 20;
      trace_min = 3 } ]

(* A tiny instance keeps every code path but shrinks the database, for
   the determinism self-check. *)
let tiny w = { w with setup_reps = 1; warmup = 0; min_queries = 2; trace_min = 1 }

let k = 2

(* The database, the query stream, and the seeds of the deployment and
   of the traced pipeline, all from the one workload seed. *)
let inputs w ~rows ~seed =
  let root = Rng.of_int seed in
  let db =
    Preprocess.scale_to_max ~max_value:w.max_coord
      (Uci_like.cervical_cancer ~n:rows (Rng.split root))
  in
  let qrng = Rng.split root in
  let deploy_rng = Rng.split root in
  let trace_rng = Rng.split root in
  (db, (fun () -> Synthetic.query_like qrng db), deploy_rng, trace_rng)

(* ------------------------------------------------------------------ *)
(* Statistics and small utilities                                      *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between closest ranks; 0 on no samples (the
   run is then reported as incorrect anyway). *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile 0.5 xs
let sum = List.fold_left ( +. ) 0.0

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line -> (
        match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
        | kb -> float_of_int kb /. 1024.0
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> scan ())
    in
    let v = scan () in
    close_in ic;
    v

let plain_answer ~db ~query neighbours =
  let got = Array.map (Distance.squared_euclidean query) neighbours in
  Array.sort Int.compare got;
  got = Plain_knn.kth_smallest_distances ~k ~query db

(* Minimal JSON output; non-finite floats become 0. *)
type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec write_json b = function
  | Num f -> Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.12g" f else "0")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Str s ->
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Arr xs ->
    Buffer.add_char b '[';
    List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; write_json b x) xs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_char b ',';
        write_json b (Str key);
        Buffer.add_char b ':';
        write_json b v)
      kvs;
    Buffer.add_char b '}'

let json_string j =
  let b = Buffer.create 4096 in
  write_json b j;
  Buffer.contents b

(* A metric as the result line carries it. *)
type metric = { m_name : string; value : float; unit_ : string }

let metric m_name unit_ value = { m_name; value; unit_ }

let metrics_json ms =
  Obj (List.map (fun m -> (m.m_name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ])) ms)

(* ------------------------------------------------------------------ *)
(* The untraced protocol loop                                          *)
(* ------------------------------------------------------------------ *)

let deploy w cfg ~jobs ~db rng =
  let dep = Protocol.deploy ~rng:(Rng.copy rng) ~jobs cfg ~db in
  (match w.path with Packed -> Protocol.prepare_packed dep | Plain -> ());
  dep

let protocol_query w dep ~query =
  match w.path with
  | Packed -> Protocol.query_packed dep ~query ~k
  | Plain -> Protocol.query dep ~query ~k

(* The ledger op kinds reported per query, summed over A, B and the
   client. *)
let reported_ops =
  C.[ Op_encrypt; Op_decrypt; Op_ct_mul; Op_mul_plain; Op_ct_add; Op_modswitch;
      Op_slot_pack; Op_slot_unpack ]

type sample = {
  wall_s : float;
  cpu_s : float;
      (** process CPU seconds over the query, all domains: the compute a
          query costs.  Time the hypervisor steals from a vCPU inflates
          wall time but not this. *)
  transcript : Transcript.t;
  ops : int list;  (** in [reported_ops] order *)
  minor_words : float;
  major_collections : int;
}

let wan_s s = (Clock.replay Profile.wan s.transcript).Clock.end_to_end_s
let lan_s s = (Clock.replay Profile.lan s.transcript).Clock.end_to_end_s
let query_bytes s = Transcript.total_bytes s.transcript
let ab_rounds s = Transcript.rounds s.transcript Transcript.Party_a Transcript.Party_b

type tally = { mutable attempted : int; mutable failed : int }

let failure tally what e =
  tally.failed <- tally.failed + 1;
  Printf.eprintf "perfbench: %s failed: %s\n%!" what (Printexc.to_string e)

(* Runs [warmup] checked queries, then steady queries until at least
   [min_queries] have run and [seconds] have passed.  Returns the
   steady samples of correct answers, and the peak RSS once the first
   [min_queries] steady queries are done: the heap keeps growing with
   the query count (the major GC lags the garbage), so a fixed amount
   of work, not the time window, sets the reported peak.  Failures (a
   wrong answer or any exception, Bgv.Decryption_failure included) go
   to [tally]. *)
let protocol_queries w dep ~db ~next_query ~tally ~warmup ~min_queries ~seconds =
  let one () =
    let query = next_query () in
    tally.attempted <- tally.attempted + 1;
    let g0 = Gc.quick_stat () in
    let c0 = Sys.time () in
    match Util.Timer.time (fun () -> protocol_query w dep ~query) with
    | exception e ->
      failure tally "query" e;
      None
    | r, wall_s ->
      let cpu_s = Sys.time () -. c0 in
      let g1 = Gc.quick_stat () in
      if Protocol.exact dep ~db ~query r then
        Some
          { wall_s;
            cpu_s;
            transcript = r.Protocol.transcript;
            ops =
              List.map
                (fun op ->
                  C.op_total r.Protocol.counters_a op
                  + C.op_total r.Protocol.counters_b op
                  + C.op_total r.Protocol.counters_client op)
                reported_ops;
            minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
            major_collections = g1.Gc.major_collections - g0.Gc.major_collections }
      else begin
        failure tally "query" (Failure "answer differs from plaintext k-NN");
        None
      end
  in
  for _ = 1 to warmup do
    ignore (one ())
  done;
  let t0 = now () in
  let samples = ref [] and steady = ref 0 and rss = ref 0.0 in
  while !steady < min_queries || now () -. t0 < seconds do
    incr steady;
    Option.iter (fun s -> samples := s :: !samples) (one ());
    if !steady = min_queries then rss := peak_rss_mb ()
  done;
  (List.rev !samples, !rss)

let ints f xs = List.map (fun x -> float_of_int (f x)) xs

(* The per-query quantities the determinism self-check compares across
   runs and job counts. *)
let fingerprint samples ~setup_bytes =
  Obj
    ([ ("setup_bytes", Int setup_bytes);
       ("query_bytes", Arr (List.map (fun s -> Int (query_bytes s)) samples));
       ("a_b.rounds", Arr (List.map (fun s -> Int (ab_rounds s)) samples));
       ("wire.wan_s", Arr (List.map (fun s -> Num (wan_s s)) samples));
       ("wire.lan_s", Arr (List.map (fun s -> Num (lan_s s)) samples)) ]
    @ List.mapi
        (fun i op ->
          ( Printf.sprintf "bgv.%s.count" (C.op_name op),
            Arr (List.map (fun s -> Int (List.nth s.ops i)) samples) ))
        reported_ops)

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)
(* ------------------------------------------------------------------ *)

let untraced w cfg ~jobs ~rows ~seed ~seconds =
  let db, next_query, deploy_rng, _ = inputs w ~rows ~seed in
  let tally = { attempted = 0; failed = 0 } in
  (* Each set-up starts from a compacted heap and the same randomness,
     so the repetitions do the same work and only the last deployment
     is alive when the queries run. *)
  let dep = ref None in
  let setup_times =
    List.init w.setup_reps (fun _ ->
        dep := None;
        Gc.compact ();
        let d, s = Util.Timer.time (fun () -> deploy w cfg ~jobs ~db deploy_rng) in
        dep := Some d;
        s)
  in
  let dep = Option.get !dep in
  (* Queries start from a compacted heap, without the set-ups' garbage. *)
  Gc.compact ();
  let samples, rss_mb =
    protocol_queries w dep ~db ~next_query ~tally ~warmup:w.warmup ~min_queries:w.min_queries
      ~seconds
  in
  let setup_bytes = Transcript.total_bytes (Protocol.setup_transcript dep) in
  let walls = List.map (fun s -> s.wall_s) samples in
  let metrics =
    [ metric "setup_s" "s" (median setup_times);
      metric "query_wan_p50_s" "s" (median (List.map (fun s -> s.wall_s +. wan_s s) samples));
      metric "query_bytes" "B" (median (ints query_bytes samples));
      metric "setup_bytes" "B" (float_of_int setup_bytes);
      metric "peak_rss_mb" "MB" rss_mb ]
  in
  let notes =
    [ Printf.sprintf "setup_s is the median of %d set-ups (deploy%s): %s" w.setup_reps
        (match w.path with Packed -> " + prepare_packed" | Plain -> "")
        (String.concat ", " (List.map (Printf.sprintf "%.3f s") setup_times));
      Printf.sprintf "query quantiles over %d steady queries after %d warm-up queries"
        (List.length samples) w.warmup;
      (* Wall and CPU quantiles are reported, not gated.  On a shared
         2-vCPU host the compute time of a secure-packed query moved by
         up to 40% between consecutive runs (every query of a run alike),
         beyond the largest bound the benchmark may set.  The gate on
         query time is query_wan_p50_s; the traced run reports
         query.wall_p50_s and query.cpu_p50_s. *)
      Printf.sprintf "query_p50_s %.6f s, query_p90_s %.6f s (wall; reported, not gated)"
        (median walls) (quantile 0.9 walls);
      Printf.sprintf "query_cpu_p50_s %.6f s (process CPU over both domains; reported, not gated)"
        (median (List.map (fun s -> s.cpu_s) samples));
      Printf.sprintf "peak_rss_mb is VmHWM after set-up and %d warm-up + %d steady queries"
        w.warmup w.min_queries;
      Printf.sprintf "fail_rate %.6g ratio (%d failed of %d attempted)"
        (if tally.attempted = 0 then 0.0
         else float_of_int tally.failed /. float_of_int tally.attempted)
        tally.failed tally.attempted ]
  in
  let detail =
    [ ("setup_times_s", Arr (List.map (fun s -> Num s) setup_times));
      ("query_wall_s", Arr (List.map (fun s -> Num s.wall_s) samples));
      ("query_cpu_s", Arr (List.map (fun s -> Num s.cpu_s) samples));
      ("fingerprint", fingerprint samples ~setup_bytes) ]
  in
  (metrics, notes, detail, tally)

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                        *)
(* ------------------------------------------------------------------ *)

type span = {
  name : string;
  qid : int;  (** -1 for set-up calls *)
  start : float;
  stop : float;
  busy_s : float;  (** summed pool chunk seconds of the call *)
  ledger : C.t;  (** the calling party's counter delta *)
}

let span_s s = s.stop -. s.start

(* The calls of one query, in protocol order; [party_a.select_row] and
   [party_b.indicator] run k times and are summed per query. *)
let query_calls =
  [ "client.encrypt_query"; "party_a.compute_distances"; "party_b.select"; "party_a.permute";
    "party_b.indicator"; "party_a.select_row"; "client.decrypt_result" ]

(* Calls that dispatch work to Util.Pool, with their metric names. *)
let pool_calls =
  [ ("data_owner.encrypt_db", "encrypt_db"); ("party_a.compute_distances", "compute_distances");
    ("party_b.indicator", "indicator"); ("party_a.select_row", "select_row");
    ("client.decrypt_result", "decrypt_result") ]

(* Times one call into an entity and records its span.  The chunk
   observer makes pool workers timestamp their chunks, a cost only
   traced runs pay. *)
let call spans ~qid ~counters name f =
  let before = C.copy counters in
  let busy = ref 0.0 in
  let start = now () in
  let x =
    Util.Pool.with_chunk_observer (fun st -> busy := !busy +. st.Util.Pool.chunk_seconds) f
  in
  let stop = now () in
  spans := { name; qid; start; stop; busy_s = !busy; ledger = C.diff counters before } :: !spans;
  x

(* One query through the deployment's own entities, in the order
   Protocol runs them.  Returns whether the neighbours are exact. *)
let entity_query dep pp spans ~qid ~db ~query rng =
  let a = Protocol.party_a dep and b = Protocol.party_b dep and cl = Protocol.client dep in
  let ca = E.Party_a.counters a and cb = E.Party_b.counters b in
  let cc = E.Client.counters cl in
  let n = Array.length db and d = Array.length db.(0) in
  let call ~counters name f = call spans ~qid ~counters name f in
  let q_enc =
    call ~counters:cc "client.encrypt_query" (fun () ->
        match pp with
        | Some _ -> E.Client.encrypt_query_packed cl rng query
        | None -> E.Client.encrypt_query cl rng query)
  in
  let state, masked =
    call ~counters:ca "party_a.compute_distances" (fun () ->
        match pp with
        | Some pp -> E.Party_a.compute_distances_packed a pp rng q_enc
        | None -> E.Party_a.compute_distances a rng q_enc)
  in
  let view =
    call ~counters:cb "party_b.select" (fun () ->
        match pp with
        | Some _ -> E.Party_b.select_neighbours_packed b masked ~n ~k
        | None -> E.Party_b.select_neighbours b masked ~k)
  in
  let packed =
    call ~counters:ca "party_a.permute" (fun () ->
        match pp with
        | Some pp -> E.Party_a.permuted_return_packed pp state
        | None -> E.Party_a.permuted_packed a state)
  in
  let results =
    Array.init k (fun j ->
        let row =
          call ~counters:cb "party_b.indicator" (fun () -> E.Party_b.indicator_row b rng view ~n ~j)
        in
        call ~counters:ca "party_a.select_row" (fun () -> E.Party_a.select_row a packed row))
  in
  let neighbours =
    call ~counters:cc "client.decrypt_result" (fun () -> E.Client.decrypt_points cl ~d results)
  in
  plain_answer ~db ~query neighbours

(* Per-op unit times at the workload's parameters, by calling Bgv and
   Ntt directly.  [level_of op] is the level at which the traced
   queries recorded [op] most often, the top of the chain if never. *)
let unit_times cfg ~keys ~ledger =
  let params = cfg.Config.bgv in
  let chain = Params.chain_length params in
  let costs = Kernel_bench.Calibration.measure ~quick:true params in
  let level_of op =
    let lvl, _ =
      List.fold_left
        (fun (bl, bn) (o, l, cnt) -> if o = op && cnt > bn then (l, cnt) else (bl, bn))
        (chain, 0) (C.ledger_entries ledger)
    in
    lvl
  in
  let us op = costs.(C.op_index op).(level_of op) *. 1e6 in
  let measure_us f = fst (Kernel_bench.measure ~target:0.02 f) /. 1e3 in
  let rng = Rng.of_int 7 in
  let terms = 16 in
  let enc () =
    Bgv.encrypt ~level:cfg.Config.return_level rng keys.Bgv.pk (Plaintext.constant params 1L)
  in
  let xs = Array.init terms (fun _ -> enc ()) and ys = Array.init terms (fun _ -> enc ()) in
  let mul_sum_us = measure_us (fun () -> ignore (Bgv.mul_sum ~jobs:1 xs ys)) in
  let p = params.Params.moduli.(0) in
  let tbl = Ntt.make_table ~p ~n:params.Params.n in
  let poly = Array.init params.Params.n (fun i -> i mod p) in
  ( costs,
    [ metric "bgv.encrypt_us" "us" (us C.Op_encrypt);
      metric "bgv.decrypt_us" "us" (us C.Op_decrypt);
      metric "bgv.ct_mul_us" "us" (us C.Op_ct_mul);
      metric "bgv.mul_plain_us" "us" (us C.Op_mul_plain);
      metric "bgv.modswitch_us" "us" (us C.Op_modswitch);
      metric "bgv.mul_sum_term_us" "us" (mul_sum_us /. float_of_int terms);
      metric "bgv.key_switch_us" "us" (costs.(C.op_index C.Op_key_switch).(chain) *. 1e6);
      metric "ntt.forward_us" "us" (measure_us (fun () -> Ntt.forward tbl poly));
      metric "ntt.inverse_us" "us" (measure_us (fun () -> Ntt.inverse tbl poly)) ] )

(* Σ count × unit cost over a ledger: the phase time the calibrated
   model predicts. *)
let predicted costs ledger =
  List.fold_left
    (fun acc (op, lvl, cnt) -> acc +. (float_of_int cnt *. costs.(C.op_index op).(lvl)))
    0.0 (C.ledger_entries ledger)

let ledger_string ledger =
  String.concat " "
    (List.map
       (fun (op, lvl, cnt) -> Printf.sprintf "%s@%d=%d" (C.op_name op) lvl cnt)
       (C.ledger_entries ledger))

let traced w cfg ~jobs ~rows ~seed ~seconds =
  let db, next_query, deploy_rng, trace_rng = inputs w ~rows ~seed in
  let tally = { attempted = 0; failed = 0 } in
  let spans = ref [] in
  (* 1. The data owner's set-up, call by call.  Its output is dropped
     before the deployment is built; its keys serve the unit-time
     probes. *)
  let owner_counters = C.create () in
  let r = Rng.copy deploy_rng in
  let owner =
    call spans ~qid:(-1) ~counters:owner_counters "data_owner.keygen" (fun () ->
        E.Data_owner.create (Rng.split r) cfg)
  in
  ignore
    (call spans ~qid:(-1) ~counters:owner_counters "data_owner.encrypt_db" (fun () ->
         E.Data_owner.encrypt_db ~counters:owner_counters ~jobs (Rng.split r) owner db));
  Gc.compact ();
  (* 2. Untraced reference queries through Protocol, for the overhead
     term and the per-query counts, links and GC figures. *)
  let dep = deploy w cfg ~jobs ~db deploy_rng in
  Gc.compact ();
  let half = seconds /. 2.0 in
  let refs, _ =
    protocol_queries w dep ~db ~next_query ~tally ~warmup:w.warmup ~min_queries:w.trace_min
      ~seconds:half
  in
  (* 3. The same queries' work, call by call, on the deployment's own
     parties with the harness's own packed preparation. *)
  let pp =
    match w.path with
    | Plain -> None
    | Packed ->
      Some
        (call spans ~qid:(-1) ~counters:(E.Party_a.counters (Protocol.party_a dep))
           "party_a.prepare" (fun () ->
             E.Party_a.prepare_packed (Protocol.party_a dep) ~db))
  in
  let t0 = now () and qid = ref 0 in
  while !qid < w.trace_min || now () -. t0 < half do
    let query = next_query () in
    tally.attempted <- tally.attempted + 1;
    (match entity_query dep pp spans ~qid:!qid ~db ~query (Rng.split trace_rng) with
     | true -> ()
     | false -> failure tally "traced query" (Failure "answer differs from plaintext k-NN")
     | exception e -> failure tally "traced query" e);
    incr qid
  done;
  let traced_queries = !qid in
  let spans = List.rev !spans in
  (* Per-query sums of each call, then medians over the queries. *)
  let per_query name f =
    List.init traced_queries (fun q ->
        sum (List.filter_map (fun s -> if s.qid = q && s.name = name then Some (f s) else None) spans))
  in
  let setup_span name =
    List.fold_left (fun acc s -> if s.qid < 0 && s.name = name then acc +. span_s s else acc) 0.0 spans
  in
  let call_medians = List.map (fun name -> (name, median (per_query name span_s))) query_calls in
  let ref_p50 = median (List.map (fun s -> s.wall_s) refs) in
  let overhead = ref_p50 -. sum (List.map snd call_medians) in
  (* Unit times, priced at the levels these queries used. *)
  let all_ledger =
    List.fold_left (fun acc s -> if s.qid >= 0 then C.merge acc s.ledger else acc) (C.create ()) spans
  in
  let costs, unit_metrics =
    unit_times cfg ~keys:(E.Data_owner.keys owner) ~ledger:all_ledger
  in
  let pool_metrics =
    List.concat_map
      (fun (name, short) ->
        let busy, wall =
          if List.mem name query_calls then (per_query name (fun s -> s.busy_s), per_query name span_s)
          else
            let s = List.filter (fun s -> s.name = name) spans in
            ([ sum (List.map (fun s -> s.busy_s) s) ], [ sum (List.map span_s s) ])
        in
        let util =
          List.map2 (fun b w -> if w > 0.0 then b /. (float_of_int jobs *. w) else 0.0) busy wall
        in
        [ metric (Printf.sprintf "pool.%s.busy_s" short) "s" (median busy);
          metric (Printf.sprintf "pool.%s.utilization" short) "ratio" (median util) ])
      pool_calls
  in
  let ref_ints f = median (ints f refs) in
  let metrics =
    [ metric "data_owner.keygen_s" "s" (setup_span "data_owner.keygen");
      metric "data_owner.encrypt_db_s" "s" (setup_span "data_owner.encrypt_db");
      metric "party_a.prepare_s" "s" (setup_span "party_a.prepare") ]
    @ List.map (fun (name, m) -> metric (name ^ "_s") "s" m) call_medians
    @ [ metric "protocol.overhead_s" "s" overhead;
        metric "query.wall_p50_s" "s" ref_p50;
        metric "query.cpu_p50_s" "s" (median (List.map (fun s -> s.cpu_s) refs)) ]
    @ List.mapi
        (fun i op ->
          metric (Printf.sprintf "bgv.%s.count" (C.op_name op)) "count"
            (median (List.map (fun s -> float_of_int (List.nth s.ops i)) refs)))
        reported_ops
    @ unit_metrics @ pool_metrics
    @ [ metric "link.client-a.bytes" "B"
          (ref_ints (fun s -> Transcript.bytes_between s.transcript Transcript.Client Transcript.Party_a));
        metric "link.a-b.bytes" "B"
          (ref_ints (fun s -> Transcript.bytes_between s.transcript Transcript.Party_a Transcript.Party_b));
        metric "wire.wan_s" "s" (median (List.map wan_s refs));
        metric "wire.lan_s" "s" (median (List.map lan_s refs));
        metric "a_b.rounds" "count" (ref_ints ab_rounds);
        metric "messages" "count" (ref_ints (fun s -> Transcript.messages s.transcript));
        metric "gc.minor_words_per_query" "words" (median (List.map (fun s -> s.minor_words) refs));
        metric "gc.major_collections_per_query" "count"
          (ref_ints (fun s -> s.major_collections)) ]
  in
  (* The reconciliation table: per-call medians and the overhead add up
     to the untraced p50; beside each call, its ledger priced by the
     calibrated unit costs. *)
  let first_ledger name =
    List.fold_left
      (fun acc s -> if s.qid = 0 && s.name = name then C.merge acc s.ledger else acc)
      (C.create ()) spans
  in
  (* Calibrated unit costs are single-domain, so a pooled call's ledger
     price compares with its summed chunk time, not its wall time. *)
  let row name measured =
    let pred = median (per_query name (fun s -> predicted costs s.ledger)) in
    let work =
      if List.mem_assoc name pool_calls then median (per_query name (fun s -> s.busy_s))
      else measured
    in
    Printf.sprintf "  %-27s %12.6f %12.6f %12.6f %9s  %s" name measured work pred
      (if pred > 0.0 then Printf.sprintf "%.2f" (work /. pred) else "-")
      (ledger_string (first_ledger name))
  in
  let notes =
    [ Printf.sprintf "reconciliation: medians per query over %d traced and %d untraced queries"
        traced_queries (List.length refs);
      Printf.sprintf "  %-27s %12s %12s %12s %9s  %s" "call" "measured_s" "work_s" "ledger_s"
        "work/ledg" "ledger of the first traced query (op@level=count)";
      "  (work_s: summed pool chunk time for pooled calls, else measured_s;";
      "   ledger_s: ledger counts x calibrated single-domain unit costs)" ]
    @ List.map (fun (name, m) -> row name m) call_medians
    @ [ Printf.sprintf "  %-27s %12.6f" "sum of per-call medians" (sum (List.map snd call_medians));
        Printf.sprintf "  %-27s %12.6f" "protocol.overhead_s" overhead;
        Printf.sprintf "  %-27s %12.6f  (untraced, through Protocol)" "= query_p50_s" ref_p50;
        (match w.path with
         | Packed -> "party_a.prepare_s times Party_a.prepare_packed"
         | Plain -> "party_a.prepare_s is 0: the plain path has no preparation step");
        Printf.sprintf "fail_rate %.6g ratio (%d failed of %d attempted)"
          (if tally.attempted = 0 then 0.0
           else float_of_int tally.failed /. float_of_int tally.attempted)
          tally.failed tally.attempted ]
  in
  let detail =
    [ ( "fingerprint",
        Obj
          [ ( "protocol",
              fingerprint refs
                ~setup_bytes:(Transcript.total_bytes (Protocol.setup_transcript dep)) );
            ( "calls",
              Arr
                (List.map (fun s -> Str (s.name ^ " " ^ ledger_string s.ledger))
                   (List.filter (fun s -> s.qid >= 0) spans)) ) ] );
      ( "spans",
        Arr
          (List.map
             (fun s ->
               Obj
                 [ ("name", Str s.name); ("qid", Int s.qid); ("start", Num s.start);
                   ("end", Num s.stop); ("pool_busy_s", Num s.busy_s);
                   ("ledger", Str (ledger_string s.ledger)) ])
             spans) ) ]
  in
  (metrics, notes, detail, tally)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let jobs = ref 2 and tiny_run = ref false and out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "T seconds of steady queries");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--jobs", Arg.Set_int jobs, "J domains per party (default 2)");
      ("--tiny", Arg.Set tiny_run, " a 40-row instance, for the determinism self-check");
      ("--out", Arg.Set_string out, "FILE write the run's samples, spans and fingerprint here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sknn_perfbench.exe --workload W --seed S --seconds T --trace 0|1";
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> if !tiny_run then tiny w else w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "perfbench: --trace must be 0 or 1"; exit 2);
  if !jobs < 1 then (prerr_endline "perfbench: --jobs must be >= 1"; exit 2);
  let cfg = w.config () in
  let rows = if !tiny_run then 40 else 429 in
  let bits = Params.security_bits cfg.Config.bgv in
  if bits < w.min_security_bits then begin
    Printf.eprintf "perfbench: %s runs at %.1f security bits, below its %.0f-bit floor\n" w.name
      bits w.min_security_bits;
    exit 2
  end;
  Printf.printf "workload %s: n=%d d=32 k=%d, %s layout, %s path, N=%d, chain=%d, %.1f-bit \
                 estimate, jobs=%d, seed=%d, ocaml %s\n%!"
    w.name rows k (Config.layout_name cfg.Config.layout)
    (match w.path with Packed -> "packed" | Plain -> "plain")
    cfg.Config.bgv.Params.n (Params.chain_length cfg.Config.bgv) bits !jobs !seed
    Sys.ocaml_version;
  let run = if !trace = 1 then traced else untraced in
  let metrics, notes, detail, tally = run w cfg ~jobs:!jobs ~rows ~seed:!seed ~seconds:!seconds in
  List.iter
    (fun m -> Printf.printf "%-36s %16.6f %s\n" m.m_name m.value m.unit_)
    metrics;
  List.iter print_endline notes;
  if !out <> "" then begin
    let oc = open_out !out in
    output_string oc
      (json_string
         (Obj
            ([ ("workload", Str w.name); ("seed", Int !seed); ("trace", Int !trace);
               ("jobs", Int !jobs); ("rows", Int rows); ("ocaml", Str Sys.ocaml_version);
               ("security_bits", Num bits); ("attempted", Int tally.attempted);
               ("failed", Int tally.failed); ("metrics", metrics_json metrics) ]
            @ detail)));
    output_char oc '\n';
    close_out oc
  end;
  print_endline
    (json_string
       (Obj
          [ ("correct", Bool (tally.failed = 0 && tally.attempted > 0));
            ("attempted", Int tally.attempted); ("failed", Int tally.failed);
            ("metrics", metrics_json metrics) ]))
