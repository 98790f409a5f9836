module Rng = Util.Rng
module Counters = Util.Counters
module Obs = Sknn_obs.Ctx
module Otrace = Sknn_obs.Trace
module Audit = Sknn_obs.Audit
module Metrics = Sknn_obs.Metrics
module NM = Sknn_obs.Noise_model
module CM = Sknn_obs.Cost_model
module Run = Entities.Run

type deployment = Run.deployment

let config d = d.Run.config
let db_size d = d.Run.db_n
let dimension d = d.Run.db_d
let setup_transcript d = Entities.Live.transcript d.Run.setup
let setup_phase_seconds d = Entities.Live.phase_seconds d.Run.setup
let party_a d = d.Run.a
let party_b d = d.Run.b
let client d = d.Run.cl
let jobs d = Entities.Party_a.jobs d.Run.a
let path = Run.path

(* Fold a finished transcript into the per-party counters: every entry's
   bytes to its sender, and each link's round count to both endpoints.
   This is what makes [Counters.rounds]/[bytes_sent] report measured
   values instead of staying at zero. *)
let tally_transcript tr counter_of =
  List.iter
    (fun (e : Transcript.entry) ->
      match counter_of e.Transcript.sender with
      | None -> ()
      | Some c -> Counters.record c (Counters.Bytes_sent e.Transcript.bytes))
    (Transcript.entries tr);
  List.iter
    (fun ((x, y), _) ->
      let r = Transcript.rounds tr x y in
      let add p = match counter_of p with
        | None -> ()
        | Some c -> Counters.record_n c Counters.Round r
      in
      add x; add y)
    (Transcript.links tr)

(* ------------------------------------------------------------------ *)
(* Setup and its noise guard                                           *)
(* ------------------------------------------------------------------ *)

let forecast ~margin_bits config ~n ~d path =
  Planner.forecast ~margin_bits (Attribution.model_params config ~n ~d ~k:1) path

let forecast_noise ?(margin_bits = 4.0) d =
  forecast ~margin_bits (config d) ~n:(db_size d) ~d:(dimension d) (Run.path d)

(* Before a prepared state is built, the worst-case symbolic run of its
   path is audited; a forecast below the margin warns (audit entry,
   flight event, stderr) instead of letting a query die mid-flight. *)
let guard obs config ~db path =
  let margin_bits = 4.0 in
  let forecast =
    forecast ~margin_bits config ~n:(Array.length db) ~d:(Array.length db.(0)) path
  in
  Obs.audit obs ~party:"party-a" ~phase:"prepare-db" ~label:"noise-min-headroom-bits"
    (Audit.Float forecast.NM.min_headroom_bits);
  if forecast.NM.below_margin then begin
    Obs.audit obs ~party:"party-a" ~phase:"prepare-db" ~label:"noise-low-headroom-warning"
      (Audit.Str (Format.asprintf "%a" NM.pp_report forecast));
    Obs.warn obs ~name:"noise-low-headroom" ~x:forecast.NM.min_headroom_bits ();
    Format.eprintf
      "[sknn] warning: noise forecast predicts %.1f bits minimum headroom (margin %.1f) \
       — deepen the modulus chain or lower the circuit depth@."
      forecast.NM.min_headroom_bits margin_bits
  end

let deploy ?(obs = Obs.disabled) ?rng ?counters ?jobs ?(path = CM.Plain) config ~db =
  let rng = match rng with Some r -> r | None -> Rng.of_int 0x5ecdb in
  let jobs = match jobs with Some j -> j | None -> Util.Pool.default_jobs () in
  (* An empty database is Run.deploy's error to report. *)
  if path <> CM.Plain && Array.length db > 0 then guard obs config ~db path;
  let setup = Entities.Live.env ~obs () in
  let d = Run.deploy ~obs ?counters ~jobs ~path setup rng config ~db in
  tally_transcript (setup_transcript d) (function
    | Transcript.Data_owner -> counters
    | _ -> None);
  d

type result = {
  neighbours : int array array;
  k : int;
  phase_seconds : (string * float) list;
  transcript : Transcript.t;
  counters_a : Util.Counters.t;
  counters_b : Util.Counters.t;
  counters_client : Util.Counters.t;
  view_b : Entities.Party_b.view;
  net : Clock.timeline option;
}

(* Post-query network accounting for a --net run: replay the finished
   transcript into a virtual timeline, export the per-link figures as
   sknn_link_* metric families, and hand the trace one wire event per
   message for the virtual-network lanes. *)
let observe_net obs tr = function
  | None -> None
  | Some prof ->
    let tl = Clock.replay prof tr in
    (match Obs.metrics obs with
     | None -> ()
     | Some m ->
       List.iter
         (fun (l : Clock.link) ->
           let key =
             Printf.sprintf "link.%s-%s" (Transcript.party_name l.Clock.link_a)
               (Transcript.party_name l.Clock.link_b)
           in
           Metrics.set (Metrics.gauge m (key ^ ".busy_seconds")) l.Clock.busy_s;
           Metrics.inc ~by:l.Clock.link_rounds (Metrics.counter m (key ^ ".rounds")))
         tl.Clock.links;
       Metrics.set (Metrics.gauge m "net.end_to_end_seconds") tl.Clock.end_to_end_s);
    let trace = Obs.trace obs in
    if Otrace.is_enabled trace then
      List.iter
        (fun (msg : Clock.message) ->
          let e = msg.Clock.entry in
          let x, y =
            if e.Transcript.sender < e.Transcript.receiver then
              (e.Transcript.sender, e.Transcript.receiver)
            else (e.Transcript.receiver, e.Transcript.sender)
          in
          Otrace.add_wire trace
            ~link:(Transcript.party_name x ^ "<->" ^ Transcript.party_name y)
            ~label:e.Transcript.label
            ~args:
              [ ("seq", string_of_int e.Transcript.seq);
                ("from", Transcript.party_name e.Transcript.sender);
                ("to", Transcript.party_name e.Transcript.receiver);
                ("bytes", string_of_int e.Transcript.bytes) ]
            ~start:msg.Clock.departure_s
            ~dur:(msg.Clock.arrival_s -. msg.Clock.departure_s)
            ())
        tl.Clock.messages;
    Some tl

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* The one query driver, on the live backend. *)
let query ?(obs = Obs.disabled) ?rng ?net d ~query ~k =
  let rng = match rng with Some r -> r | None -> Rng.split d.Run.query_seed in
  let env = Entities.Live.env ~obs ?net () in
  let out = Run.query ~obs env d rng ~query ~k in
  let tr = Entities.Live.transcript env in
  let ca = Entities.Party_a.counters (party_a d) in
  let cb = Entities.Party_b.counters (party_b d) in
  let cc = Entities.Client.counters (client d) in
  tally_transcript tr (function
    | Transcript.Party_a -> Some ca
    | Transcript.Party_b -> Some cb
    | Transcript.Client -> Some cc
    | Transcript.Data_owner -> None);
  (match Obs.metrics obs with
   | None -> ()
   | Some m ->
     List.iter
       (fun ((x, y), bytes) ->
         Metrics.set
           (Metrics.gauge m
              (Printf.sprintf "transcript.%s-%s.bytes" (Transcript.party_name x)
                 (Transcript.party_name y)))
           (float_of_int bytes))
       (Transcript.links tr);
     List.iter
       (fun (party, c) -> Metrics.record_ledger m ~party c)
       [ ("party-a", ca); ("party-b", cb); ("client", cc) ]);
  let net = observe_net obs tr net in
  { neighbours = out.Run.neighbours;
    k;
    phase_seconds = Entities.Live.phase_seconds env;
    transcript = tr;
    counters_a = ca;
    counters_b = cb;
    counters_client = cc;
    view_b = out.Run.view;
    net }

(* ------------------------------------------------------------------ *)
(* perfbench shim: deleted once perfbench deploys with ~path           *)
(* ------------------------------------------------------------------ *)

let prepare_packed ?(obs = Obs.disabled) d =
  if Run.path d <> CM.Packed then begin
    guard obs (config d) ~db:d.Run.db CM.Packed;
    d.Run.state <- Run.Packed_state (Entities.Party_a.prepare_packed ~obs d.Run.a ~db:d.Run.db)
  end

let query_packed = query

let total_seconds r = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.phase_seconds

let exact d ~db ~query:q r =
  ignore d;
  let expected = Plain_knn.kth_smallest_distances ~k:r.k ~query:q db in
  let got = Array.map (fun p -> Distance.squared_euclidean q p) r.neighbours in
  Array.sort Int.compare got;
  expected = got
