(** The full Secure k-NN protocol (§3 of the paper): Setup once, then
    one-round queries.

    [deploy] performs the paper's Setup phase for one query path — key
    generation at the data owner, the database state that path reads,
    and key/ciphertext distribution to the parties (recorded in the
    transcript).  [query] runs the three on-line phases end to end on
    the deployment's path:

    + client encrypts Q and sends it to Party A;
    + {b Compute Distances} at A (Algorithm 1) — encrypted squared
      distances, fresh monotone masking polynomial, fresh permutation;
    + one message A→B; {b Find Neighbours} at B (Algorithm 2) —
      decrypt, streaming top-k, k encrypted indicator vectors; one
      message B→A (streamed row by row so O(nk) ciphertexts never live
      in memory at once);
    + {b Return kNN} at A (Algorithm 3) — permuted inner products,
      giving k re-randomised encrypted points returned to the client.

    The result carries plaintext neighbours, per-phase wall-clock times,
    per-party operation counters and the full communication transcript —
    everything the benchmark harness needs to regenerate the paper's
    figures and Table 1.

    {b Paths.}  [Plain] is the paper's per-query circuit.  [Prepared]
    hoists the query-independent work (packed database ciphertexts and
    encrypted norms [‖p_i‖²], so [ED = ‖p‖² − 2⟨p,q⟩ + ‖q‖²] costs one
    ciphertext product per point) into Setup.  [Packed] lays the
    database out in polynomial coefficients with a stride g
    ({!Entities.distance_stride}), so A computes a batch of [⌊N/g⌋]
    masked distances with [⌈(d+1)/g⌉] coefficient products against the
    client's [⌈(d+1)/g⌉] query ciphertexts and B decrypts [⌈n/⌊N/g⌋⌉]
    ciphertexts; it runs in owner-delegated mode — A
    holds the plaintext database as the data owner's delegate, audited
    as [party-a/prepare-db/plaintext-database]
    (see {!Entities.Party_a.prepare_packed}) — and ships no encrypted
    database.  Both need affine (degree-1) masking and [d ≤ n].  Party
    B's §5 surface is the same on every path, plus the block width d' on
    [Packed], where the client also learns g.  Results are exact and
    bit-identical across job counts. *)

type deployment

val deploy :
  ?obs:Sknn_obs.Ctx.t -> ?rng:Util.Rng.t -> ?counters:Util.Counters.t -> ?jobs:int ->
  ?path:Sknn_obs.Cost_model.path -> Config.t -> db:int array array -> deployment
(** Setup for [path] (default [Plain]).  [Plain] and [Prepared] encrypt
    and ship the database; [Packed] ships keys only.  [Prepared] and
    [Packed] are guarded first: {!forecast_noise} of the path is always
    recorded as the audit entry
    [party-a/prepare-db/noise-min-headroom-bits], and a minimum below 4
    bits emits a structured warning — an audit entry
    [party-a/prepare-db/noise-low-headroom-warning], a [Warning] flight
    event and a stderr line.  Then Party A's prepared state is built, a
    ["prepare-db"] span.  The rng is split the same way on every path,
    so keys and query streams do not depend on it.

    [jobs] is the number of OCaml domains every parallel phase of this
    deployment uses (database encryption, Compute-Distances, Return-kNN
    inner products, indicator encryption, result decryption); it
    defaults to {!Util.Pool.default_jobs} ([SKNN_DOMAINS] or the
    machine's recommended domain count).  Query results, transcripts and
    counter totals are bit-identical for every job count.  [obs]
    records ["keygen"], ["encrypt-db"] and ["prepare-db"] spans and,
    when [counters] is given, folds the setup transcript's bytes into
    it.
    @raise Invalid_argument if the configuration is unsound for the
    database's dimensionality (see {!Config.validate}), the data is out
    of range, or [path] needs affine masking the configuration lacks. *)

val path : deployment -> Sknn_obs.Cost_model.path
val config : deployment -> Config.t
val jobs : deployment -> int
val db_size : deployment -> int
val dimension : deployment -> int
val setup_transcript : deployment -> Transcript.t

val setup_phase_seconds : deployment -> (string * float) list
(** Setup's timed phases, in order: ["prepare-db"] on the prepared and
    packed paths, nothing on the plain one. *)

(** Direct access to the entity values (examples and tests). *)
val party_a : deployment -> Entities.Party_a.t
val party_b : deployment -> Entities.Party_b.t
val client : deployment -> Entities.Client.t

type result = {
  neighbours : int array array; (** k plaintext points, as the client decrypts them *)
  k : int;
  phase_seconds : (string * float) list;
      (** ["encrypt-query"; "compute-distances"; "find-neighbours";
          "return-knn"; "decrypt-result"] *)
  transcript : Transcript.t;    (** per-query messages *)
  counters_a : Util.Counters.t;
  counters_b : Util.Counters.t;
  counters_client : Util.Counters.t;
  view_b : Entities.Party_b.view; (** Party B's view, for leakage audits *)
  net : Clock.timeline option;
      (** virtual-network replay of [transcript] when the query ran with
          [?net]; [None] otherwise *)
}

val query :
  ?obs:Sknn_obs.Ctx.t -> ?rng:Util.Rng.t -> ?net:Profile.t -> deployment ->
  query:int array -> k:int -> result
(** Runs one complete query on the deployment's path (the client sends
    the path's query form).  Counters are reset at the start so each
    result reports per-query costs; when the query finishes, the
    transcript is folded back into them, so [Counters.rounds] and
    [Counters.bytes_sent] report measured per-party communication.
    [rng] defaults to a fresh split of the deployment's query seed.

    With an observability context [obs] (see {!Sknn_obs.Ctx}), the five
    phases become [Phase] spans with per-party counter deltas, entity
    sub-stages and pool chunks nest below them, BGV chain level and
    noise-budget headroom are sampled into histograms, per-link
    transcript bytes become gauges, and each party's observables are
    appended to the leakage-audit channel ([party-b]: masked distance
    multiset, [k], equidistant group sizes; [party-a]: ciphertext
    counts and byte sizes only).

    With a network profile [net], a virtual clock cursor runs alongside
    the transcript (flight [Send] events gain seq + virtual arrival),
    the finished transcript is replayed into [result.net], per-link
    busy/rounds land in the metrics registry as [sknn_link_*] families,
    and the trace gains one wire event per message.  The timeline is a
    pure function of (transcript, profile) — timing derives only from
    the already-audited §5 byte/round surface, and stays byte-identical
    across job counts.
    @raise Invalid_argument on dimension mismatch or k out of range. *)

val forecast_noise : ?margin_bits:float -> deployment -> Sknn_obs.Noise_model.report
(** Worst-case noise headroom of the deployment's path at its shape:
    {!Planner.forecast}, the symbolic deploy and query with the largest
    coordinates and drawable mask coefficients.  A negative
    [min_headroom_bits] means a live query would raise
    [Bgv.Decryption_failure].  [margin_bits] defaults to 4. *)

(** {1 perfbench shim}

    perfbench deploys without a path and then calls these two; the
    benchmark change that makes it pass [~path:Packed] to {!deploy}
    deletes them. *)

val prepare_packed : ?obs:Sknn_obs.Ctx.t -> deployment -> unit
(** Switches a deployment made on another path to [Packed]: guards and
    audits as {!deploy} does, then builds
    {!Entities.Party_a.prepare_packed}'s state from the plaintext
    database.  A no-op on a [Packed] deployment.  The encrypted database
    already shipped stays in the setup transcript. *)

val query_packed :
  ?obs:Sknn_obs.Ctx.t -> ?rng:Util.Rng.t -> ?net:Profile.t -> deployment ->
  query:int array -> k:int -> result
(** {!query}. *)

val total_seconds : result -> float
val exact : deployment -> db:int array array -> query:int array -> result -> bool
(** Checks the result against plaintext k-NN ground truth
    (distance-multiset equality, which is the exactness the paper
    claims; see {!Plain_knn.same_answer}). *)
