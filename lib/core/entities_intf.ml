(* The signatures of Entities: the ciphertext backend the protocol is
   written against, and the protocol it yields over one backend.  Kept in
   their own file so each is written once (see entities.mli). *)

(** A ciphertext backend: every operation the protocol performs, plus
    the two driver hooks.  Operations record into [~counters] exactly
    the ledger cells the live scheme records. *)
module type CT = sig
  type params
  type secret_key
  type relin_key
  type keys
  type ct
  type pt
  type ept
  (** A plaintext embedded at one level, ready to multiply ciphertexts
      at or below it. *)

  type env
  (** One protocol run's recorder (timing, transcript). *)


  val t_plain : params -> int64
  val ring_degree : params -> int
  (** Also the slot count. *)

  val noise_params : params -> Sknn_obs.Noise_model.params
  val keygen : Util.Rng.t -> params -> keys
  val secret_key : keys -> secret_key
  val relin_key : keys -> relin_key

  val encrypt :
    counters:Util.Counters.t -> ?level:int -> Util.Rng.t -> secret_key -> pt -> ct
  (** Seeded secret-key encryption, in its wire form ([c0] plus a seed):
      every encrypting party holds the secret key. *)

  val expand : counters:Util.Counters.t -> ct -> ct
  (** Re-derives a received ciphertext's [c1] from its seed; every
      homomorphic op rejects a ciphertext that has not been expanded. *)

  val decrypt : counters:Util.Counters.t -> secret_key -> ct -> pt
  val decrypt_coeff0 : counters:Util.Counters.t -> secret_key -> ct -> int64

  val pt_coeffs : params -> (int -> int64) -> pt
  (** Coefficient embedding of [f i] for [i] below the ring degree; a
      backend that never reads plaintexts need not evaluate [f]. *)

  val pt_const : params -> int64 -> pt

  val pack : counters:Util.Counters.t -> params -> (int -> int64) -> pt
  (** Slot packing of [f s] (records the slot NTT). *)

  val unpack : counters:Util.Counters.t -> pt -> len:int -> int64 array
  (** The first [len] slots (records the slot NTT). *)

  val coeffs : pt -> len:int -> int64 array
  val add : counters:Util.Counters.t -> ct -> ct -> ct
  val sub : counters:Util.Counters.t -> ct -> ct -> ct
  val add_plain : counters:Util.Counters.t -> ct -> pt -> ct
  val embed : counters:Util.Counters.t -> params -> level:int -> pt -> ept
  (** The plaintext's Coeff→Eval embedding at [level] (records the
      forward NTT), paid once however many products use it. *)

  val mul_plain : counters:Util.Counters.t -> ct -> ept -> ct
  (** Product with an embedded plaintext at or above the ciphertext's
      level. *)

  val mul_scalar : counters:Util.Counters.t -> ct -> int64 -> ct

  val mul :
    counters:Util.Counters.t -> ?rlk:relin_key -> ?rescale:bool -> ct -> ct -> ct

  val mul_sum :
    counters:Util.Counters.t -> ?jobs:int -> ?rlk:relin_key -> ct array -> ct array -> ct

  val truncate : counters:Util.Counters.t -> ct -> int -> ct
  val rescale_to_floor : counters:Util.Counters.t -> ct -> ct

  val eval_poly :
    counters:Util.Counters.t -> ?rlk:relin_key -> coeffs:int64 array -> ct -> ct

  val level : ct -> int
  val noise_bits : ct -> float
  val noise_budget_bits : ct -> float
  val byte_size : ct -> int

  val relin_key_bytes : relin_key -> int
  (** What the relinearisation key weighs on the wire. *)

  val phase : env -> (string * Util.Counters.t) list -> string -> (unit -> 'a) -> 'a
  (** [phase env parties name f] runs one protocol phase: its span and
      time, and each watched party's counter delta. *)

  val send :
    env -> sender:Transcript.party -> receiver:Transcript.party -> label:string ->
    bytes:int -> unit
  (** Append a message to the run's transcript. *)
end

type mask_source =
  Util.Rng.t -> t_plain:int64 -> input_bits:int -> degree:int -> coeff_bits:int ->
  Masking.t
(** How Party A draws its masking polynomials: {!Masking.draw} on live
    runs, {!Masking.largest} on the symbolic worst-case run. *)

(** The protocol over one backend. *)
module type S = sig
  type ct
  type params
  type secret_key
  type relin_key
  type keys
  type env
  type config = params Config.gen

  type encrypted_point = {
    coords : ct array option;
        (** [Per_coordinate] layout: one constant-polynomial ciphertext per
            coordinate. *)
    packed : ct;
        (** Coordinates as polynomial coefficients — used by the
            Return-kNN phase in both layouts, and by the [Dot_product]
            distance computation. *)
    norm : ct option;  (** [Dot_product] layout: encryption of [‖p‖²] (constant). *)
  }

  type encrypted_db = { db_n : int; db_d : int; points : encrypted_point array }

  type encrypted_query = {
    q_coords : ct array option;
        (** [Per_coordinate]: d constants; packed form: the [⌈(d+1)/g⌉]
            coefficient groups of [q' = (−2q, ‖q‖²)] *)
    q_rev : ct option;  (** [Dot_product]: reversed query *)
    q_norm : ct option;  (** [Dot_product]: [‖q‖²] *)
    q_dim : int;
  }

  type returned
  (** What Party A answers each rank of Return-kNN from: [Π(P')] as
      per-point return ciphertexts on the plain and prepared paths, or
      its plaintext points re-packed point-major into slot blocks under
      the query's Π, embedded once at the return level, on the packed
      path. *)

  (** One encrypted neighbour, as Party A returns it to the client. *)
  type result =
    | Coeff_point of ct
        (** Algorithm 3: the point's coordinates in coefficients [0, d). *)
    | Slot_block of ct
        (** Slot return: zeros except one block of d' slots (d' the
            smallest power of two [>= d]) at the point's Π position,
            whose first d slots are its coordinates. *)

  val query_bytes : encrypted_query -> int

  val packed_query_level : config -> groups:int -> int
  (** The level a packed query of [groups] ciphertexts travels at: the
      level-drop rule applied to the worst masked bound a fresh query
      reaches in the packed distance circuit.  The client encrypts at it
      and Party A expects it; the full chain when no lower level
      qualifies. *)

  (** {1 Expansion on receipt}

      Fresh ciphertexts travel seeded (c0 plus a seed); whoever receives
      them re-derives each c1 before computing on it.  Both helpers run
      over [jobs] domains (default {!Util.Pool.default_jobs}), record into
      [counters], and give bit-identical results for every job count. *)

  val expand_points :
    counters:Util.Counters.t -> ?jobs:int -> encrypted_point array -> encrypted_point array

  val expand_query : counters:Util.Counters.t -> ?jobs:int -> encrypted_query -> encrypted_query

  (** {1 Data owner} *)

  module Data_owner : sig
    type t

    val create : Util.Rng.t -> config -> t
    val keys : t -> keys
    val config : t -> config

    val encrypt_db :
      ?obs:Sknn_obs.Ctx.t -> ?counters:Util.Counters.t -> ?jobs:int -> Util.Rng.t -> t ->
      int array array -> encrypted_db
    (** Validates every coordinate against [max_coord_bits] and the
        layout constraints before encrypting.  Points are encrypted in
        parallel over [jobs] domains (default {!Util.Pool.default_jobs});
        each point's randomness comes from its own stream split off [rng]
        sequentially, so the result is bit-identical for every job count.
        [obs] wraps the loop in an ["encrypt-db"] span with pool chunks.
        @raise Invalid_argument on bad data. *)
  end

  (** {1 Party A — encrypted storage and blind computation} *)

  module Party_a : sig
    type t

    val create :
      ?jobs:int -> ?mask_source:mask_source -> config -> relin_key -> encrypted_db -> t
    (** [jobs] is the domain count used by {!compute_distances} and
        {!select_row} (default {!Util.Pool.default_jobs}).  Results and
        counter totals are identical for every value.  The database
        arrives seeded; A expands it here, over [jobs] domains. *)

    val counters : t -> Util.Counters.t
    val db_size : t -> int
    val jobs : t -> int

    type query_state
    (** Party A's per-query secrets: the fresh masking polynomial and
        the fresh permutation Π. *)

    val compute_distances :
      ?obs:Sknn_obs.Ctx.t -> t -> Util.Rng.t -> encrypted_query -> query_state * ct array
    (** Algorithm 1: returns the masked encrypted distances in permuted
        order, [D'_i = Π(m(ED_i))].  The query arrives seeded; A expands
        it first, over [jobs] domains (every compute-distances variant
        does).  [obs] records the ["expand-query"], ["draw-mask"],
        ["distance-batches"] (with per-point pool chunks) and ["permute"]
        sub-stages. *)

    val return_knn : ?obs:Sknn_obs.Ctx.t -> t -> query_state -> ct array array -> result array
    (** Algorithm 3: given the k indicator vectors [B^j] (in permuted
        index space), returns k re-randomised encryptions of the
        neighbour points (coefficient-packed). *)

    val permuted_packed : t -> query_state -> returned
    (** [Π(P')] at the return level — the first step of Algorithm 3,
        exposed so the protocol driver can stream indicator rows. *)

    val select_row : ?obs:Sknn_obs.Ctx.t -> t -> returned -> ct array -> result
    (** [select_row t returned row] answers one rank from its indicator
        row, expanding the seeded indicators first.  Per-point: [Π(P')·B^j] as one n-term inner product, a
        {!Coeff_point}.  Slot blocks: [Σ_b row.(b)·blk_b] — [⌈n·d'/N⌉]
        plain products and their sum, one degree-1 {!Slot_block}.
        Either way the products run over [jobs] domains and the result
        is bit-identical for every job count.
        @raise Invalid_argument when a slot row's length is not the
        block count. *)

    val state_mask : query_state -> Masking.t
    val state_perm : query_state -> Util.Perm.t
    (** Exposed for the leakage-audit tests only — a deployed Party A
        would keep both secret and drop them after the query. *)

    (** {2 Prepared multi-query state}

        Query-independent work hoisted out of the per-query loop: the
        packed (NTT-domain) database ciphertexts plus an encrypted
        [‖p_i‖²] per point, computed homomorphically once when the layout
        does not already ship norms.  With [ED = ‖p‖² − 2⟨p,q⟩ + ‖q‖²]
        each subsequent query costs one ciphertext product per point
        instead of [d]. *)

    type prepared

    val prepare : ?obs:Sknn_obs.Ctx.t -> t -> prepared
    (** Computes the prepared state (norms in parallel over [jobs]
        domains, counted against Party A).  Requires affine (degree-1)
        masking and [d <= n] — the inner-product trick leaves cross terms
        in the non-constant coefficients, so higher-degree masks would
        corrupt the constant coefficient.
        @raise Invalid_argument when the config is unsupported. *)

    val compute_distances_prepared :
      ?obs:Sknn_obs.Ctx.t -> t -> prepared -> Util.Rng.t -> encrypted_query ->
      query_state * ct array
    (** Algorithm 1 against prepared state.  The query must be in
        inner-product form ({!Client.encrypt_query_ip}).  The one-product
        distance is truncated by the level-drop rule before masking.
        Results are bit-identical for every job count. *)

    val permuted_packed_prepared : prepared -> query_state -> returned
    (** {!permuted_packed} from the prepared cache (the return-level
        truncation was done once in {!prepare}). *)

    (** {2 Owner-delegated packed state}

        The packed path runs in {e owner-delegated} mode (SANNS-style
        outsourced queries): Party A acts for the data owner and holds
        the database {e in the clear}, laid out dimension-major, while
        the client's query stays encrypted.  The distances are a
        coefficient-encoded inner product with the stride g of
        {!Entities.distance_stride}: each point owns g coefficients, so a
        batch of [⌊N/g⌋] points costs [⌈(d+1)/g⌉] plain products instead
        of [⌊N/g⌋] ciphertext products, and Party B decrypts
        [⌈n/⌊N/g⌋⌉] ciphertexts instead of [n].  Party B's §5 view (the
        masked permuted distance multiset, [n] and [k]) gains only the
        slot return's block width d', from which it can derive g; the
        client is handed g at deploy; Party A's plaintext access is
        audited. *)

    type prepared_packed

    val prepare_packed : ?obs:Sknn_obs.Ctx.t -> t -> db:int array array -> prepared_packed
    (** Lays [db] (the plaintext database, dimension-major) out for the
        packed path and audits [party-a/prepare-db/plaintext-database] (= n·d plaintext
        coordinates handed to Party A).  Requires affine masking and
        [d <= n].
        @raise Invalid_argument when the config is unsupported or [db]
        does not match the encrypted database's dimensions. *)

    val compute_distances_packed :
      ?obs:Sknn_obs.Ctx.t -> t -> prepared_packed -> Util.Rng.t -> encrypted_query ->
      query_state * ct array
    (** Algorithm 1 on the packed layout: returns [⌈n/⌊N/g⌋⌉]
        ciphertexts whose coefficient [s·g + g − 1] of batch [b] holds the
        masked distance of point [Π⁻¹(b·⌊N/g⌋ + s)] — the permutation is
        applied when the plaintext columns are laid out, so it stays
        uniform and per-query.  Per batch: one plain product per query
        group, their sum, the mask's scalar, and one plaintext that adds
        the mask's per-point constant at every live target and a uniform
        value mod t at every other coefficient (cross terms, wrapped
        terms and the ragged tail's dead points).  The query must be in
        coefficient-group form ({!Client.encrypt_query_packed}); a
        ciphertext above the level the drop rule picks is truncated to
        it before expansion.  Results, counters and transcripts are
        bit-identical for every job count.
        @raise Entities.Query_below_level on a query ciphertext below
        that level. *)

    val permuted_return_packed : prepared_packed -> query_state -> returned
    (** The slot return's blocks for one query: permuted point [i] takes
        slots [[i·d', i·d'+d)] of block [⌊i·d'/N⌋] (zeros elsewhere), so
        [⌈n·d'/N⌉] slot plaintexts, packed under the query's Π and
        embedded once at the return level, so {!select_row} pays no NTT
        per rank.  Replaces the per-point return ciphertexts on the
        packed path; nothing is kept at prepare time. *)
  end

  (** {1 Party B — key holder, never sees the database} *)

  module Party_b : sig
    type t

    val create : ?jobs:int -> block_width:int -> config -> secret_key -> t
    (** [block_width] is d', the slot return's block width, given to B at
        deploy as n is (no message carries it); only the packed path uses
        it.  [jobs] parallelises {!indicator_row}'s batch
        encryption only; the decrypt-and-select half of Algorithm 2
        always runs in B's own domain (it touches secret-key material). *)

    val counters : t -> Util.Counters.t

    type view = Leakage.view = {
      masked_distances : int64 array;  (** What B actually decrypts, in A's permuted order. *)
      selected : int array;  (** Permuted indices of the k chosen minima. *)
      block_width : int option;
          (** [Some d'] when the view came from packed distances:
              {!indicator_row} then builds slot indicators. *)
    }

    val find_neighbours :
      ?obs:Sknn_obs.Ctx.t -> t -> Util.Rng.t -> ct array -> k:int -> ct array array * view
    (** Algorithm 2: decrypts the masked distances, selects the k
        smallest with an O(n log k) heap that replicates the paper's
        streaming max-replacement scan exactly (ties included; see
        {!Util.Topk}), and returns the k encrypted indicator vectors.
        The [view] is returned for leakage auditing. *)

    val select_neighbours : ?obs:Sknn_obs.Ctx.t -> t -> ct array -> k:int -> view
    (** The decrypt-and-select half of Algorithm 2 without materialising
        the indicator vectors. *)

    val select_neighbours_packed :
      ?obs:Sknn_obs.Ctx.t -> t -> ct array -> n:int -> k:int -> view
    (** {!select_neighbours} over coefficient-packed distances: derives
        g from [n] and its block width, decrypts the [⌈n/⌊N/g⌋⌉]
        ciphertexts and reads coefficient [s·g + g − 1] of each live point
        [s], so the view carries exactly the [n] per-point masked
        distances (and B's block width, for the slot return). *)

    val indicator_row :
      ?obs:Sknn_obs.Ctx.t -> t -> Util.Rng.t -> view -> n:int -> j:int -> ct array
    (** The j-th indicator row, encrypted (seeded, under B's secret key)
        at the return level and streamed rank by rank.  For a per-point view it is Algorithm 3's
        [B^j]: n encryptions of 0 with a single 1.  For a slot view it is
        [⌈n·d'/N⌉] slot ciphertexts: all zero except the d' slots of the
        selected point's block, which are 1. *)
  end

  (** {1 Client} *)

  module Client : sig
    type t

    val create : ?jobs:int -> distance_stride:int -> config -> secret_key -> t
    (** [distance_stride] is g ({!Entities.distance_stride}), given to the
        client at deploy; only the packed path uses it.  [jobs]
        parallelises {!decrypt_points}. *)

    val counters : t -> Util.Counters.t

    val encrypt_query : t -> Util.Rng.t -> int array -> encrypted_query
    (** Layout-matched query form: [d] constants ([Per_coordinate]) or
        the reversed-packed polynomial plus norm ([Dot_product]). *)

    val encrypt_query_ip : t -> Util.Rng.t -> int array -> encrypted_query
    (** Inner-product query form (reversed-packed query + encrypted
        [‖q‖²]) regardless of layout — what
        {!Party_a.compute_distances_prepared} consumes.
        @raise Invalid_argument when [d] exceeds the ring degree. *)

    val encrypt_query_packed : t -> Util.Rng.t -> int array -> encrypted_query
    (** Coefficient-group query form for the packed path:
        [q' = (−2q₀ … −2q_{d−1}, ‖q‖²) mod t] as [⌈(d+1)/g⌉] ciphertexts,
        group [c] holding [q'_{cg+j}] at [X^j], encrypted directly at the
        level Party A's drop rule picks for a fresh packed query.
        @raise Invalid_argument when [d] exceeds the ring degree. *)

    val decrypt_points : ?obs:Sknn_obs.Ctx.t -> t -> d:int -> result array -> int array array
    (** Decrypts each result over [jobs] domains.  A {!Coeff_point}
        yields coefficients [0, d); a {!Slot_block} is slot-unpacked and
        coordinate [c] is the sum of the slots [≡ c mod d'] — only the
        selected block is non-zero, so this reads the point wherever Π
        put it, including an all-zero point. *)
  end

  (** {1 The query driver} *)

  module Run : sig
    type state =
      | Plain_state
      | Prepared_state of Party_a.prepared
      | Packed_state of Party_a.prepared_packed
    (** What Setup built for the deployment's one path. *)

    type deployment = {
      config : config;
      db_n : int;
      db_d : int;
      db : int array array;
          (** the plaintext database (Protocol's perfbench shim builds the
              packed columns from it) *)
      a : Party_a.t;
      b : Party_b.t;
      cl : Client.t;
      query_seed : Util.Rng.t;  (** source of per-query randomness *)
      setup : env;  (** the Setup phase's recorder *)
      mutable state : state;
    }

    val path : deployment -> Sknn_obs.Cost_model.path

    val deploy :
      ?obs:Sknn_obs.Ctx.t -> ?counters:Util.Counters.t -> ?jobs:int ->
      ?mask_source:mask_source -> ?path:Sknn_obs.Cost_model.path -> env -> Util.Rng.t ->
      config -> db:int array array -> deployment
    (** The Setup phase for [path] (default [Plain]): key generation (a
        ["keygen"] span), the key/ciphertext distribution to the parties,
        sent through the given recorder, and Party A's state for the
        path.  [Plain] and [Prepared] encrypt and ship the database;
        [Packed] ships keys only.  [Prepared] and [Packed] then build
        {!Party_a.prepare}'s or {!Party_a.prepare_packed}'s state as a
        ["prepare-db"] phase of the recorder.  Party A receives the
        relinearisation key only when [config.use_relin] is set, the one
        case it uses the key.  The rng is split identically on every
        path. *)

    type outcome = {
      neighbours : int array array;  (** the k decrypted points *)
      view : Party_b.view;  (** what Party B saw *)
    }

    val query :
      ?obs:Sknn_obs.Ctx.t -> env -> deployment -> Util.Rng.t -> query:int array -> k:int ->
      outcome
    (** One protocol round on the deployment's path, answering one
        query.  Phases — ["encrypt-query"], ["compute-distances"],
        ["find-neighbours"], ["return-knn"] (A's ["return-points"] and, per
        rank, B's ["indicator-row"] and A's ["select-row"], as one-party
        child spans), ["decrypt-result"]
        — and messages go through the backend's hooks; the leakage
        surface through [obs]'s audit channel.  Party counters are reset
        first.
        @raise Invalid_argument on dimension mismatch or k out of range. *)
  end
end

