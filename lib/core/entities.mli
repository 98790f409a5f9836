(** The four protocol entities of Figure 1, their local computations and
    the query driver — written once, as a functor over the ciphertext
    backend.

    The paper uses the (S)HE scheme as a black box; {!CT} is that box.
    {!Make} applied to {!Live} ([Bgv] + [Plaintext]) is the deployed
    protocol, included below.  Applied to [Sknn_obs.Cost_model.Symbolic]
    (noise states instead of ring elements) the same circuit yields the
    cost ledger, transcript and noise forecast ({!Attribution}), so a
    level-drop rule or a message exists exactly once.

    Each party owns only the key material it uses: Party A the
    relinearisation key and the database state its path reads, Party B
    and the client the secret key, the data owner everything.  Every party that
    encrypts holds the secret key, so fresh ciphertexts are seeded
    secret-key encryptions that Party A expands on receipt; no public
    key is distributed.  All
    cryptographic work a party performs is recorded in its own
    {!Util.Counters.t}, which is how Table 1 is measured rather than
    quoted. *)

module type CT = Entities_intf.CT
(** A ciphertext backend: every operation the protocol performs, plus
    the two driver hooks ([phase], [send]). *)

type mask_source = Entities_intf.mask_source

val block_width : int -> int
(** d', the slot return's block width for dimension d: the smallest
    power of two [>= d]. *)

val distance_stride : n:int -> width:int -> slots:int -> int
(** g, the packed distance circuit's coefficient stride for [n] points
    of block width [width] (d') in a ring of [slots] (N) coefficients:
    the power of two in [\[1, min(2d', N)\]] minimising
    [⌈(d'+1)/g⌉ + 2·⌈n/⌊N/g⌋⌉], ties to the smaller g.  Each point owns g
    coefficients, so a distance ciphertext carries [⌊N/g⌋] points and the
    packed query is [⌈(d+1)/g⌉] ciphertexts. *)

exception Query_below_level of { level : int; required : int }
(** Raised by [Party_a.compute_distances_packed] on a packed query
    ciphertext encrypted below the level the drop rule picks for it. *)

module type S = Entities_intf.S
(** The protocol over one backend. *)

module Make (B : CT) :
  S
    with type ct = B.ct
     and type params = B.params
     and type secret_key = B.secret_key
     and type relin_key = B.relin_key
     and type keys = B.keys
     and type env = B.env

(** The live backend: [Bgv] and [Plaintext], recording into the cost
    ledger; phases are timed spans and sends go to a transcript (and,
    with a network profile, through a virtual clock). *)
module Live : sig
  include
    CT
      with type params = Params.t
       and type secret_key = Bgv.secret_key
       and type relin_key = Bgv.relin_key
       and type keys = Bgv.keys
       and type ct = Bgv.ct
       and type pt = Plaintext.t
       and type ept = Bgv.embedded

  val env : ?obs:Sknn_obs.Ctx.t -> ?net:Profile.t -> unit -> env
  val transcript : env -> Transcript.t
  val phase_seconds : env -> (string * float) list  (** in protocol order *)
end

include
  S
    with type ct = Bgv.ct
     and type params = Params.t
     and type secret_key = Bgv.secret_key
     and type relin_key = Bgv.relin_key
     and type keys = Bgv.keys
     and type env = Live.env
