(** Executable leakage audit for the security guarantees of §4.

    Theorem 4.2 states Party B learns nothing beyond [k] and the number
    of equidistant points for the query.  This module extracts exactly
    the statistics B could compute from its view, so tests can check
    that (a) the admitted leakage is present — equidistant groups are
    visible — and (b) nothing else is: two databases with the same
    distance multiset produce views that are equal up to Party A's
    secret permutation, and the view reveals nothing about which
    database row produced which value. *)

type view = {
  masked_distances : int64 array;  (** what B decrypts, in A's permuted order *)
  selected : int array;  (** permuted indices of the k chosen minima *)
  block_width : int option;
      (** [Some d'] on the packed path: the block width of the slot
          return, handed to B at deploy; [None] on the per-point paths *)
}
(** Party B's view of one query ([Entities.Party_b.view]). *)

val view_multiset : view -> int64 array
(** The decrypted masked distances, sorted — the permutation-invariant
    part of Party B's view. *)

val equidistant_group_sizes : view -> int array
(** Sizes (>1) of groups of equal masked distances — by monotonicity of
    the mask, exactly the groups of equidistant database points.  This
    is the paper's admitted leakage. *)

val equidistant_pairs : view -> int
(** Number of unordered pairs of equidistant points B observes. *)

val recovers_true_order : view -> int array -> bool
(** [recovers_true_order view true_dists] checks the protocol's
    correctness-critical invariant behind Theorem 4.2: the masked values
    B sees are a permutation of a strictly order-preserving image of the
    true distances (so B's top-k selection is correct even though the
    values themselves are hidden). *)

val mask_hides_values : view -> int array -> bool
(** True when no masked value equals its true distance — a smoke check
    that the mask is actually applied (holds with overwhelming
    probability for non-trivial masks). *)
