(** On-the-fly canonicalization (\u{00a7}6).

    Rather than rewriting pGraphs, Syno discards any candidate action
    that would create an uncanonical form.  The rules implemented here:

    {ul
    {- {b expression normal form}: a view primitive whose freshly built
       coordinate expressions are not already in TRS normal form is
       redundant — a structurally simpler construction of the same (or
       almost the same, under the approximate rules of Fig. 3(c))
       semantics exists.  This subsumes "Merge cannot be above Split"
       and friends (Fig. 3(a), (c));}
    {- {b commuting-action ordering}: when an action commutes with the
       previously applied one (they touch disjoint frontier dims), only
       the ordering with non-decreasing action keys is canonical.  With
       contractions ranked above views this also implements "push down
       1-to-1 views after contractions" (Fig. 3(b));}
    {- {b futile contractions}: no [Expand] of a [Reduce]-created dim;
       no [Match] that strands a reduction iterator in a single weight
       group; [Unfold] may involve at most one reduced coordinate;}
    {- {b occurrence budgets} for the restricted primitives [Expand],
       [Stride], [Shift] (\u{00a7}5.2);}
    {- {b window sanity}: an [Unfold] window must not exceed the main
       dimension under any extracted valuation.}} *)

type config = {
  simplify_ctx : Coord.Simplify.ctx;
  max_expand : int;  (** default 1 *)
  max_stride : int;  (** default 1 *)
  max_shift : int;  (** default 2 *)
  max_reduce : int;  (** default 4 *)
  max_frontier : int;  (** frontier dims cap, default 8 *)
}

val default_config : Coord.Simplify.ctx -> config

(** Why an action was rejected.  Building a reason formats nothing: the
    search rejects most candidate actions and reads none of the reasons. *)
type reason =
  | Position_out_of_range  (** a position is outside the frontier *)
  | Budget_exceeded of Prim.kind
      (** the occurrence budget of [Expand], [Stride], [Shift] or [Reduce] *)
  | Expand_of_reduce_dim
  | Expand_of_reduced_coordinate
  | Unfold_two_reduced_coordinates
  | Unfold_window_too_large  (** the window exceeds the main dim under some valuation *)
  | Reduce_of_one
  | Match_strands_reduction
  | Uncanonical_ordering of Prim.t * Prim.t
      (** [(last, prim)]: [prim] commutes with the previous action [last]
          and sorts before it *)
  | Inapplicable of string  (** {!Graph.apply}'s own error, unchanged *)
  | Frontier_too_wide
  | Size_not_integral  (** a successor dim is not a positive integer under some valuation *)
  | Not_normal_form of Coord.Ast.t * Coord.Ast.t
      (** [(expr, simplified)]: a fresh view dim and its TRS normal form *)

val reason_to_string : reason -> string
(** The human-readable message, e.g. ["Expand budget exceeded"] or
    ["uncanonical ordering: Reduce(k) then Merge(s)@0"]. *)

val check : config -> Graph.t -> Prim.t -> (Graph.t, reason) result
(** [check cfg g prim] applies [prim] and validates canonicality;
    [Error reason] if the action is inapplicable (a position out of
    range included) or uncanonical.  The rules run in a fixed order and
    the first failing one gives the reason. *)

val successors : config -> Graph.t -> Prim.t list -> (Prim.t * Graph.t) list
(** [successors cfg g prims] is [(prim, g')] for every [prim] of
    [prims] that [check cfg g prim] accepts with [Ok g'], in the order
    of [prims]: the same core as {!check}, with the facts about [g]
    computed once for all of [prims] — the frontier as
    an array, the prim counts per kind, the previous action's written
    positions and each parent dim's size under every valuation.

    The integrality rule is staged exactly: a successor dim physically
    equal to a parent dim takes the parent dim's verdict, and only
    fresh dims are evaluated.  Both verdicts come from the same sizes
    under the same valuations, so the decision is the full check's for
    any [g], including a parent holding a non-integral dim. *)

val is_canonical : config -> Graph.t -> Prim.t -> bool

val trace_is_canonical : config -> Shape.Size.t list -> Prim.t list -> bool
(** Replay a whole trace from an output shape through [check] — used by
    the Table 3 / \u{00a7}9.4 canonical-rate experiments. *)
