(** Shape distance (\u{00a7}7.1): a lower bound on the number of primitives
    that must still be applied to a partial pGraph before its frontier
    can match the desired input shape.

    The metric partitions the current and desired dimensions into
    {e reshape groups} — future primitives only act within a group —
    and sums a per-group cost.  A group whose dims already match costs
    nothing; one with no current dims costs one Reduce plus its
    regrouping, [#rhs]; otherwise the group's current product must be
    divisible by its desired product and it costs
    [max (#lhs + #rhs - 2) elim] ([#lhs - 1] when it has no desired
    dims), where [elim] is 1 when the quotient is not 1: at least one
    eliminating primitive (Unfold window, Expand, Match) is then needed,
    and a single Unfold both regroups and eliminates.  Groupings are
    enumerated (dimensions sharing a primary variable are forced
    together; coefficient-only dimensions float) and the minimum is
    returned.

    At most 20 000 grouping schemes are costed per call.  A call with
    more returns the minimum over the first 20 000 in enumeration order,
    which can exceed the true minimum, or be [None] although a feasible
    scheme exists.  Below the cap the bound never overestimates, so
    pruning with it (Algorithm 1, line 20) cannot discard a reachable
    completion. *)

type t

val create : unit -> t
(** A distance calculator with an internal memo table, keyed by the
    multisets of current and desired sizes.  A capped result depends on
    the order of the dims, so the memo keeps the result for the first
    order it sees. *)

val distance :
  t -> current:Shape.Size.t list -> desired:Shape.Size.t list -> int option
(** [None] when no grouping scheme is feasible, i.e. the desired shape
    is unreachable with the helpful primitives (Merge, Split, Unfold,
    Expand) alone.  Raises [Invalid_argument] when the dims fall into
    more than 61 independent classes (primary-variable classes plus
    coefficient-only dims). *)

val within :
  t -> current:Shape.Size.t list -> desired:Shape.Size.t list -> budget:int -> bool
(** [within ~budget] iff the distance exists and is [<= budget]. *)
