(** Guided bottom-up synthesis (Algorithm 1).

    Children of a partial pGraph are all canonical one-primitive
    extensions; the depth-first synthesis backtracks whenever the shape
    distance to the desired input shape exceeds the remaining primitive
    budget (line 20 of Algorithm 1). *)

type config = {
  canon : Pgraph.Canon.config;
  output_shape : Shape.Size.t list;
  desired_shape : Shape.Size.t list;
  max_prims : int;  (** d_max *)
  coefficient_candidates : Shape.Size.t list;
      (** parameter pool for Merge blocks and Stride factors *)
  reduce_candidates : Shape.Size.t list;
      (** parameter pool for Reduce domains *)
  max_flops : int option;
  max_params : int option;
  valuations : Shape.Valuation.t list;
  frozen_sizes : Shape.Size.t list;
      (** Frontier dims with these sizes pass through untouched — used
          to keep the batch dimension out of the action space (weights
          must not depend on the batch index). *)
}

val default_config :
  output_shape:Shape.Size.t list ->
  desired_shape:Shape.Size.t list ->
  valuations:Shape.Valuation.t list ->
  unit ->
  config

val candidate_actions : config -> Pgraph.Graph.t -> Pgraph.Prim.t list
(** All syntactic candidate actions {e before} canonicalization — the
    raw action space used by the Table 3 canonical-rate ablation. *)

val children : config -> Pgraph.Graph.t -> (Pgraph.Prim.t * Pgraph.Graph.t) list
(** All canonical applicable actions with their successor states
    (EnumerateChildren in Algorithm 1): {!Pgraph.Canon.successors} over
    {!candidate_actions}. *)

val try_complete : config -> Pgraph.Graph.t -> Pgraph.Graph.operator option
(** Complete against the desired shape and check FLOPs/params budgets. *)

type stats = {
  mutable visited : int;
  mutable completed : int;
  mutable pruned_by_distance : int;
}

val synthesize :
  ?max_results:int ->
  ?max_visits:int ->
  ?stats:stats ->
  config ->
  Pgraph.Graph.operator list
(** Exhaustive DFS up to the visit budget, deduplicated by operator
    signature. *)

val guided_children :
  config ->
  Pgraph.Distance.t ->
  Pgraph.Graph.t ->
  budget:int ->
  (Pgraph.Prim.t * Pgraph.Graph.t * int) list
(** Canonical children whose shape distance fits the remaining budget,
    annotated with that distance. *)

val pick_guided :
  Nd.Rng.t -> (Pgraph.Prim.t * Pgraph.Graph.t * int) list -> Pgraph.Graph.t
(** Sampling policy for rollouts: children are drawn with probability
    proportional to a primitive-kind prior (contractions and windows
    over speculative reshapes) damped polynomially by the successor's
    shape distance.  The list must be non-empty. *)

val random_completion :
  config -> Nd.Rng.t -> use_distance:bool -> Pgraph.Graph.operator option
(** One randomized synthesis trial: sample canonical actions uniformly
    (with or without shape-distance backtracking) until completion or a
    dead end.  Used by the \u{00a7}9.4 shape-distance ablation and as the
    MCTS rollout policy. *)

val make_stats : unit -> stats
