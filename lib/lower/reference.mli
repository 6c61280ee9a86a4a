(** Reference execution of complete operators: the exact loop-nest
    semantics of a pGraph, with analytically derived gradients.

    [out[o] = sum over r of in[f(o, r)] * prod_g w_g[idx_g(o, r)]]

    where [f] are the input coordinate expressions and out-of-bounds
    input accesses contribute zero (the clipping semantics of [Unfold]
    in Table 1).  This is the ground truth that the faster lowered
    programs are differential-tested against, and the executor used for
    training synthesized operators inside real models.

    Forward and backward run on one {!Loopnest} compiled at
    {!compile}, the einsum gather on one compiled by {!gatherer}: the
    (output x reduction) space in row-major order, outputs outermost,
    with strength-reduced offsets.  Out-of-window accesses are not tested per point: each
    outer point solves for the innermost iterator's valid sub-range and
    visits only that, so clipped points are skipped exactly as in the
    per-point definition above, in the same order. *)

type t

val compile : Pgraph.Graph.operator -> Shape.Valuation.t -> t

val output_shape : t -> int array
val input_shape : t -> int array
val weight_shapes : t -> int array list
val operator : t -> Pgraph.Graph.operator

val init_weights : t -> Nd.Rng.t -> Nd.Tensor.t list
(** Kaiming-style initialization generalized to weight products: the
    variance budget [2 / reduction extent] is split evenly across the
    weight groups so the accumulated output keeps unit-order scale. *)

val forward : t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
(** Each output accumulates its in-window points in row-major
    reduction order, the product formed input first, then the weights
    in group order. *)

val backward :
  t ->
  input:Nd.Tensor.t ->
  weights:Nd.Tensor.t list ->
  grad_out:Nd.Tensor.t ->
  Nd.Tensor.t * Nd.Tensor.t list
(** [(grad_input, grad_weights)], accumulated point by point in the
    forward visit order; points whose output gradient is zero are
    skipped.  Raises [Invalid_argument] on a shape mismatch. *)

val flops : t -> int
(** Naive loop-nest FLOPs (no staging). *)

val gatherer : t -> input:Nd.Tensor.t -> Nd.Tensor.t
(** [gatherer t] compiles the gather and returns it:
    [G[o, r] = input[f(o, r)]] over the (output x reduction) space,
    shape [output_shape @ reduction extents], with clipped accesses
    left at zero.  The gather step of {!Einsum_program}. *)

val guarded : t -> bool
(** Whether some input access is non-affine in the innermost loop
    iterator, so the nest window-tests it per point
    ({!Loopnest.guarded}). *)
