(** Trainable layers.

    A layer owns its parameter tensors (updated in place by the
    optimizer) and knows how to apply itself given the tape-wrapped
    parameter variables.  Synthesized operators enter a model through
    {!of_operator}, which wires [Lower.Reference]'s exact forward and
    backward into the tape. *)

type t = {
  name : string;
  params : Nd.Tensor.t list;
  apply : Grad.Tape.t -> Grad.Op.v list -> Grad.Op.v -> Grad.Op.v;
}

val linear : Nd.Rng.t -> in_features:int -> out_features:int -> t
(** Affine map on the last axis: input [[...; in]] -> [[...; out]]. *)

val grouped_linear : Nd.Rng.t -> features:int -> groups:int -> t
(** Block-diagonal projection of the last axis: the features are split
    into [groups] blocks, each with its own square weight.  This is the
    grouped-projection structure Syno discovers for the GPT-2 QKV
    substitution (\u{00a7}9.3): [groups]x fewer parameters and FLOPs. *)

val relu : t
val global_avg_pool : t
val flatten : t
(** Collapse all axes after the first. *)

val channel_affine : Nd.Rng.t -> channels:int -> t
(** Per-channel scale and shift on axis 1 (a lightweight stand-in for
    batch normalization). *)

val of_operator :
  ?forward:(input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t) ->
  Nd.Rng.t ->
  name:string ->
  Lower.Reference.t ->
  t
(** A synthesized (or standard, e.g. convolution) operator layer with
    its weight tensors, trained via the reference backward pass
    ([Lower.Reference.backward], the exact per-point gradient run as a
    strength-reduced loop nest).
    [forward] substitutes a faster forward executor (e.g. a certified
    specialized kernel) for the same operator — it must be numerically
    equivalent to [Lower.Reference.forward] up to float association;
    the backward pass stays the reference one. *)

val sequential : string -> t list -> t
val residual : string -> t list -> t
(** [x + body x]; the body must preserve the shape. *)

val num_params : t -> int
