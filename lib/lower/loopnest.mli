(** Strength-reduced loop nests: the one compiled engine under
    {!Reference}'s forward, backward and einsum gather and under every
    certified piece of {!Specialize}.

    A nest is a row-major walk over [levels] — the output levels first,
    then the reductions — and a list of tensor accesses whose
    dimensions are indexed by coordinate expressions over those levels.
    Compiling decomposes every affine dimension into
    [const + sum_l coef_l * level_l] (an iterator-free [Div]/[Mod], such
    as Unfold's [k / 2], is a constant).  Running keeps each access's
    flat offset, the output offset and each may-clip dimension's window
    index as an odometer: advancing a level adds one precomputed carry
    per quantity.  There is no div/mod decode and no closure call per
    point.

    Clipping is a range, not a per-point test: at each outer point the
    engine solves every may-clip dimension for the innermost iterator's
    valid sub-range, and skips the whole block when a dimension that
    does not move with it is out of its window.  Points are visited in
    the same row-major order as a per-point interpreter; clipped points
    are not visited at all.

    When the last two levels are both reductions (and no
    closure-evaluated dimension moves with the second-to-last one), the
    kernels walk them as one block of rows, so the odometer advances
    once per block instead of once per row. *)

val compile_expr : (Shape.Var.t -> int) -> Coord.Ast.t -> int array -> int
(** Compile a coordinate expression into a closure over the iterator
    environment (indexed by iterator id), with sizes resolved through
    the lookup. *)

type level = {
  id : int;  (** iterator id, or [-1] when no expression names the level *)
  start : int;  (** value at position 0 *)
  extent : int;
}

type index =
  | Affine of { const : int; coefs : int array }
      (** [const + sum_l coefs.(l) * value(level l)]; missing trailing
          coefficients are zero *)
  | Computed of { eval : int array -> int; mentions : int list; bounds : int * int }
      (** a non-affine expression: its closure over the iterator
          environment, the levels it mentions, and a sound inclusive
          range of its values *)

val index_of_expr : lookup:(Shape.Var.t -> int) -> level array -> Coord.Ast.t -> index
(** [Affine] whenever the expression is affine once iterator-free
    [Div]/[Mod] subterms are evaluated.  Raises [Invalid_argument] if
    the expression names an iterator that is not a level. *)

type dim = {
  index : index;
  lo : int;  (** value of window position 0 *)
  extent : int;  (** window length: positions outside [0, extent) clip *)
  clip : bool;
      (** test the window.  A dimension with [clip = false] is indexed
          unchecked; one whose value range over the nest already lies
          in its window is never tested *)
}

type t

val compile : levels:level array -> n_out:int -> out_strides:int array -> dim array array -> t
(** [compile ~levels ~n_out ~out_strides accesses]: the first [n_out]
    levels are output levels and the output offset is
    [sum_{l < n_out} out_strides.(l) * value(level l)]; each access's
    dims are row-major over their extents.  No levels at all means one
    output point.  Raises [Invalid_argument] if [out_strides] does not
    have [n_out] entries. *)

val units : t -> int
(** Units of work: the product of the output-level extents, without
    the innermost level when it is an output level.  Ranges of units
    are independent and may run in parallel. *)

val guarded : t -> bool
(** Whether some dimension is non-affine in the innermost iterator, so
    that it is evaluated and window-tested per point. *)

val steps : t -> int array
(** Per access, then for the output: the offset change per step of the
    innermost level. *)

val row_steps : t -> int array
(** The same per step of the block's row level (the second-to-last
    level); all zero when blocks are single rows. *)

val iter :
  t ->
  from:int ->
  upto:int ->
  segment:(int array -> int -> int -> int array -> int array -> unit) ->
  flush:(int array -> unit) ->
  unit
(** Walk the units [from, upto) in order.  For each outer point with
    surviving points, [segment q ra rb lo hi] visits rows [ra, rb) of
    the block and, in row [r], innermost positions [lo.(r), hi.(r)):
    the point's offset for access [a] is
    [q.(a) + r * row_steps.(a) + i * steps.(a)], and likewise the
    output's at index [Array.length accesses].  [flush q] is called
    when a unit is complete, with the unit's output offset in [q].
    Blocks are single rows ([ra = 0], [rb = 1]) unless the last two
    levels are reductions. *)

val contract :
  t -> factors:float array array -> out:float array -> from:int -> upto:int -> unit
(** One factor per access: each output of units [from, upto) becomes
    the sum, in visit order, of the products of the factors at its
    in-window points, formed in factor order and added to an
    accumulator starting at [+0.0]; an output with no reduction is
    written as [0.0 +. product].  Other outputs are left untouched.
    Factors are read unchecked: the accesses must be in bounds
    wherever they are not clipped. *)
