(** Proof-guided kernel specialization.

    {!Staged_exec} window-tests every tensor access and clips
    out-of-bounds reads to zero.  When the static layer has proved
    where clipping can actually happen, those tests are pure overhead
    over most of the iteration space.  This module compiles a staged
    program together with an iteration-space {e partition certificate}
    into a specialized executor: every piece becomes one {!Loopnest}
    over its box (then the nest's reductions), with strength-reduced
    offsets and no per-point window test.

    - {e interior} pieces — where every access is proved in-bounds —
      index unchecked throughout;
    - {e border} pieces clip exactly the accesses the certificate lists
      as may-clip and nothing else: per outer point the engine solves
      for the innermost iterator's valid sub-range and skips the rest.

    The output is bit-identical to {!Staged_exec.forward} on finite
    data: pieces partition only positional axes, so every output
    element is computed whole by exactly one piece, with products
    formed in factor order and reductions accumulated in the
    interpreter's order.  The interpreter's product at a clipped point
    is [0.0] (exactly, for finite factors), and adding it leaves an
    accumulator that started at [+0.0] unchanged, so skipping the point
    changes no bit.  (With an infinite co-factor the interpreter forms
    [inf *. 0.0 = nan] in the final contraction; the engine does not.)

    Certificates are produced by [Analysis.Regions] and validated by
    [Analysis.Certify]; {!compile} itself only shape-checks the plan.
    Running a plan that neither came from [Regions] nor passed
    [Certify] is unsound (interior pieces index unchecked). *)

type piece = {
  pc_lo : int array;  (** inclusive lower corner, one entry per axis *)
  pc_hi : int array;  (** inclusive upper corner *)
  pc_interior : bool;  (** no access may clip when [true]; execution reads only [pc_clips] *)
  pc_clips : int list;
      (** flat indices of the accesses that may clip inside this piece,
          numbering the nest's accesses factor-major in executor order
          (the same order {!Staged_exec.access_plan} lists them) *)
}

type partition = piece list

type plan = partition array
(** One partition per materialization stage in plan order, then one for
    the final contraction: [Array.length plan = num_stages + 1].  A
    stage's axes are the dims of its materialized tensor
    ({!Staged_exec.stage_sym.ss_extents}); the final nest's axes are
    the output iterators ({!Staged_exec.final_sym.fs_out_doms}).
    Reduction iterators are never partitioned. *)

val piece_volume : piece -> int

type t

val compile : Staged_exec.t -> plan -> t
(** Compiles one {!Loopnest} per piece.  Raises [Invalid_argument]
    if the plan's shape does not match the executor (wrong number of
    partitions, piece rank mismatch, piece outside its nest's box) —
    semantic soundness is [Analysis.Certify]'s job. *)

val staged : t -> Staged_exec.t
val plan : t -> plan

val guarded_fallback : t -> bool
(** Whether some piece falls back to per-point window tests because an
    access is non-affine in its nest's innermost iterator (e.g. the
    [i / s], [i % s] of a pixel shuffle).  Iterator-free [Div]/[Mod]
    constants such as Unfold's [k / 2] are affine. *)

val forward :
  ?cancel:Robust.Cancel.t -> t -> input:Nd.Tensor.t -> weights:Nd.Tensor.t list -> Nd.Tensor.t
(** Bit-identical to {!Staged_exec.forward} on the same operator.
    Pieces whose estimated work clears {!Staged_exec.par_threshold} run
    on the default pool; [cancel] is polled at piece boundaries, every
    few thousand elements sequentially, and at every pool range claim,
    exactly like the interpreter. *)

(** {2 Seeded plan corruption}

    Mirrors the [Corrupt_expr] pattern of the bounds verifier: faults
    injected downstream of certification, used to demonstrate that
    translation validation is load-bearing. *)

type fault =
  | Overlap_strip  (** split a piece into two halves sharing a plane *)
  | Duplicate_strip  (** append a copy of an existing piece *)
  | Spurious_clip  (** guard an access the certificate proved in-bounds *)
  | Cover_gap  (** shrink a piece, leaving cells uncovered *)

val fault_to_string : fault -> string

val corrupt : fault -> Staged_exec.t -> plan -> plan option
(** Applies the fault to the first nest that can host it; [None] if no
    nest can.  [Overlap_strip], [Duplicate_strip] and [Spurious_clip]
    are execution-invisible: the corrupted plan still computes
    bit-identical outputs (overlapped and duplicated cells recompute
    the same values; a spurious guard never fires), so only
    [Analysis.Certify] can reject them.  [Cover_gap] leaves stale
    zeros and is visible — it checks that Certify agrees with
    execution where execution {e can} tell. *)
