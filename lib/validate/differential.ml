module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor
module Guard = Robust.Guard
module Inject = Robust.Inject
module Reference = Lower.Reference
module Einsum_program = Lower.Einsum_program
module Staged_exec = Lower.Staged_exec

type backend = Reference | Einsum | Staged

let backend_label = function
  | Reference -> "reference"
  | Einsum -> "einsum"
  | Staged -> "staged"

let backend_of_label = function
  | "reference" -> Some Reference
  | "einsum" -> Some Einsum
  | "staged" -> Some Staged
  | _ -> None

let backends = [ Reference; Einsum; Staged ]

type fault_mode = Corrupt_output | Corrupt_expr

type fault = { f_backend : backend; f_inject : Inject.t; f_mode : fault_mode }

let fault ?(seed = 0) ?(rate = 1.0) ?(mode = Corrupt_output) backend =
  { f_backend = backend; f_inject = Inject.create ~seed ~rate (); f_mode = mode }

let fault_count f = Inject.injected_count f.f_inject

(* A seeded out-of-bounds gather: shift the first input coordinate
   expression two extents past its window, so its range can never
   intersect [0, extent).  Every backend zero-clips out-of-window
   reads (see [Reference.gatherer]), so all three agree on an
   all-zero gather and differential comparison alone cannot see the
   fault — the static verifier rejects it as a bounds [Violation]. *)
let corrupt_operator (op : Graph.operator) =
  match (op.Graph.op_input_exprs, op.Graph.op_input_shape) with
  | e :: es, s :: _ ->
      let shifted = Ast.add e (Ast.Size_const (Size.mul (Size.of_int 2) s)) in
      { op with Graph.op_input_exprs = shifted :: es }
  | _ -> op

type config = { tolerance : float; seed : int; fault : fault option }

let default_config = { tolerance = 1e-6; seed = 0; fault = None }

let config ?(tolerance = default_config.tolerance) ?(seed = default_config.seed)
    ?fault () =
  if not (tolerance > 0.0) then invalid_arg "Differential.config: tolerance must be > 0";
  { tolerance; seed; fault }

(* The input/weight RNG seed is a pure function of (config seed,
   operator signature) so verdicts are reproducible and independent of
   evaluation order — and so a distilled counterexample can record the
   derived value and replay the exact same tensors later. *)
let derive_seed ~seed key = seed lxor (Hashtbl.hash key land 0x3fffffff)

type pair_stats = {
  ps_backend : backend;
  ps_max_abs_err : float;
  ps_max_rel_err : float;
  ps_first_fail : (int * float * float) option;
}

type report = {
  rep_valuations : int;
  rep_elements : int;
  rep_max_rel_err : float;
  rep_pairs : pair_stats list;
}

let empty_report =
  { rep_valuations = 0; rep_elements = 0; rep_max_rel_err = 0.0; rep_pairs = [] }

type failure = {
  fl_kind : Guard.kind;
  fl_valuation : Valuation.t;
  fl_seed : int;  (** the derived RNG seed the failing tensors came from *)
  fl_backend : backend option;
  fl_index : int option;
  fl_expected : float option;
  fl_got : float option;
  fl_abs_err : float;
}

(* A seeded miscompile: corrupt one deterministic element of the chosen
   backend's output.  The offset depends only on (key, numel) and the
   injected absolute error is >= 1, far outside any sane tolerance. *)
let maybe_corrupt config ~key backend out =
  match config.fault with
  | Some f
    when f.f_mode = Corrupt_output && f.f_backend = backend
         && Inject.should_fail f.f_inject ~key ~attempt:0 ->
      Inject.note f.f_inject;
      let n = Tensor.numel out in
      if n > 0 then begin
        let i = Hashtbl.hash (key, "miscompile") mod n in
        let v = Tensor.flat_get out i in
        Tensor.flat_set out i (v +. 1.0 +. Float.abs v)
      end
  | Some _ | None -> ()

let compile_and_forward op valuation ~input ~weights backend =
  match backend with
  | Reference ->
      let t = Reference.compile op valuation in
      Reference.forward t ~input ~weights
  | Einsum ->
      let t = Einsum_program.compile op valuation in
      Einsum_program.forward t ~input ~weights
  | Staged ->
      let t = Staged_exec.compile op valuation in
      Staged_exec.forward t ~input ~weights

let run_backend config ~key op valuation ~input ~weights backend =
  match compile_and_forward op valuation ~input ~weights backend with
  | exception Failure msg ->
      Error (Guard.Eval_error (Printf.sprintf "validate(%s): %s" (backend_label backend) msg))
  | out ->
      maybe_corrupt config ~key backend out;
      Ok out

let first_non_finite t =
  let data = Tensor.unsafe_data t in
  let n = Array.length data in
  let rec go i =
    if i >= n then None else if Float.is_finite data.(i) then go (i + 1) else Some i
  in
  go 0

let all_finite t = first_non_finite t = None

(* Hybrid absolute/relative comparison against the reference value:
   |a - r| <= tol * (1 + |r|), so tiny outputs are compared absolutely
   and large ones relatively.  Returns the per-pair statistics the
   report (and a distilled counterexample) records: worst absolute and
   relative errors plus the first element beyond tolerance. *)
let compare_data ~tolerance r c =
  let max_abs = ref 0.0 in
  let max_rel = ref 0.0 in
  let violation = ref None in
  Array.iteri
    (fun i rv ->
      let cv = c.(i) in
      let abs = Float.abs (cv -. rv) in
      let rel = abs /. (1.0 +. Float.abs rv) in
      if abs > !max_abs then max_abs := abs;
      if rel > !max_rel then max_rel := rel;
      if rel > tolerance && !violation = None then violation := Some (i, rv, cv))
    r;
  (!max_abs, !max_rel, !violation)

let compare_against config ~backend reference candidate =
  if Tensor.shape reference <> Tensor.shape candidate then
    Error
      ( Guard.Backend_mismatch
          (Printf.sprintf "%s: output shape differs from reference" (backend_label backend)),
        None )
  else begin
    let max_abs, max_rel, violation =
      compare_data ~tolerance:config.tolerance
        (Tensor.unsafe_data reference)
        (Tensor.unsafe_data candidate)
    in
    match violation with
    | Some (i, rv, cv) ->
        Error
          ( Guard.Backend_mismatch
              (Printf.sprintf
                 "%s[%d] = %h, reference = %h (abs err %.3e, rel err %.3e > tol %.3e)"
                 (backend_label backend) i cv rv max_abs max_rel config.tolerance),
            Some (i, rv, cv, max_abs) )
    | None ->
        Ok
          {
            ps_backend = backend;
            ps_max_abs_err = max_abs;
            ps_max_rel_err = max_rel;
            ps_first_fail = None;
          }
  end

(* [Ok None]: the operator is not instantiable at this valuation —
   there is nothing to execute, so nothing to cross-check.  Skipping
   (rather than erroring) keeps the gate's verdict independent of which
   tiny validation shapes the caller picked: admission must never
   quarantine a candidate the un-validated search would have scored. *)
let check_valuation config ~key op valuation =
  let seed = derive_seed ~seed:config.seed key in
  let fail ?backend ?index ?expected ?got ?(abs_err = 0.0) kind =
    Error
      {
        fl_kind = kind;
        fl_valuation = valuation;
        fl_seed = seed;
        fl_backend = backend;
        fl_index = index;
        fl_expected = expected;
        fl_got = got;
        fl_abs_err = abs_err;
      }
  in
  match Reference.compile op valuation with
  | exception Failure _ -> Ok None
  | compiled -> (
      let rng = Nd.Rng.create ~seed in
      let input = Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Reference.input_shape compiled) in
      let weights = Reference.init_weights compiled rng in
      match Reference.forward compiled ~input ~weights with
      | exception Failure msg -> fail (Guard.Eval_error ("validate(reference): " ^ msg))
      | reference -> (
          maybe_corrupt config ~key Reference reference;
          match first_non_finite reference with
          | Some i ->
              fail ~backend:Reference ~index:i
                ~got:(Tensor.flat_get reference i)
                (Guard.Backend_mismatch "reference: non-finite output on finite inputs")
          | None ->
              let check_one backend =
                match run_backend config ~key op valuation ~input ~weights backend with
                | Error kind -> fail ~backend kind
                | Ok out -> (
                    match first_non_finite out with
                    | Some i ->
                        fail ~backend ~index:i
                          ~expected:(Tensor.flat_get reference i)
                          ~got:(Tensor.flat_get out i)
                          (Guard.Backend_mismatch
                             (Printf.sprintf "%s: non-finite output on finite inputs"
                                (backend_label backend)))
                    | None -> (
                        match compare_against config ~backend reference out with
                        | Ok stats -> Ok stats
                        | Error (kind, Some (i, rv, cv, abs)) ->
                            fail ~backend ~index:i ~expected:rv ~got:cv ~abs_err:abs kind
                        | Error (kind, None) -> fail ~backend kind))
              in
              let ( let* ) = Result.bind in
              let* stats_e = check_one Einsum in
              let* stats_s = check_one Staged in
              Ok (Some (Tensor.numel reference, [ stats_e; stats_s ]))))

(* Fold the per-valuation pair statistics into one worst-case entry per
   backend, so the report stays small no matter how many valuations
   were cross-checked. *)
let merge_pairs acc stats =
  List.fold_left
    (fun acc s ->
      match List.partition (fun p -> p.ps_backend = s.ps_backend) acc with
      | [], rest -> s :: rest
      | p :: _, rest ->
          {
            ps_backend = s.ps_backend;
            ps_max_abs_err = Float.max p.ps_max_abs_err s.ps_max_abs_err;
            ps_max_rel_err = Float.max p.ps_max_rel_err s.ps_max_rel_err;
            ps_first_fail = (if p.ps_first_fail <> None then p.ps_first_fail else s.ps_first_fail);
          }
          :: rest)
    acc stats

let check_full ?(config = default_config) op valuations =
  let key = Graph.operator_signature op in
  let op =
    match config.fault with
    | Some f when f.f_mode = Corrupt_expr && Inject.should_fail f.f_inject ~key ~attempt:0 ->
        Inject.note f.f_inject;
        corrupt_operator op
    | Some _ | None -> op
  in
  let rec go acc = function
    | [] -> Ok acc
    | v :: rest -> (
        match check_valuation config ~key op v with
        | Ok None -> go acc rest
        | Ok (Some (elems, stats)) ->
            let rel =
              List.fold_left (fun m s -> Float.max m s.ps_max_rel_err) acc.rep_max_rel_err
                stats
            in
            go
              {
                rep_valuations = acc.rep_valuations + 1;
                rep_elements = acc.rep_elements + elems;
                rep_max_rel_err = rel;
                rep_pairs = merge_pairs acc.rep_pairs stats;
              }
              rest
        | Error _ as e -> e)
  in
  go empty_report valuations

let check ?config op valuations =
  Result.map_error (fun f -> f.fl_kind) (check_full ?config op valuations)

let admit ?config op valuations = Result.map (fun _ -> ()) (check ?config op valuations)

(* Replay one recorded (valuation, seed, backend) counterexample
   against a fresh candidate: the exact tensors the original failure
   ran on, but only the single backend pair that diverged — roughly
   half the tensor work of a full three-backend cross-check at one
   valuation, with no fault injection in the loop.  A candidate that is
   not instantiable at the recorded valuation passes vacuously, for the
   same reason [check] skips such valuations. *)
let replay_pair ~tolerance ~seed ~backend op valuation =
  match Reference.compile op valuation with
  | exception Failure _ -> Ok ()
  | compiled -> (
      let rng = Nd.Rng.create ~seed in
      let input = Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Reference.input_shape compiled) in
      let weights = Reference.init_weights compiled rng in
      match Reference.forward compiled ~input ~weights with
      | exception Failure msg -> Error (Guard.Eval_error ("replay(reference): " ^ msg))
      | reference -> (
          if not (all_finite reference) then
            Error (Guard.Backend_mismatch "reference: non-finite output on finite inputs")
          else
            match backend with
            | Reference -> Ok ()
            | _ -> (
                match compile_and_forward op valuation ~input ~weights backend with
                | exception Failure msg ->
                    Error
                      (Guard.Eval_error
                         (Printf.sprintf "replay(%s): %s" (backend_label backend) msg))
                | out ->
                    if not (all_finite out) then
                      Error
                        (Guard.Backend_mismatch
                           (Printf.sprintf "%s: non-finite output on finite inputs"
                              (backend_label backend)))
                    else
                      Result.map
                        (fun (_ : pair_stats) -> ())
                        (Result.map_error fst
                           (compare_against
                              { tolerance; seed = 0; fault = None }
                              ~backend reference out)))))
