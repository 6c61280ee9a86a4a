module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Simplify = Coord.Simplify

type config = {
  simplify_ctx : Simplify.ctx;
  max_expand : int;
  max_stride : int;
  max_shift : int;
  max_reduce : int;
  max_frontier : int;
}

let default_config simplify_ctx =
  { simplify_ctx; max_expand = 1; max_stride = 1; max_shift = 2; max_reduce = 4; max_frontier = 8 }

type reason =
  | Position_out_of_range
  | Budget_exceeded of Prim.kind
  | Expand_of_reduce_dim
  | Expand_of_reduced_coordinate
  | Unfold_two_reduced_coordinates
  | Unfold_window_too_large
  | Reduce_of_one
  | Match_strands_reduction
  | Uncanonical_ordering of Prim.t * Prim.t
  | Inapplicable of string
  | Frontier_too_wide
  | Size_not_integral
  | Not_normal_form of Ast.t * Ast.t

let reason_to_string = function
  | Position_out_of_range -> "position out of range"
  | Budget_exceeded kind -> Prim.kind_name kind ^ " budget exceeded"
  | Expand_of_reduce_dim -> "Expand of a Reduce dim only scales the result"
  | Expand_of_reduced_coordinate -> "Expand of a reduced coordinate"
  | Unfold_two_reduced_coordinates -> "Unfold allows at most one reduced coordinate"
  | Unfold_window_too_large -> "Unfold window exceeds the main dimension"
  | Reduce_of_one -> "Reduce(1)"
  | Match_strands_reduction -> "Match would strand a reduction iterator in one weight group"
  | Uncanonical_ordering (last, prim) ->
      Printf.sprintf "uncanonical ordering: %s then %s" (Prim.to_string last)
        (Prim.to_string prim)
  | Inapplicable msg -> msg
  | Frontier_too_wide -> "frontier too wide"
  | Size_not_integral -> "a dimension size is not integral under some valuation"
  | Not_normal_form (expr, simplified) ->
      Format.asprintf "%a is not in normal form (= %a)" Ast.pp expr Ast.pp simplified

let ( let* ) r f = Result.bind r f

let kind_rank = function
  | Prim.K_shift -> 0
  | Prim.K_stride -> 1
  | Prim.K_merge -> 2
  | Prim.K_split -> 3
  | Prim.K_unfold -> 4
  | Prim.K_expand -> 5
  | Prim.K_reduce -> 6
  | Prim.K_share -> 7
  | Prim.K_match -> 8

(* --- Per-state facts ----------------------------------------------------- *)

(* What every candidate action on one parent state reads, computed once
   per state.  A dim's values under the valuations are computed on first
   use, so a single [check] evaluates no more sizes than it needs. *)
type state = {
  g : Graph.t;
  dims : Graph.dim array;  (** the frontier *)
  counts : int array;  (** applied prims per [kind_rank] *)
  written : int list;  (** positions the previous action wrote *)
  valuations : Valuation.t list;
  values : int array option array;
      (** per dim, its size under each valuation, 0 where that is not a
          positive integer; [None] until first used *)
}

(* Frontier positions the previous action wrote, expressed in the
   current frontier's indexing. *)
let written_positions frontier_len = function
  | Prim.Split (p, q) -> [ min p q ]
  | Prim.Merge (p, _) -> [ p; p + 1 ]
  | Prim.Shift p | Prim.Stride (p, _) | Prim.Share (p, _) -> [ p ]
  | Prim.Unfold (p, w) -> [ (if w < p then p - 1 else p) ]
  | Prim.Expand _ | Prim.Match _ -> []
  | Prim.Reduce _ -> [ frontier_len - 1 ]

let stage cfg g =
  let dims = Array.of_list (Graph.frontier g) in
  let counts = Array.make 9 0 in
  List.iter
    (fun p ->
      let r = kind_rank (Prim.kind p) in
      counts.(r) <- counts.(r) + 1)
    (Graph.trace g);
  let written =
    match Graph.last_prim g with
    | None -> []
    | Some last -> written_positions (Array.length dims) last
  in
  {
    g;
    dims;
    counts;
    written;
    valuations = Simplify.valuations cfg.simplify_ctx;
    values = Array.make (Array.length dims) None;
  }

let values st i =
  match st.values.(i) with
  | Some xs -> xs
  | None ->
      let size = st.dims.(i).Graph.size in
      let xs =
        Array.of_list
          (List.map (fun v -> Option.value (Valuation.size_opt v size) ~default:0) st.valuations)
      in
      st.values.(i) <- Some xs;
      xs

(* For-all-valuations size comparison (footnote 4 of the paper): false
   when there are no valuations or a size fails to evaluate. *)
let size_le st w p =
  st.valuations <> []
  && Array.for_all2 (fun x y -> x > 0 && y > 0 && x <= y) (values st w) (values st p)

(* The position of a dim in the parent frontier, -1 for a fresh dim. *)
let index_of st (d : Graph.dim) =
  let rec go i =
    if i = Array.length st.dims then -1 else if st.dims.(i) == d then i else go (i + 1)
  in
  go 0

(* --- Occurrence budgets ------------------------------------------------ *)

let check_budgets cfg st prim =
  let over limit reason =
    if st.counts.(kind_rank (Prim.kind prim)) + 1 > limit then Error reason else Ok ()
  in
  match Prim.kind prim with
  | Prim.K_expand -> over cfg.max_expand (Budget_exceeded Prim.K_expand)
  | Prim.K_stride -> over cfg.max_stride (Budget_exceeded Prim.K_stride)
  | Prim.K_shift -> over cfg.max_shift (Budget_exceeded Prim.K_shift)
  | Prim.K_reduce -> over cfg.max_reduce (Budget_exceeded Prim.K_reduce)
  | Prim.K_split | Prim.K_merge | Prim.K_unfold | Prim.K_share | Prim.K_match -> Ok ()

(* --- Futile-contraction rules ------------------------------------------ *)

let dim_has_reduction (d : Graph.dim) =
  List.exists (fun it -> it.Ast.role = Ast.Reduction) (Ast.iters d.Graph.expr)

let check_contraction_rules st prim =
  match prim with
  | Prim.Expand p ->
      let d = st.dims.(p) in
      if d.Graph.origin = Some Prim.K_reduce then Error Expand_of_reduce_dim
      else if dim_has_reduction d then Error Expand_of_reduced_coordinate
      else Ok ()
  | Prim.Unfold (p, w) ->
      if dim_has_reduction st.dims.(p) && dim_has_reduction st.dims.(w) then
        Error Unfold_two_reduced_coordinates
      else if not (size_le st w p) then Error Unfold_window_too_large
      else Ok ()
  | Prim.Reduce n ->
      if Size.is_constant n && Size.constant n = 1 then Error Reduce_of_one else Ok ()
  | Prim.Match p -> (
      let d = st.dims.(p) in
      match d.Graph.expr with
      | Ast.Iter it when it.Ast.role = Ast.Reduction ->
          let in_groups =
            List.length
              (List.filter
                 (List.exists (fun j -> j.Ast.id = it.Ast.id))
                 (Graph.weights st.g))
          in
          let elsewhere_in_frontier =
            Array.exists
              (fun (d' : Graph.dim) ->
                d' != d && List.exists (fun j -> j.Ast.id = it.Ast.id) (Ast.iters d'.Graph.expr))
              st.dims
          in
          (* After the Match the iterator must still connect at least two
             tensors, otherwise the reduction is a constant factor. *)
          if in_groups >= 1 || elsewhere_in_frontier then Ok () else Error Match_strands_reduction
      | Ast.Iter _ -> Ok ()
      | Ast.Const _ | Ast.Size_const _ | Ast.Add _ | Ast.Sub _ | Ast.Mul _ | Ast.Div _
      | Ast.Mod _ ->
          Ok () (* Graph.apply will reject non-bare dims anyway *))
  | Prim.Split _ | Prim.Merge _ | Prim.Shift _ | Prim.Stride _ | Prim.Share _ -> Ok ()

(* --- Commuting-action ordering ----------------------------------------- *)

let action_key prim =
  let pos = match Prim.positions prim with [] -> max_int | p :: _ -> p in
  (kind_rank (Prim.kind prim), pos, prim)

let key_le (r1, p1, a1) (r2, p2, a2) =
  r1 < r2 || (r1 = r2 && (p1 < p2 || (p1 = p2 && Prim.compare a1 a2 <= 0)))

let check_ordering st prim =
  match Graph.last_prim st.g with
  | None -> Ok ()
  | Some last ->
      let read = Prim.positions prim in
      (* Disjoint touched positions means the two actions could have
         been applied in either order with the same result.  Weight
         actions (Share / Match) are stateful with respect to the
         current weight group, so they never commute with each other. *)
      let weight_action p =
        match Prim.kind p with
        | Prim.K_share | Prim.K_match -> true
        | Prim.K_split | Prim.K_merge | Prim.K_shift | Prim.K_unfold | Prim.K_expand
        | Prim.K_stride | Prim.K_reduce ->
            false
      in
      let commute =
        (not (List.exists (fun p -> List.mem p read) st.written))
        && not (weight_action last && weight_action prim)
      in
      if (not commute) || key_le (action_key last) (action_key prim) then Ok ()
      else Error (Uncanonical_ordering (last, prim))

(* --- Checks on the successor ------------------------------------------- *)

(* Every dimension size must be a positive integer under every
   extracted valuation, otherwise the operator cannot be instantiated
   on the backbone's concrete shapes.  A successor dim physically equal
   to a parent dim takes the parent dim's verdict; only fresh dims are
   evaluated. *)
let check_concrete_sizes st g' =
  let ok (d : Graph.dim) =
    match index_of st d with
    | -1 -> List.for_all (fun v -> Valuation.size_opt v d.Graph.size <> None) st.valuations
    | i -> Array.for_all (fun x -> x > 0) (values st i)
  in
  if List.for_all ok (Graph.frontier g') then Ok () else Error Size_not_integral

(* The freshly created dims of a view must already be in TRS normal
   form; otherwise the same (or an almost identical) operator has a
   syntactically simpler construction, which is the canonical one. *)
let check_expr_normal_form cfg st g' prim =
  if not (Prim.is_view (Prim.kind prim)) then Ok ()
  else
    let rec go = function
      | [] -> Ok ()
      | (d : Graph.dim) :: rest ->
          if index_of st d >= 0 then go rest
          else
            let simplified = Simplify.simplify cfg.simplify_ctx d.Graph.expr in
            if Ast.equal simplified d.Graph.expr then go rest
            else Error (Not_normal_form (d.Graph.expr, simplified))
    in
    go (Graph.frontier g')

(* --- Entry points ------------------------------------------------------- *)

(* Positions are checked first: the rules below index the frontier. *)
let check_staged cfg st prim =
  if not (List.for_all (fun p -> p >= 0 && p < Array.length st.dims) (Prim.positions prim)) then
    Error Position_out_of_range
  else
    let* () = check_budgets cfg st prim in
    let* () = check_contraction_rules st prim in
    let* () = check_ordering st prim in
    let* g' = Result.map_error (fun msg -> Inapplicable msg) (Graph.apply st.g prim) in
    if List.length (Graph.frontier g') > cfg.max_frontier then Error Frontier_too_wide
    else
      let* () = check_concrete_sizes st g' in
      let* () = check_expr_normal_form cfg st g' prim in
      Ok g'

let check cfg g prim = check_staged cfg (stage cfg g) prim

let successors cfg g prims =
  let st = stage cfg g in
  List.filter_map
    (fun prim -> match check_staged cfg st prim with Ok g' -> Some (prim, g') | Error _ -> None)
    prims

let is_canonical cfg g prim = Result.is_ok (check cfg g prim)

let trace_is_canonical cfg output_shape trace =
  let rec go g = function
    | [] -> true
    | p :: rest -> ( match check cfg g p with Ok g' -> go g' rest | Error _ -> false)
  in
  go (Graph.init output_shape) trace
