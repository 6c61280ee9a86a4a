module Size = Shape.Size
module Graph = Pgraph.Graph
module Prim = Pgraph.Prim
module Canon = Pgraph.Canon
module Distance = Pgraph.Distance
module Flops = Pgraph.Flops

type config = {
  canon : Canon.config;
  output_shape : Size.t list;
  desired_shape : Size.t list;
  max_prims : int;
  coefficient_candidates : Size.t list;
  reduce_candidates : Size.t list;
  max_flops : int option;
  max_params : int option;
  valuations : Shape.Valuation.t list;
  frozen_sizes : Size.t list;
}

let default_config ~output_shape ~desired_shape ~valuations () =
  let ctx = Coord.Simplify.ctx valuations in
  {
    canon = Canon.default_config ctx;
    output_shape;
    desired_shape;
    max_prims = 9;
    coefficient_candidates = [];
    reduce_candidates = [];
    max_flops = None;
    max_params = None;
    valuations;
    frozen_sizes = [];
  }

(* Candidate actions on the current frontier, before canonicalization. *)
let candidate_actions cfg g =
  let dims = Array.of_list (Graph.frontier g) in
  let n = Array.length dims in
  let frozen p =
    List.exists (fun s -> Size.equal s dims.(p).Graph.size) cfg.frozen_sizes
  in
  let acc = ref [] in
  let push p = acc := p :: !acc in
  for p = 0 to n - 1 do
    if not (frozen p) then begin
      for q = 0 to n - 1 do
        if q <> p && not (frozen q) then push (Prim.Split (p, q))
      done;
      push (Prim.Shift p);
      push (Prim.Expand p);
      push (Prim.Share (p, Prim.New_group));
      push (Prim.Share (p, Prim.Current_group));
      push (Prim.Match p);
      List.iter
        (fun b ->
          push (Prim.Merge (p, b));
          push (Prim.Stride (p, b)))
        cfg.coefficient_candidates;
      for w = 0 to n - 1 do
        if w <> p && not (frozen w) then push (Prim.Unfold (p, w))
      done
    end
  done;
  List.iter (fun s -> push (Prim.Reduce s)) cfg.reduce_candidates;
  List.rev !acc

let children cfg g =
  if Graph.num_prims g >= cfg.max_prims then []
  else Canon.successors cfg.canon g (candidate_actions cfg g)

let try_complete cfg g =
  match Graph.complete g ~desired:cfg.desired_shape with
  | Error _ -> None
  | Ok op ->
      if
        Flops.within_budgets ?max_flops:cfg.max_flops ?max_params:cfg.max_params op
          cfg.valuations
      then Some op
      else None

type stats = {
  mutable visited : int;
  mutable completed : int;
  mutable pruned_by_distance : int;
}

let make_stats () = { visited = 0; completed = 0; pruned_by_distance = 0 }

let synthesize ?(max_results = 1000) ?(max_visits = 200_000) ?stats cfg =
  let dist = Distance.create () in
  let stats = match stats with Some s -> s | None -> make_stats () in
  let results = Hashtbl.create 64 in
  let exception Done in
  let rec go depth g =
    stats.visited <- stats.visited + 1;
    if stats.visited > max_visits then raise Done;
    (match try_complete cfg g with
    | Some op ->
        let key = Graph.operator_signature op in
        if not (Hashtbl.mem results key) then begin
          Hashtbl.add results key op;
          stats.completed <- stats.completed + 1;
          if Hashtbl.length results >= max_results then raise Done
        end
    | None -> ());
    if depth < cfg.max_prims then
      List.iter
        (fun (_, g') ->
          let budget = cfg.max_prims - depth - 1 in
          if
            Distance.within dist ~current:(Graph.frontier_sizes g')
              ~desired:cfg.desired_shape ~budget
          then go (depth + 1) g'
          else stats.pruned_by_distance <- stats.pruned_by_distance + 1)
        (children cfg g)
  in
  (try go 0 (Graph.init cfg.output_shape) with Done -> ());
  Hashtbl.fold (fun _ op acc -> op :: acc) results []

(* Children annotated with the shape distance of their successor state,
   restricted to those still within the remaining budget. *)
let guided_children cfg dist g ~budget =
  List.filter_map
    (fun (prim, g') ->
      match
        Distance.distance dist ~current:(Graph.frontier_sizes g') ~desired:cfg.desired_shape
      with
      | Some d when d <= budget -> Some (prim, g', d)
      | Some _ | None -> None)
    (children cfg g)

(* Rollout policy: children are weighted by a prior on the primitive
   kind (contractions and windows assemble useful operators far more
   often than speculative reshapes -- the structure the paper's MCTS
   learns from rewards) damped by the successor's shape distance.
   Pure uniform walks rarely complete an operator before the size
   limit. *)
let kind_prior prim =
  match Prim.kind prim with
  | Prim.K_reduce -> 4.0
  | Prim.K_share -> 3.0
  | Prim.K_match -> 3.0
  | Prim.K_unfold -> 3.0
  | Prim.K_split -> 0.6
  | Prim.K_merge -> 0.4
  | Prim.K_shift -> 0.4
  | Prim.K_expand -> 0.3
  | Prim.K_stride -> 0.3

let pick_guided rng options =
  let weight (prim, _, d) = kind_prior prim /. ((1.0 +. float_of_int d) ** 2.0) in
  let total = List.fold_left (fun acc o -> acc +. weight o) 0.0 options in
  let u = Nd.Rng.float rng *. total in
  let rec go acc = function
    | [ (_, g', _) ] -> g'
    | ((_, g', _) as o) :: rest ->
        let acc = acc +. weight o in
        if u < acc then g' else go acc rest
    | [] -> invalid_arg "Enumerate.pick_guided: empty options"
  in
  go 0.0 options

let random_completion cfg rng ~use_distance =
  let dist = Distance.create () in
  let rec go depth g =
    match try_complete cfg g with
    | Some op -> Some op
    | None ->
        if depth >= cfg.max_prims then None
        else if use_distance then
          match guided_children cfg dist g ~budget:(cfg.max_prims - depth - 1) with
          | [] -> None
          | options -> go (depth + 1) (pick_guided rng options)
        else
          let options = children cfg g in
          if options = [] then None
          else
            let _, g' = List.nth options (Nd.Rng.int rng (List.length options)) in
            go (depth + 1) g'
  in
  go 0 (Graph.init cfg.output_shape)
