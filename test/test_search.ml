(* Tests for guided enumeration, MCTS, and the reward proxy. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Graph = Pgraph.Graph
module Prim = Pgraph.Prim
module Enumerate = Search.Enumerate
module Mcts = Search.Mcts
module Reward = Search.Reward

let m = Var.primary "M"
let nd_ = Var.primary "Nd"
let kd = Var.primary "Kd"
let sz = Size.of_var

let matmul_valuations =
  [
    Valuation.of_list [ (m, 8); (nd_, 8); (kd, 8) ];
    Valuation.of_list [ (m, 16); (nd_, 4); (kd, 8) ];
  ]

let matmul_cfg ?(max_prims = 4) () =
  let base =
    Enumerate.default_config ~output_shape:[ sz m; sz nd_ ] ~desired_shape:[ sz m; sz kd ]
      ~valuations:matmul_valuations ()
  in
  { base with Enumerate.max_prims; reduce_candidates = [ sz kd ] }

let test_children_are_canonical () =
  let cfg = matmul_cfg () in
  let g = Graph.init [ sz m; sz nd_ ] in
  let kids = Enumerate.children cfg g in
  Alcotest.(check bool) "has children" true (kids <> []);
  (* no duplicate actions *)
  let prims = List.map fst kids in
  Alcotest.(check int) "no duplicates" (List.length prims)
    (List.length (List.sort_uniq Prim.compare prims))

let test_synthesize_finds_matmul () =
  let cfg = matmul_cfg () in
  let stats = Enumerate.make_stats () in
  let ops = Enumerate.synthesize ~max_results:200 ~max_visits:100_000 ~stats cfg in
  Alcotest.(check bool) "found operators" true (ops <> []);
  (* One of them must be exactly matmul: one weight [Kd, Nd] group. *)
  let is_matmul op =
    match op.Graph.op_weights with
    | [ [ a; b ] ] ->
        Size.equal a.Coord.Ast.dom (sz kd) && Size.equal b.Coord.Ast.dom (sz nd_)
    | _ -> false
  in
  Alcotest.(check bool) "matmul among results" true (List.exists is_matmul ops);
  Alcotest.(check bool) "distance pruning fired" true (stats.Enumerate.pruned_by_distance > 0)

let test_synthesized_ops_valid () =
  let cfg = matmul_cfg () in
  let ops = Enumerate.synthesize ~max_results:30 ~max_visits:30_000 cfg in
  List.iter
    (fun op ->
      (* every result must satisfy the completion contract *)
      Alcotest.(check int) "input dims" 2 (List.length op.Graph.op_input_exprs);
      List.iter2
        (fun s d -> Alcotest.(check bool) "shape" true (Size.equal s d))
        op.Graph.op_input_shape [ sz m; sz kd ])
    ops

let test_flops_budget_respected () =
  let cfg = matmul_cfg () in
  let budget = 2 * 8 * 8 * 8 in
  let cfg = { cfg with Enumerate.max_flops = Some budget } in
  let ops = Enumerate.synthesize ~max_results:30 ~max_visits:30_000 cfg in
  List.iter
    (fun op ->
      List.iter
        (fun v ->
          Alcotest.(check bool) "within budget" true
            (Pgraph.Flops.naive_flops op v <= budget))
        matmul_valuations)
    ops

(* --- Random trials: the shape-distance ablation mechanism -------------- *)

let test_random_completion_guided () =
  let cfg = matmul_cfg ~max_prims:4 () in
  let rng = Nd.Rng.create ~seed:11 in
  let successes = ref 0 in
  for _ = 1 to 60 do
    match Enumerate.random_completion cfg rng ~use_distance:true with
    | Some _ -> incr successes
    | None -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "guided trials succeed often (%d/60)" !successes)
    true (!successes > 8)

let test_random_completion_unguided_worse () =
  let cfg = matmul_cfg ~max_prims:4 () in
  let rng_g = Nd.Rng.create ~seed:12 in
  let rng_u = Nd.Rng.create ~seed:12 in
  let count use_distance rng =
    let successes = ref 0 in
    for _ = 1 to 60 do
      if Enumerate.random_completion cfg rng ~use_distance <> None then incr successes
    done;
    !successes
  in
  let guided = count true rng_g in
  let unguided = count false rng_u in
  Alcotest.(check bool)
    (Printf.sprintf "guided (%d) > unguided (%d)" guided unguided)
    true (guided > unguided)

(* --- MCTS ---------------------------------------------------------------- *)

let test_mcts_finds_operators () =
  let cfg = matmul_cfg () in
  let rng = Nd.Rng.create ~seed:13 in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  let results =
    Mcts.search ~config:(Mcts.default_config ~iterations:120 ()) cfg ~reward ~rng ()
  in
  Alcotest.(check bool) "found some" true (results <> []);
  (* sorted by decreasing reward *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Mcts.reward >= b.Mcts.reward && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted results);
  let best = List.hd results in
  Alcotest.(check bool) "best positive" true (best.Mcts.reward > 0.0)

let test_mcts_rollout_depth_honored () =
  (* Regression: rollout_depth used to be declared but never read, so
     any value produced the same search.  A zero horizon pins rollouts
     to their start state and must find strictly fewer operators than
     the default horizon under the same seed. *)
  let cfg = matmul_cfg () in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  let run rollout_depth =
    let base = Mcts.default_config ~iterations:80 () in
    let results =
      Mcts.search
        ~config:{ base with Mcts.rollout_depth }
        cfg ~reward ~rng:(Nd.Rng.create ~seed:21) ()
    in
    List.map (fun r -> Graph.operator_signature r.Mcts.operator) results
  in
  let shallow = run 0 in
  let deep = run 12 in
  Alcotest.(check bool)
    (Printf.sprintf "depth 0 (%d ops) finds fewer than depth 12 (%d ops)"
       (List.length shallow) (List.length deep))
    true
    (List.length shallow < List.length deep)

let test_mcts_reward_memoized () =
  (* Each distinct operator signature is scored exactly once; duplicate
     encounters only bump the visit counter. *)
  let cfg = matmul_cfg () in
  let calls = ref 0 in
  let reward ~cancel:_ op =
    incr calls;
    Reward.score op (List.hd matmul_valuations)
  in
  let results =
    Mcts.search ~config:(Mcts.default_config ~iterations:150 ()) cfg ~reward
      ~rng:(Nd.Rng.create ~seed:13) ()
  in
  let revisits = List.fold_left (fun acc r -> acc + r.Mcts.visits) 0 results in
  Alcotest.(check int) "one reward call per distinct operator" (List.length results) !calls;
  Alcotest.(check bool)
    (Printf.sprintf "duplicates occurred (%d visits, %d distinct)" revisits !calls)
    true (revisits > !calls)

let test_mcts_parallel_matches_sequential_pool () =
  (* Root-parallel with fixed per-tree seeds: the merged result must not
     depend on the pool size. *)
  let cfg = matmul_cfg () in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  let run pool_size =
    Par.Pool.with_pool ~domains:pool_size (fun pool ->
        Mcts.search_parallel
          ~config:(Mcts.default_config ~iterations:60 ())
          ~pool ~trees:3 cfg ~reward ~rng:(Nd.Rng.create ~seed:17) ())
  in
  let seq = run 1 and par = run 3 in
  Alcotest.(check int) "same count" (List.length seq) (List.length par);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same operator"
        (Graph.operator_signature a.Mcts.operator)
        (Graph.operator_signature b.Mcts.operator);
      Alcotest.(check (float 0.0)) "same reward" a.Mcts.reward b.Mcts.reward;
      Alcotest.(check int) "same visits" a.Mcts.visits b.Mcts.visits)
    seq par

let test_mcts_parallel_merges_trees () =
  (* More trees never lose operators relative to any single tree. *)
  let cfg = matmul_cfg () in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  let merged =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        Mcts.search_parallel
          ~config:(Mcts.default_config ~iterations:60 ())
          ~pool ~trees:4 cfg ~reward ~rng:(Nd.Rng.create ~seed:29) ())
  in
  Alcotest.(check bool) "found operators" true (merged <> []);
  let sigs = List.map (fun r -> Graph.operator_signature r.Mcts.operator) merged in
  Alcotest.(check int) "deduplicated" (List.length sigs)
    (List.length (List.sort_uniq compare sigs))

(* --- Single-tree parallel MCTS -------------------------------------------- *)

let test_single_tree_matches_sequential () =
  (* With one worker the shared-tree selection policy and the caller's
     generator are exactly the sequential search's, so the result must
     be bit-for-bit identical: same operators, same rewards, same visit
     counts. *)
  let cfg = matmul_cfg () in
  let reward ~cancel:_ op = Reward.score op (List.hd matmul_valuations) in
  let fingerprint rs =
    List.map
      (fun r -> (Graph.operator_signature r.Mcts.operator, r.Mcts.reward, r.Mcts.visits))
      rs
  in
  List.iter
    (fun seed ->
      let config = Mcts.default_config ~iterations:120 () in
      let seq = Mcts.search ~config cfg ~reward ~rng:(Nd.Rng.create ~seed) () in
      let st =
        Par.Pool.with_pool ~domains:2 (fun pool ->
            Mcts.search_single_tree ~config ~pool ~workers:1 cfg ~reward
              ~rng:(Nd.Rng.create ~seed) ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: single tree (1 worker) = sequential" seed)
        true
        (fingerprint seq = fingerprint st))
    [ 13; 17; 29 ]

let test_single_tree_parallel_workers () =
  (* Several workers share one tree and one reward memo: the search
     still finds operators, deduplicates by signature, calls the reward
     thunk at most once per distinct signature across all workers, and
     every returned reward is the deterministic memoized score. *)
  let cfg = matmul_cfg () in
  let calls = Atomic.make 0 in
  let reward ~cancel:_ op =
    Atomic.incr calls;
    Reward.score op (List.hd matmul_valuations)
  in
  let results =
    Par.Pool.with_pool ~domains:3 (fun pool ->
        Mcts.search_single_tree
          ~config:(Mcts.default_config ~iterations:150 ())
          ~pool cfg ~reward ~rng:(Nd.Rng.create ~seed:13) ())
  in
  Alcotest.(check bool) "found operators" true (results <> []);
  let sigs = List.map (fun r -> Graph.operator_signature r.Mcts.operator) results in
  Alcotest.(check int) "deduplicated" (List.length sigs)
    (List.length (List.sort_uniq compare sigs));
  Alcotest.(check int) "at most one reward call per distinct signature"
    (List.length results) (Atomic.get calls);
  List.iter
    (fun r ->
      Alcotest.(check (float 0.0)) "memoized deterministic reward"
        (Reward.score r.Mcts.operator (List.hd matmul_valuations))
        r.Mcts.reward)
    results

let test_single_tree_cancellation_partial () =
  (* A token tripped mid-search makes the workers return the partial
     memo instead of raising; evaluation stops well short of what the
     uncancelled search performs. *)
  let cfg = matmul_cfg () in
  let config = Mcts.default_config ~iterations:2_000 () in
  let baseline = Atomic.make 0 in
  let (_ : Mcts.result list) =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        Mcts.search_single_tree ~config ~pool cfg
          ~reward:(fun ~cancel:_ op ->
            Atomic.incr baseline;
            Reward.score op (List.hd matmul_valuations))
          ~rng:(Nd.Rng.create ~seed:7) ())
  in
  let tok = Robust.Cancel.create () in
  let evals = Atomic.make 0 in
  let run =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        Mcts.search_single_tree_run ~config ~pool ~cancel:tok cfg
          ~reward:(fun ~cancel:_ op ->
            if Atomic.fetch_and_add evals 1 >= 2 then
              Robust.Cancel.cancel ~reason:"test" tok;
            Reward.score op (List.hd matmul_valuations))
          ~rng:(Nd.Rng.create ~seed:7) ())
  in
  Alcotest.(check bool) "returns partial results, does not raise" true
    (run.Mcts.results <> []);
  Alcotest.(check bool)
    (Printf.sprintf "stopped early (%d evals vs %d uncancelled)" (Atomic.get evals)
       (Atomic.get baseline))
    true
    (Atomic.get evals < Atomic.get baseline);
  (* a pre-tripped token returns immediately with nothing *)
  let dead = Robust.Cancel.create () in
  Robust.Cancel.cancel dead;
  let untouched = Atomic.make 0 in
  let empty =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        Mcts.search_single_tree ~config ~pool ~cancel:dead cfg
          ~reward:(fun ~cancel:_ _ ->
            Atomic.incr untouched;
            1.0)
          ~rng:(Nd.Rng.create ~seed:7) ())
  in
  Alcotest.(check int) "pre-tripped: no results" 0 (List.length empty);
  Alcotest.(check int) "pre-tripped: no evaluations" 0 (Atomic.get untouched)

(* --- Reward features ------------------------------------------------------ *)

let conv_valuation = Syno.Zoo.Vars.conv_valuation ~n:1 ~c_in:16 ~c_out:16 ~hw:8 ()

let test_reward_features () =
  let f e = Reward.features e.Syno.Zoo.operator conv_valuation in
  let conv = f Syno.Zoo.conv2d in
  Alcotest.(check bool) "conv mixes spatially" true conv.Reward.spatial_mixing;
  Alcotest.(check bool) "conv mixes channels" true conv.Reward.channel_mixing;
  let pw = f Syno.Zoo.conv1x1 in
  Alcotest.(check bool) "1x1 no spatial mixing" false pw.Reward.spatial_mixing;
  Alcotest.(check bool) "1x1 channel mixing" true pw.Reward.channel_mixing;
  let shift = f Syno.Zoo.shift_conv in
  Alcotest.(check bool) "shift counts as spatial mixing" true shift.Reward.spatial_mixing

let test_reward_ordering () =
  let score e = Reward.score e.Syno.Zoo.operator conv_valuation in
  Alcotest.(check bool) "conv scores higher than 1x1" true
    (score Syno.Zoo.conv2d > score Syno.Zoo.conv1x1);
  let budget = 100 in
  Alcotest.(check (float 0.0)) "over budget scores zero" 0.0
    (Reward.score ~flops_budget:budget Syno.Zoo.conv2d.Syno.Zoo.operator conv_valuation)

(* The results of the benchmarked search configuration (conv space,
   max_prims 8, FLOPs budget ratio 1.0, one domain, admission gate on)
   at 1000 iterations, pinned as the MD5 of their "signature reward(%h)"
   lines: a change to the synthesis hot path must leave them
   bit-identical. *)
let test_search_results_pinned () =
  List.iter
    (fun (seed, digest) ->
      let run =
        Syno.Api.search_conv_operators_run ~iterations:1000 ~max_prims:8 ~flops_budget_ratio:1.0
          ~domains:1 ~validate:true ~rng:(Nd.Rng.create ~seed)
          ~valuations:Syno.Api.default_search_valuations ()
      in
      let lines =
        List.map
          (fun (c : Syno.Api.candidate) ->
            Printf.sprintf "%s %h" c.Syno.Api.signature c.Syno.Api.reward)
          run.Syno.Api.candidates
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d digest" seed)
        digest
        (Digest.to_hex (Digest.string (String.concat "\n" lines))))
    [ (1, "1536b72919bc9fa98aa15f906c53e981"); (2, "ab9ce07bc9cb06d60d2942119cca08e3") ]

let () =
  Alcotest.run "search"
    [
      ( "enumerate",
        [
          Alcotest.test_case "children canonical" `Quick test_children_are_canonical;
          Alcotest.test_case "finds matmul" `Quick test_synthesize_finds_matmul;
          Alcotest.test_case "results valid" `Quick test_synthesized_ops_valid;
          Alcotest.test_case "flops budget" `Quick test_flops_budget_respected;
        ] );
      ( "random-trials",
        [
          Alcotest.test_case "guided succeeds" `Quick test_random_completion_guided;
          Alcotest.test_case "guided beats unguided" `Quick test_random_completion_unguided_worse;
        ] );
      ( "mcts",
        [
          Alcotest.test_case "finds operators" `Quick test_mcts_finds_operators;
          Alcotest.test_case "rollout depth honored" `Quick test_mcts_rollout_depth_honored;
          Alcotest.test_case "reward memoized" `Quick test_mcts_reward_memoized;
          Alcotest.test_case "parallel = sequential" `Quick
            test_mcts_parallel_matches_sequential_pool;
          Alcotest.test_case "parallel merges trees" `Quick test_mcts_parallel_merges_trees;
        ] );
      ( "single-tree",
        [
          Alcotest.test_case "1 worker = sequential" `Quick
            test_single_tree_matches_sequential;
          Alcotest.test_case "shared tree and memo" `Quick
            test_single_tree_parallel_workers;
          Alcotest.test_case "cancellation partial" `Quick
            test_single_tree_cancellation_partial;
        ] );
      ( "pinned",
        [ Alcotest.test_case "search results (seeds 1, 2)" `Quick test_search_results_pinned ] );
      ( "reward",
        [
          Alcotest.test_case "features" `Quick test_reward_features;
          Alcotest.test_case "ordering" `Quick test_reward_ordering;
        ] );
    ]
