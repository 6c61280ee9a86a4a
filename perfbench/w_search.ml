(* Workload [search]: one caller, closed loop, seeded MCTS over the
   convolution space at the syno search defaults (max_prims 8, budget
   ratio 1.0, domains 1) with the admission gate on (differential
   validation plus the static gate, no corpus).

   The search is driven through [Search.Mcts.search_run] with the same
   space, reward and gate [Syno.Api.search_conv_operators_run] builds
   (the test suite checks the two return identical candidates), because
   only here can the benchmark see iteration boundaries: the external
   cancel token is polled once per iteration, so a token whose clock
   records its calls timestamps every iteration from outside the
   library. *)

module Api = Syno.Api
module Mcts = Search.Mcts
module Enum = Search.Enumerate
module Graph = Pgraph.Graph



open Record

let max_prims = 8
let budget_ratio = 1.0
let iterations_per_search = 1000
let traced_iterations = 2000
let traced_rollouts = 100
let setup_batch = 20000
let valuations = Api.default_search_valuations
let check_valuations = Api.default_validation_valuations

type setup = {
  cfg : Enum.config;
  budget : int;
  gate : Validate.Admit.t;
}

(* The space [Api.search_conv_operators_run] searches at these
   settings: [N, C_out, H, W] -> [N, C_in, H, W] with the FLOPs budget
   relative to the standard convolution. *)
let setup () =
  let open Syno.Zoo.Vars in
  let sz = Shape.Size.of_var in
  let conv_flops =
    List.fold_left
      (fun acc v -> max acc (Pgraph.Flops.naive_flops Syno.Zoo.conv2d.Syno.Zoo.operator v))
      0 valuations
  in
  let budget = int_of_float (budget_ratio *. float_of_int conv_flops) in
  let base =
    Enum.default_config ~output_shape:[ sz n; sz c_out; sz h; sz w ]
      ~desired_shape:[ sz n; sz c_in; sz h; sz w ] ~valuations ()
  in
  let cfg =
    {
      base with
      Enum.max_prims;
      coefficient_candidates = [ sz k; sz s; sz g ];
      reduce_candidates =
        Shape.Size.
          [
            sz c_in;
            mul (var_pow g (-1)) (sz c_in);
            mul (var_pow g (-1)) (mul (var_pow s (-1)) (sz c_out));
            mul (var_pow s (-1)) (sz c_out);
            sz k;
          ];
      max_flops = Some budget;
      frozen_sizes = [ sz n ];
    }
  in
  let gate =
    Validate.Admit.create ~static:check_valuations ~valuations
      ~differential:Validate.Differential.default_config ~check_valuations ()
  in
  { cfg; budget; gate }

let score ~budget op =
  List.fold_left (fun acc v -> acc +. Search.Reward.score ~flops_budget:budget op v) 0.0 valuations
  /. float_of_int (List.length valuations)

let reward ~budget ~cancel op =
  let r =
    List.fold_left
      (fun acc v ->
        Robust.Cancel.check cancel;
        acc +. Search.Reward.score ~flops_budget:budget op v)
      0.0 valuations
  in
  r /. float_of_int (List.length valuations)

(* Iteration boundaries seen through the cancel token's clock.  Polls
   made while the gate or the reward runs are not boundaries, nor is
   the guard's poll between an admitted candidate and its reward
   attempt (dropped when the reward starts). *)
type probe = {
  mutable inside : int;
  mutable stamps : float list;  (* newest first *)
  mutable admit_exit : float;
}

let probe () = { inside = 0; stamps = []; admit_exit = Float.neg_infinity }

let probe_token p =
  let clock () =
    let t = Unix.gettimeofday () in
    if p.inside = 0 then p.stamps <- t :: p.stamps;
    t
  in
  Robust.Cancel.of_deadline ~clock Float.infinity

let probed_admit p admit op =
  p.inside <- p.inside + 1;
  Fun.protect
    ~finally:(fun () ->
      p.inside <- p.inside - 1;
      p.admit_exit <- Unix.gettimeofday ())
    (fun () -> admit op)

let probed_reward p reward ~cancel op =
  (match p.stamps with s :: rest when s >= p.admit_exit -> p.stamps <- rest | _ -> ());
  p.inside <- p.inside + 1;
  Fun.protect ~finally:(fun () -> p.inside <- p.inside - 1) (fun () -> reward ~cancel op)

let iteration_latencies p ~stop =
  let rec go acc next = function
    | [] -> acc
    | s :: rest -> go ((next -. s) :: acc) s rest
  in
  go [] stop p.stamps

type run = {
  results : Mcts.result list;
  stats : Mcts.failure_stats;
  admission : Validate.Admit.stats;
  latencies : float list;  (* seconds per iteration *)
  wall : float;
}

let search ?(spans : Spans.t option) ~iterations ~seed s =
  let p = probe () in
  let span name f = match spans with Some t -> Spans.with_span t name f | None -> f () in
  let admit op = span "validate.admit" (fun () -> Validate.Admit.gate s.gate op) in
  let reward ~cancel op = span "search.reward" (fun () -> reward ~budget:s.budget ~cancel op) in
  let cancel = probe_token p in
  let t0 = Unix.gettimeofday () in
  let r =
    span "search.mcts" (fun () ->
        Mcts.search_run ~config:(Mcts.default_config ~iterations ()) ~admit:(probed_admit p admit)
          ~cancel s.cfg ~reward:(probed_reward p reward) ~rng:(Nd.Rng.create ~seed) ())
  in
  let stop = Unix.gettimeofday () in
  {
    results = r.Mcts.results;
    stats = r.Mcts.stats;
    admission = Validate.Admit.stats s.gate;
    latencies = iteration_latencies p ~stop;
    wall = stop -. t0;
  }

(* Failed attempts other than admission verdicts: every rejection by the
   gate is one failed attempt. *)
let guard_failures r =
  List.fold_left (fun acc (_, n) -> acc + n) 0 r.stats.Mcts.failed_attempts
  - r.admission.Validate.Admit.rejected

(* Output checks on every healthy candidate, each against an oracle
   other than the search itself.  Returns the failure messages. *)
let check_candidates s (results : Mcts.result list) =
  List.concat_map
    (fun (r : Mcts.result) ->
      if r.Mcts.quarantined then []
      else
        let op = r.Mcts.operator in
        let signature = Graph.operator_signature op in
        let fail what = [ Printf.sprintf "search candidate %s: %s" signature what ] in
        let roundtrip =
          match Pgraph.Trace_io.of_string ~allow_strided:true (Pgraph.Trace_io.to_string op) with
          | Ok op' when Graph.operator_signature op' = signature -> []
          | Ok _ -> fail "Trace_io round trip changed the operator"
          | Error e -> fail ("Trace_io round trip failed: " ^ e)
        in
        let canonical =
          if
            Pgraph.Canon.trace_is_canonical s.cfg.Enum.canon s.cfg.Enum.output_shape
              op.Graph.op_trace
          then []
          else fail "trace does not replay as canonical"
        in
        let bounds =
          List.concat_map
            (fun v ->
              match Analysis.Verify.program_opt op v with
              | Some (Analysis.Verify.Violation d) ->
                  fail ("bounds violation: " ^ Analysis.Verify.diagnostic_to_string d)
              | Some _ | None -> [])
            valuations
        in
        let rescored =
          let expect = score ~budget:s.budget op in
          if Float.equal expect r.Mcts.reward then []
          else fail (Printf.sprintf "reward %h, Reward.score gives %h" r.Mcts.reward expect)
        in
        roundtrip @ canonical @ bounds @ rescored)
    results

let sub_seed seed k = Loadgen.mix seed k

(* A 1000-iteration search takes about 3.3 s on a 2-core x86 host: one
   search per 3 s of --seconds, each from its own sub-seed, so a run
   averages over several trees. *)
let searches ~seconds = max 1 (seconds / 3)

let signatures (r : run) =
  List.map (fun (x : Mcts.result) -> (Graph.operator_signature x.Mcts.operator, x.Mcts.reward)) r.results

let untraced ~seed ~seconds =
  let searches = searches ~seconds in
  let setups = ref [] and problems = ref [] in
  let runs =
    List.init searches (fun k ->
        (* Set-up costs microseconds: time a batch and keep the mean. *)
        let t0 = Unix.gettimeofday () in
        for _ = 2 to setup_batch do
          ignore (setup ())
        done;
        let s = setup () in
        setups := ((Unix.gettimeofday () -. t0) /. float_of_int setup_batch) :: !setups;
        let r = search ~iterations:iterations_per_search ~seed:(sub_seed seed k) s in
        if List.length r.latencies <> iterations_per_search then
          problems :=
            Printf.sprintf "search %d: %d iteration boundaries observed, %d expected" k
              (List.length r.latencies) iterations_per_search
            :: !problems;
        problems := check_candidates s r.results @ !problems;
        r)
  in
  let lat_ms = List.concat_map (fun r -> List.map (fun l -> l *. 1e3) r.latencies) runs in
  let wall = Stats.sum (List.map (fun r -> r.wall) runs) in
  let iterations = List.length lat_ms in
  let ops = List.fold_left (fun acc r -> acc + List.length r.results) 0 runs in
  let attempted = List.fold_left (fun acc r -> acc + r.stats.Mcts.attempts) 0 runs in
  let failed =
    List.fold_left (fun acc r -> acc + guard_failures r) 0 runs + List.length !problems
  in
  let tail_p, tail = Option.value (Stats.tail lat_ms) ~default:(Float.nan, Float.nan) in
  List.iter prerr_endline (List.rev !problems);
  {
    correct = !problems = [];
    attempted;
    failed;
    pool_size = 1;
    metrics =
      [
        metric ~samples:searches "setup_s" "s" (Stats.mean !setups);
        metric "peak_rss_mb" "MiB" (peak_rss_mb ());
        metric ~samples:iterations "throughput_per_s" "1/s" (float_of_int iterations /. wall);
        metric ~samples:iterations "latency_mean_ms" "ms" (Stats.mean lat_ms);
        metric ~samples:iterations "latency_p50_ms" "ms" (Stats.median lat_ms);
        metric ~samples:iterations "latency_tail_ms" "ms" tail;
        metric ~samples:iterations "search.iters_per_s" "1/s" (float_of_int iterations /. wall);
        metric ~samples:searches "search.ops_per_s" "1/s" (float_of_int ops /. wall);
      ];
    notes =
      [
        ("latency_tail_percentile", Json.Float tail_p);
        ("searches", Json.Int searches);
        ("iterations_per_search", Json.Int iterations_per_search);
      ];
  }

(* One rollout of the guided policy replayed through the public
   synthesis calls, so canonicalization and shape distance are timed
   separately.  Same draws as [Enum.random_completion ~use_distance:true]
   for the same generator. *)
type replay_counts = {
  mutable checked : int;
  mutable accepted : int;
  mutable measured : int;
  mutable pruned : int;
}

let replay_rollout spans counts (cfg : Enum.config) rng =
  let dist = Pgraph.Distance.create () in
  let rec go depth g =
    match Enum.try_complete cfg g with
    | Some op -> Some op
    | None when depth >= cfg.Enum.max_prims -> None
    | None -> (
        let budget = cfg.Enum.max_prims - depth - 1 in
        let successors =
          if Graph.num_prims g >= cfg.Enum.max_prims then []
          else
            let actions = Enum.candidate_actions cfg g in
            Spans.with_span spans "pgraph.canon.check" (fun () ->
                List.filter_map
                  (fun prim ->
                    counts.checked <- counts.checked + 1;
                    match Pgraph.Canon.check cfg.Enum.canon g prim with
                    | Ok g' ->
                        counts.accepted <- counts.accepted + 1;
                        Some (prim, g')
                    | Error _ -> None)
                  actions)
        in
        let options =
          Spans.with_span spans "pgraph.distance" (fun () ->
              List.filter_map
                (fun (prim, g') ->
                  counts.measured <- counts.measured + 1;
                  match
                    Pgraph.Distance.distance dist ~current:(Graph.frontier_sizes g')
                      ~desired:cfg.Enum.desired_shape
                  with
                  | Some d when d <= budget -> Some (prim, g', d)
                  | Some _ | None ->
                      counts.pruned <- counts.pruned + 1;
                      None)
                successors)
        in
        match options with [] -> None | _ -> go (depth + 1) (Enum.pick_guided rng options))
  in
  go 0 (Graph.init cfg.Enum.output_shape)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let traced ?(iterations = traced_iterations) ?(rollouts = traced_rollouts) ~seed () =
  let spans = Spans.create () in
  let seed0 = sub_seed seed 0 in
  let s_plain = setup () in
  let plain = search ~iterations ~seed:seed0 s_plain in
  let s = setup () in
  let r = search ~spans ~iterations ~seed:seed0 s in
  let problems = ref (check_candidates s r.results) in
  if signatures plain <> signatures r then
    problems := "traced and untraced searches returned different candidates" :: !problems;
  let counts = { checked = 0; accepted = 0; measured = 0; pruned = 0 } in
  let completed = ref 0 in
  for i = 0 to rollouts - 1 do
    let rseed = sub_seed seed0 (i + 1) in
    let done_ =
      Spans.with_span spans "search.enumerate.rollout" (fun () ->
          Enum.random_completion s.cfg (Nd.Rng.create ~seed:rseed) ~use_distance:true)
    in
    let replayed =
      Spans.with_span spans "search.replay.rollout" (fun () ->
          replay_rollout spans counts s.cfg (Nd.Rng.create ~seed:rseed))
    in
    let sig_of = Option.map Graph.operator_signature in
    if sig_of done_ <> sig_of replayed then
      problems := Printf.sprintf "rollout %d: replay diverged from random_completion" i :: !problems;
    if done_ <> None then incr completed
  done;
  let totals = Spans.totals spans in
  let mcts = Spans.total totals "search.mcts" in
  let rew = Spans.total totals "search.reward" in
  let rollout = Spans.total totals "search.enumerate.rollout" in
  let canon = Spans.total totals "pgraph.canon.check" in
  let distance = Spans.total totals "pgraph.distance" in
  let a = r.admission in
  let n = List.length r.latencies in
  List.iter prerr_endline (List.rev !problems);
  ( spans,
    {
      correct = !problems = [];
      attempted = r.stats.Mcts.attempts + rollouts;
      failed = guard_failures r + List.length !problems;
      pool_size = 1;
      metrics =
        [
          metric "search.mcts.iterations" "count" (float_of_int n);
          metric ~samples:mcts.Spans.calls "search.mcts.self_s" "s" mcts.Spans.self_s;
          metric "search.reward.calls" "count" (float_of_int rew.Spans.calls);
          metric ~samples:rew.Spans.calls "search.reward.s" "s" rew.Spans.total_s;
          metric "search.evaluations" "count" (float_of_int r.stats.Mcts.evaluations);
          metric "search.quarantined" "count" (float_of_int r.stats.Mcts.quarantined);
          metric "validate.admit.calls" "count" (float_of_int a.Validate.Admit.calls);
          metric "validate.admit.rejected" "count" (float_of_int a.Validate.Admit.rejected);
          metric ~samples:a.Validate.Admit.calls "validate.admit.s" "s" a.Validate.Admit.seconds;
          metric ~samples:a.Validate.Admit.calls "validate.admit.static_s" "s"
            a.Validate.Admit.static_seconds;
          metric ~samples:a.Validate.Admit.calls "validate.admit.budget_s" "s"
            a.Validate.Admit.budget_seconds;
          metric ~samples:a.Validate.Admit.calls "validate.admit.differential_s" "s"
            a.Validate.Admit.differential_seconds;
          metric "search.enumerate.rollout.calls" "count" (float_of_int rollout.Spans.calls);
          metric ~samples:rollout.Spans.calls "search.enumerate.rollout.s" "s"
            rollout.Spans.total_s;
          metric ~samples:rollouts "search.enumerate.rollout.complete_ratio" "ratio"
            (ratio !completed rollouts);
          metric "pgraph.canon.check.calls" "count" (float_of_int counts.checked);
          metric ~samples:canon.Spans.calls "pgraph.canon.check.s" "s" canon.Spans.total_s;
          metric ~samples:counts.checked "pgraph.canon.accept_ratio" "ratio"
            (ratio counts.accepted counts.checked);
          metric "pgraph.distance.calls" "count" (float_of_int counts.measured);
          metric ~samples:distance.Spans.calls "pgraph.distance.s" "s" distance.Spans.total_s;
          metric ~samples:counts.measured "pgraph.distance.prune_ratio" "ratio"
            (ratio counts.pruned counts.measured);
          metric ~samples:2 "trace.overhead_ratio" "ratio" (r.wall /. plain.wall);
        ];
      notes = [ ("traced_iterations", Json.Int iterations); ("rollouts", Json.Int rollouts) ];
    } )
