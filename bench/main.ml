(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (\u{00a7}9) on the OCaml substrate.

     dune exec bench/main.exe           -- run everything
     dune exec bench/main.exe fig5      -- one experiment
     dune exec bench/main.exe check    -- validate every BENCH_*.json
     (experiments: fig5 fig6 fig8 fig9 fig10 tab3 ablation micro par robust
      validate analysis cancel shard cegis serve kernel, plus *-smoke
      variants for CI)

   Paper-reported numbers are printed alongside the measured ones; the
   hardware/datasets are simulated (see DESIGN.md), so the comparison
   targets the *shape* of each result, not absolute values. *)

module Size = Shape.Size
module Graph = Pgraph.Graph
module Prim = Pgraph.Prim
module Zoo = Syno.Zoo
module Api = Syno.Api
module Models = Backbones.Models

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

let note fmt = Format.printf ("  " ^^ fmt ^^ "@.")

(* --- Shared accuracy evaluation ------------------------------------------ *)

(* Trained proxy accuracy per operator, cached across experiments (the
   paper likewise reuses the CIFAR-100 search accuracies). *)
let accuracy_cache : (string, float) Hashtbl.t = Hashtbl.create 8

(* The standard proxy mirrors the paper's CIFAR-100 regime: trainable
   operators all converge and the <1% admissibility gate passes them.
   The hard proxy (larger motifs, more classes, tighter budget) leaves
   headroom so operator-quality differences show (Fig. 8). *)
let proxy_data =
  lazy
    (let rng = Nd.Rng.create ~seed:1234 in
     Dataset.Synth_vision.generate rng ~classes:4 ~channels:4 ~size:10 ~train_batches:10
       ~eval_batches:8 ~batch_size:16 ())

let hard_data =
  lazy
    (let rng = Nd.Rng.create ~seed:4321 in
     Dataset.Synth_vision.generate rng ~classes:6 ~channels:4 ~size:10 ~motif:4
       ~train_batches:8 ~eval_batches:8 ~batch_size:16 ())

let hard_cache : (string, float) Hashtbl.t = Hashtbl.create 8

let trained_accuracy_on cache data label (entry : Zoo.entry) =
  match Hashtbl.find_opt cache entry.Zoo.name with
  | Some acc -> acc
  | None ->
      let t0 = Unix.gettimeofday () in
      let h = Api.train_entry ~rng:(Nd.Rng.create ~seed:55) entry (Lazy.force data) in
      let acc = h.Nn.Train.final_eval_accuracy in
      Format.printf "  [train %s] %-16s accuracy %.3f  (%.0fs)@." label entry.Zoo.name acc
        (Unix.gettimeofday () -. t0);
      Hashtbl.add cache entry.Zoo.name acc;
      acc

let trained_accuracy entry = trained_accuracy_on accuracy_cache proxy_data "proxy" entry
let hard_accuracy entry = trained_accuracy_on hard_cache hard_data "hard" entry

let discovered = [ Zoo.operator1; Zoo.operator2; Zoo.shift_conv ]

(* --- Figure 5: end-to-end speedups --------------------------------------- *)

let fig5 () =
  section "Figure 5: end-to-end speedup, five vision models (CIFAR-100 proxy)";
  note "Syno picks the fastest discovered operator within 1%% accuracy loss";
  let conv_acc = trained_accuracy Zoo.conv2d in
  let admissible =
    List.filter (fun e -> trained_accuracy e >= conv_acc -. 0.01) discovered
  in
  note "admissible operators: %s"
    (String.concat ", " (List.map (fun e -> e.Zoo.name) admissible));
  let geomeans = Hashtbl.create 8 in
  Format.printf "@.  %-18s" "model";
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          Format.printf "%15s"
            (Printf.sprintf "%s/%s"
               (if Perf.Compiler_model.name c = "tvm" then "tvm" else "ind")
               p.Perf.Platform.name))
        Perf.Platform.all)
    Perf.Compiler_model.all;
  Format.printf "@.";
  List.iter
    (fun model ->
      Format.printf "  %-18s" model.Models.name;
      List.iter
        (fun compiler ->
          List.iter
            (fun platform ->
              let best =
                List.fold_left
                  (fun acc e -> Float.max acc (Api.speedup e model compiler platform))
                  1.0 admissible
              in
              let key = (Perf.Compiler_model.name compiler, platform.Perf.Platform.name) in
              let sum, n = try Hashtbl.find geomeans key with Not_found -> (0.0, 0) in
              Hashtbl.replace geomeans key (sum +. log best, n + 1);
              Format.printf "%14.2fx" best)
            Perf.Platform.all)
        Perf.Compiler_model.all;
      Format.printf "@.")
    Models.vision_models;
  Format.printf "  %-18s" "geomean";
  List.iter
    (fun compiler ->
      List.iter
        (fun platform ->
          let key = (Perf.Compiler_model.name compiler, platform.Perf.Platform.name) in
          let sum, n = Hashtbl.find geomeans key in
          Format.printf "%14.2fx" (exp (sum /. float_of_int n)))
        Perf.Platform.all)
    Perf.Compiler_model.all;
  Format.printf "@.";
  note "paper geomeans: TVM 2.06x/1.72x/1.47x, TorchInductor 1.37x/1.62x/1.60x";
  note "(mobile-cpu / mobile-gpu / a100)"

(* --- Figure 6: accuracy-latency Pareto ------------------------------------ *)

let fig6 () =
  section "Figure 6: accuracy vs inference-time Pareto points (ImageNet proxy)";
  let conv_acc = trained_accuracy Zoo.conv2d in
  let points model =
    let latency = function
      | None -> Api.model_latency_ms model Perf.Compiler_model.tvm Perf.Platform.mobile_cpu
      | Some e ->
          Api.model_latency_ms ~substitute:e model Perf.Compiler_model.tvm
            Perf.Platform.mobile_cpu
    in
    (None, conv_acc, latency None)
    :: List.map (fun e -> (Some e, trained_accuracy e, latency (Some e))) discovered
  in
  List.iter
    (fun model ->
      Format.printf "@.  %s (mobile CPU, TVM):@." model.Models.name;
      let pts = points model in
      let pareto (me, acc, lat) =
        not
          (List.exists
             (fun (other, acc', lat') ->
               (match (other, me) with
               | None, None -> false
               | Some a, Some b -> a.Zoo.name <> b.Zoo.name
               | _, _ -> true)
               && acc' >= acc && lat' < lat)
             pts)
      in
      List.iter
        (fun ((e, acc, lat) as pt) ->
          Format.printf "    %-18s acc %.3f (%+.3f)  %8.2f ms %s@."
            (match e with None -> "baseline" | Some e -> e.Zoo.name)
            acc (acc -. conv_acc) lat
            (if pareto pt then "[pareto]" else ""))
        pts)
    Models.vision_models;
  note "";
  note "paper: Syno points sit below-left of the baselines with 1-2%% accuracy";
  note "loss and up to 4.73x (TVM) speedup; the fastest admissible point per";
  note "model reproduces that corner"

(* --- Figure 8: Operator 1 case study -------------------------------------- *)

let fig8 () =
  section "Figure 8: Operator 1 vs stacked convolution vs INT8 quantization";
  Format.printf "@.  Operator 1 structure (Fig. 7 / Listing 2):@.";
  let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:64 ~c_out:64 ~hw:28 ~k:3 ~g:2 ~s:2 () in
  let ep = Lower.Einsum_program.compile Zoo.operator1.Zoo.operator valuation in
  print_string (Lower.Einsum_program.to_pytorch ep);
  let conv_acc = hard_accuracy Zoo.conv2d in
  let op1_acc = hard_accuracy Zoo.operator1 in
  let stacked_acc = hard_accuracy Zoo.stacked_conv in
  (* INT8 quantization degrades the baseline by about one point in the
     paper; we reuse that reported delta (this substrate trains FP32). *)
  let int8_acc = conv_acc -. 0.012 in
  let model = Models.resnet18 in
  let tvm = Perf.Compiler_model.tvm in
  Format.printf "@.  %-24s %8s  %12s %12s %12s@." "configuration" "accuracy" "mobile-cpu"
    "mobile-gpu" "a100";
  let row name acc latency =
    Format.printf "  %-24s %8.3f  %10.2fms %10.2fms %10.2fms@." name acc
      (latency Perf.Platform.mobile_cpu)
      (latency Perf.Platform.mobile_gpu)
      (latency Perf.Platform.a100)
  in
  row "conv (fp32 baseline)" conv_acc (fun p -> Api.model_latency_ms model tvm p);
  row "operator 1" op1_acc (fun p -> Api.model_latency_ms ~substitute:Zoo.operator1 model tvm p);
  row "stacked grouped conv" stacked_acc (fun p ->
      Api.model_latency_ms ~substitute:Zoo.stacked_conv model tvm p);
  let int8_latency p =
    List.fold_left
      (fun acc spec ->
        let lo = Api.baseline_layer_op spec in
        acc
        +. float_of_int spec.Backbones.Convspec.count
           *. Perf.Roofline.quantized_operator_time_us tvm p lo.Api.op lo.Api.valuation)
      0.0 model.Models.specs
    /. 1000.0
  in
  row "conv INT8 (paper delta)" int8_acc int8_latency;
  note "";
  note "paper shape: Operator 1 keeps accuracy within 1%%; the stacked";
  note "convolution has similar latency but roughly doubles the degradation;";
  note "Operator 1 also beats INT8 on CPU latency with better accuracy"

(* --- Figure 9: layer-wise comparison with NAS-PTE ------------------------- *)

let fig9 () =
  section "Figure 9: layer-wise latency vs NAS-PTE on ResNet-34";
  let ops =
    [
      ("conv", Zoo.conv2d);
      ("pte-group", Zoo.nas_pte_grouped);
      ("pte-bneck", Zoo.nas_pte_bottleneck);
      ("pte-range", Zoo.nas_pte_range_bottleneck);
      ("syno-op1", Zoo.operator1);
      ("syno-op2", Zoo.operator2);
    ]
  in
  List.iter
    (fun compiler ->
      Format.printf "@.  [%s] latency in us:@." (Perf.Compiler_model.name compiler);
      Format.printf "  %-12s %-12s" "layer" "platform";
      List.iter (fun (name, _) -> Format.printf "%11s" name) ops;
      Format.printf "@.";
      List.iter
        (fun spec ->
          List.iter
            (fun platform ->
              Format.printf "  %-12s %-12s" spec.Backbones.Convspec.layer
                platform.Perf.Platform.name;
              List.iter
                (fun (_, e) ->
                  let lo = Api.substituted_layer_op e spec in
                  Format.printf "%11.1f"
                    (Perf.Roofline.operator_time_us compiler platform lo.Api.op
                       lo.Api.valuation))
                ops;
              Format.printf "@.")
            Perf.Platform.all)
        Models.resnet34_profile_layers)
    Perf.Compiler_model.all;
  Format.printf "@.  FLOPs and parameter reduction of best Syno vs best NAS-PTE:@.";
  List.iter
    (fun spec ->
      let staged e =
        let lo = Api.substituted_layer_op e spec in
        (Lower.Staging.optimize lo.Api.op lo.Api.valuation).Lower.Staging.total_flops
      in
      let params e =
        let lo = Api.substituted_layer_op e spec in
        Pgraph.Flops.params lo.Api.op lo.Api.valuation
      in
      let ptes =
        [ Zoo.nas_pte_grouped; Zoo.nas_pte_bottleneck; Zoo.nas_pte_range_bottleneck ]
      in
      let best_pte f = List.fold_left (fun acc e -> min acc (f e)) max_int ptes in
      let best_syno f = min (f Zoo.operator1) (f Zoo.operator2) in
      Format.printf "    %-12s flops %5.2fx  params %5.2fx@." spec.Backbones.Convspec.layer
        (float_of_int (best_pte staged) /. float_of_int (best_syno staged))
        (float_of_int (best_pte params) /. float_of_int (best_syno params)))
    Models.resnet34_profile_layers;
  note "";
  note "paper: Syno's best ops beat NAS-PTE's best by 2.13x/1.68x/1.63x with";
  note "TVM (cpu/mobile-gpu/a100), with 1.76-4.32x fewer FLOPs and 1.80-9.50x";
  note "fewer parameters; with TorchInductor on mobile, NAS-PTE's standard";
  note "convolutions keep template support while novel operators fall back";
  note "to ATen, reversing the ranking (0.83x-0.84x)"

(* --- Figure 10: GPT-2 ------------------------------------------------------ *)

let fig10 () =
  section "Figure 10: GPT-2 perplexity vs training steps";
  let vocab = 24 and seq_len = 12 and embed = 24 and heads = 2 and layers = 2 in
  let steps = 150 in
  let rng = Nd.Rng.create ~seed:3 in
  let data =
    Dataset.Synth_lm.generate rng ~vocab ~seq_len ~batches:24 ~batch_size:6 ~branching:3 ()
  in
  note "synthetic LM: uniform ppl %.0f, entropy-floor ppl %.2f"
    (Dataset.Synth_lm.uniform_perplexity data)
    (Dataset.Synth_lm.floor_perplexity data);
  let run name make_qkv =
    let rng = Nd.Rng.create ~seed:99 in
    let model = Backbones.Gpt2.create rng ~vocab ~seq_len ~embed ~heads ~layers ?make_qkv () in
    let opt = Nn.Optimizer.adam ~lr:3e-3 () in
    let batches = Array.of_list data.Dataset.Synth_lm.batches in
    let curve = ref [] in
    let t0 = Unix.gettimeofday () in
    for step = 1 to steps do
      let inputs, targets = batches.(step mod Array.length batches) in
      let loss = Backbones.Gpt2.train_step model opt ~inputs ~targets in
      if step mod 25 = 0 then curve := (step, exp loss) :: !curve
    done;
    let wall = Unix.gettimeofday () -. t0 in
    let final = Backbones.Gpt2.perplexity model data.Dataset.Synth_lm.batches in
    (name, Backbones.Gpt2.qkv_params model, List.rev !curve, final, wall)
  in
  let orig = run "original" None in
  let grouped rng ~embed =
    let proj () = Nn.Layer.grouped_linear rng ~features:embed ~groups:4 in
    (proj (), proj (), proj ())
  in
  let substituted = run "syno (grouped QKV)" (Some grouped) in
  List.iter
    (fun (name, qkv, curve, final, wall) ->
      Format.printf "@.  %-20s qkv-params %5d  %.1f ms/step@." name qkv
        (1000.0 *. wall /. float_of_int steps);
      List.iter (fun (s, p) -> Format.printf "    step %4d  ppl %7.2f@." s p) curve;
      Format.printf "    final ppl %.2f@." final)
    [ orig; substituted ];
  let _, _, _, p0, w0 = orig and _, _, _, p1, w1 = substituted in
  note "";
  note "measured: perplexity %.2f -> %.2f, training speedup %.2fx" p0 p1 (w0 /. w1);
  note "paper:    perplexity 111 -> 99,  training speedup 1.1x"

(* --- Table 3 + canonicalization ablation ----------------------------------- *)

let search_space_cfg ?(max_prims = 9) () =
  let open Zoo.Vars in
  let sz = Size.of_var in
  let base =
    Search.Enumerate.default_config
      ~output_shape:[ sz n; sz c_out; sz h; sz w ]
      ~desired_shape:[ sz n; sz c_in; sz h; sz w ]
      ~valuations:Api.default_search_valuations ()
  in
  {
    base with
    Search.Enumerate.max_prims;
    coefficient_candidates = [ sz k; sz s; sz g ];
    reduce_candidates = [ sz c_in; sz k; Size.mul (Size.var_pow s (-1)) (sz c_out) ];
    frozen_sizes = [ sz n ];
  }

let tab3 () =
  section "Table 3 / \u{00a7}9.4: canonicalization ablation";
  let cfg = search_space_cfg () in
  let open Zoo.Vars in
  let sz = Size.of_var in
  let output = [ sz n; sz c_out; sz h; sz w ] in
  let rng = Nd.Rng.create ~seed:77 in
  (* Sample random primitive sequences WITHOUT canonicalization and
     measure how many replay through the canonicalizer. *)
  let random_trace len =
    let rec go g remaining acc =
      if remaining = 0 then Some (List.rev acc)
      else
        let actions =
          List.filter
            (fun p -> Result.is_ok (Graph.apply g p))
            (Search.Enumerate.candidate_actions cfg g)
        in
        match actions with
        | [] -> None
        | actions ->
            let p = List.nth actions (Nd.Rng.int rng (List.length actions)) in
            go (Graph.apply_exn g p) (remaining - 1) (p :: acc)
    in
    go (Graph.init output) len []
  in
  let paper =
    [ (2, 100.0); (3, 18.18); (4, 13.97); (5, 4.40); (6, 1.22); (7, 0.08); (8, 0.0) ]
  in
  Format.printf "@.  %-6s %12s %12s@." "size" "measured" "paper";
  let total = ref 0 and canon_total = ref 0 in
  List.iter
    (fun (len, paper_rate) ->
      let samples = 400 in
      let canonical = ref 0 and drawn = ref 0 in
      for _ = 1 to samples do
        match random_trace len with
        | Some trace ->
            incr drawn;
            if Pgraph.Canon.trace_is_canonical cfg.Search.Enumerate.canon output trace then
              incr canonical
        | None -> ()
      done;
      total := !total + !drawn;
      canon_total := !canon_total + !canonical;
      Format.printf "  %-6d %11.2f%% %11.2f%%@." len
        (100.0 *. float_of_int !canonical /. float_of_int (max 1 !drawn))
        paper_rate)
    paper;
  note "";
  note "overall: %d of %d random pGraphs canonical (%.0fx redundancy removed)"
    !canon_total !total
    (float_of_int !total /. float_of_int (max 1 !canon_total));
  note "paper: 86 of 6452 samples canonical (more than 70x redundancy)"

(* --- Shape-distance ablation ------------------------------------------------ *)

let ablation () =
  section "\u{00a7}9.4: shape-distance guidance ablation";
  let cfg = search_space_cfg ~max_prims:8 () in
  let trials = 3000 in
  let run use_distance =
    let rng = Nd.Rng.create ~seed:5 in
    let distinct = Hashtbl.create 64 in
    let successes = ref 0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to trials do
      match Search.Enumerate.random_completion cfg rng ~use_distance with
      | Some op ->
          incr successes;
          Hashtbl.replace distinct (Graph.operator_signature op) ()
      | None -> ()
    done;
    (!successes, Hashtbl.length distinct, Unix.gettimeofday () -. t0)
  in
  let ok_with, distinct_with, t_with = run true in
  let ok_without, distinct_without, t_without = run false in
  Format.printf "@.  %-22s %10s %10s %10s@." "" "successes" "distinct" "seconds";
  Format.printf "  %-22s %10d %10d %10.2f@." "with shape distance" ok_with distinct_with
    t_with;
  Format.printf "  %-22s %10d %10d %10.2f@." "without" ok_without distinct_without t_without;
  note "";
  note "paper: 253 distinct operators from 5M guided trials in 68s;";
  note "500M unguided trials in 181s found none"

(* --- Microbenchmarks --------------------------------------------------------- *)

let micro () =
  section "Microbenchmarks of the core machinery (Bechamel)";
  let open Bechamel in
  let valuations = Api.default_search_valuations in
  let ctx = Coord.Simplify.ctx valuations in
  let conv = Zoo.conv2d.Zoo.operator in
  let expr = List.nth conv.Graph.op_input_exprs 2 in
  let cfg_canon = Pgraph.Canon.default_config ctx in
  let open Zoo.Vars in
  let sz = Size.of_var in
  let g0 = Graph.init [ sz n; sz c_out; sz h; sz w ] in
  let g1 = Graph.apply_exn g0 (Prim.Reduce (sz c_in)) in
  let warm_dist = Pgraph.Distance.create () in
  (* The perfbench search space and a state four guided steps into it,
     where [children] rejects most candidate actions. *)
  let space =
    {
      (search_space_cfg ~max_prims:8 ()) with
      Search.Enumerate.reduce_candidates =
        Size.
          [
            sz c_in;
            mul (var_pow g (-1)) (sz c_in);
            mul (var_pow g (-1)) (mul (var_pow s (-1)) (sz c_out));
            mul (var_pow s (-1)) (sz c_out);
            sz k;
          ];
    }
  in
  let mid_search =
    let dist = Pgraph.Distance.create () and rng = Nd.Rng.create ~seed:1 in
    let rec go depth g =
      if depth = 4 then g
      else
        match Search.Enumerate.guided_children space dist g ~budget:(8 - depth - 1) with
        | [] -> g
        | options -> go (depth + 1) (Search.Enumerate.pick_guided rng options)
    in
    go 0 g0
  in
  let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:8 ~k:3 ~g:2 ~s:2 () in
  let compiled = Lower.Reference.compile conv valuation in
  let rng = Nd.Rng.create ~seed:1 in
  let x = Nd.Tensor.rand_normal rng ~scale:1.0 (Lower.Reference.input_shape compiled) in
  let conv_weights = Lower.Reference.init_weights compiled rng in
  let mat_a = Nd.Tensor.rand_normal rng ~scale:1.0 [| 32; 32 |] in
  let mat_b = Nd.Tensor.rand_normal rng ~scale:1.0 [| 32; 32 |] in
  let tests =
    Test.make_grouped ~name:"syno" ~fmt:"%s/%s"
      [
        Test.make ~name:"simplify-conv-expr"
          (Staged.stage (fun () -> Coord.Simplify.simplify ctx expr));
        Test.make ~name:"canon-check"
          (Staged.stage (fun () ->
               Pgraph.Canon.is_canonical cfg_canon g1 (Prim.Unfold (2, 4))));
        Test.make ~name:"canon-children"
          (Staged.stage (fun () -> Search.Enumerate.children space mid_search));
        Test.make ~name:"shape-distance"
          (Staged.stage (fun () ->
               Pgraph.Distance.distance
                 (Pgraph.Distance.create ())
                 ~current:(Graph.frontier_sizes g1)
                 ~desired:[ sz n; sz c_in; sz h; sz w ]));
        (* The search hits its memo on most calls: time the lookup. *)
        Test.make ~name:"shape-distance-warm"
          (Staged.stage (fun () ->
               Pgraph.Distance.distance warm_dist ~current:(Graph.frontier_sizes g1)
                 ~desired:[ sz n; sz c_in; sz h; sz w ]));
        Test.make ~name:"einsum-32x32-matmul"
          (Staged.stage (fun () -> Nd.Einsum.einsum "ik,kj->ij" [ mat_a; mat_b ]));
        Test.make ~name:"reference-conv-8ch-8x8"
          (Staged.stage (fun () -> Lower.Reference.forward compiled ~input:x ~weights:conv_weights));
      ]
  in
  let benchmark_cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all benchmark_cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun key v acc -> (key, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      let ns =
        match Analyze.OLS.estimates est with Some [ t ] -> t | Some _ | None -> nan
      in
      Format.printf "  %-32s %12.1f ns/run@." name ns)
    (List.sort compare rows)

(* --- Parallel evaluation engine ---------------------------------------------- *)

(* Throughput of the two hot paths at 1 domain vs N domains, verifying
   that the parallel einsum results are exactly the sequential ones and
   that single-tree parallel MCTS reaches a best reward no worse than
   the sequential search on the same budget, and emitting the
   measurements as a BENCH_par.json trajectory file.  Timing is
   interleaved best-of-k so a background hiccup cannot fake a slowdown.
   The speedup gate is hardware-aware: with >= 2 hardware threads every
   case must reach >= 1x at the parallel pool size; on a single
   hardware thread (where the granularity tuner declines to
   parallelize) the gate is no-regression instead.  The smoke variant
   (bench-smoke alias, run from CI and `dune runtest`) uses tiny
   iteration counts so the gates run on every test run. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let par_bench ~smoke () =
  section
    (Printf.sprintf "Parallel evaluation engine (Domains)%s" (if smoke then " [smoke]" else ""));
  let hw = Domain.recommended_domain_count () in
  (* Never oversubscribe past 4, never less than 2 — the point is to
     measure the parallel machinery even where it cannot win. *)
  let n_domains = max 2 (min 4 (Par.Pool.num_domains ())) in
  let min_speedup = if hw >= 2 then 1.0 else 0.85 in
  note "pool sizes: 1 vs %d (hardware threads %d, speedup gate %.2fx)" n_domains hw
    min_speedup;
  let pool1 = Par.Pool.create ~domains:1 () in
  let pooln = Par.Pool.create ~domains:n_domains () in
  let rng = Nd.Rng.create ~seed:2025 in
  (* Einsum: the default bench shapes. *)
  let iters = if smoke then 4 else 20 in
  let reps = if smoke then 3 else 5 in
  let einsum_cases =
    [
      ("matmul-128", "ik,kj->ij", [ [| 128; 128 |]; [| 128; 128 |] ]);
      ("batched-matmul", "bik,kj->bij", [ [| 8; 64; 64 |]; [| 64; 64 |] ]);
      ("pointwise-conv", "nchw,dc->ndhw", [ [| 2; 32; 24; 24 |]; [| 32; 32 |] ]);
    ]
  in
  let einsum_rows =
    List.map
      (fun (name, spec, shapes) ->
        let tensors =
          List.map (fun sh -> Nd.Tensor.rand_normal rng ~scale:1.0 sh) shapes
        in
        let p = Nd.Einsum.plan spec shapes in
        let run pool =
          let out = ref (Nd.Einsum.run ~pool p tensors) in
          let (), t =
            time (fun () ->
                for _ = 1 to iters do
                  out := Nd.Einsum.run ~pool p tensors
                done)
          in
          (!out, t +. 1e-12)
        in
        (* Warm both pools once, then interleave timed repetitions and
           keep the best of each. *)
        let out1 = ref (fst (run pool1)) and outn = ref (fst (run pooln)) in
        let t1 = ref infinity and tn = ref infinity in
        for _ = 1 to reps do
          let o, t = run pool1 in
          out1 := o;
          if t < !t1 then t1 := t;
          let o, t = run pooln in
          outn := o;
          if t < !tn then tn := t
        done;
        let t1 = !t1 and tn = !tn in
        let identical = Nd.Tensor.unsafe_data !out1 = Nd.Tensor.unsafe_data !outn in
        note "einsum %-16s %-16s 1-domain %8.1f runs/s  %d-domain %8.1f runs/s  %5.2fx  %s"
          name spec
          (float_of_int iters /. t1)
          n_domains
          (float_of_int iters /. tn)
          (t1 /. tn)
          (if identical then "bit-identical" else "MISMATCH");
        (name, spec, t1, tn, identical))
      einsum_cases
  in
  (* MCTS: sequential search vs single-tree parallel search on the
     same total iteration budget and the same seed.  Two properties
     gate: (a) single-tree search with one worker reproduces the
     sequential search bit-for-bit — same operators, same rewards,
     same visit counts — so sharing the tree preserves the search
     semantics exactly; (b) with [n_domains] workers the same total
     budget must not run slower than sequential (gated on real
     parallel hardware only — interleaving makes the *explored set*
     scheduling-dependent, so its best reward is recorded, not
     gated; every reward is still the deterministic memoized score). *)
  let mcts_iterations = if smoke then 200 else 400 in
  (* Unlike the einsum rows (whose granularity tuner falls back to a
     sequential run when parallelism cannot win), MCTS workers always
     contend for the tree lock — so never run more of them than there
     are hardware threads.  On a 1-core host this times 1 worker, a
     meaningful overhead measurement rather than a fake slowdown. *)
  let mcts_workers = max 1 (min n_domains hw) in
  let cfg = search_space_cfg ~max_prims:6 () in
  let mcts_cfg = Search.Mcts.default_config ~iterations:mcts_iterations () in
  let reward ~cancel:_ op = Search.Reward.score op (List.hd Api.default_search_valuations) in
  let res1, mt1 =
    time (fun () ->
        Search.Mcts.search ~config:mcts_cfg cfg ~reward ~rng:(Nd.Rng.create ~seed:41) ())
  in
  let resw1 =
    Search.Mcts.search_single_tree ~config:mcts_cfg ~pool:pooln ~workers:1 cfg ~reward
      ~rng:(Nd.Rng.create ~seed:41) ()
  in
  let resn, mtn =
    time (fun () ->
        Search.Mcts.search_single_tree ~config:mcts_cfg ~pool:pooln ~workers:mcts_workers
          cfg ~reward ~rng:(Nd.Rng.create ~seed:41) ())
  in
  let fingerprint rs =
    List.map
      (fun (r : Search.Mcts.result) ->
        ( Graph.operator_signature r.Search.Mcts.operator,
          r.Search.Mcts.reward,
          r.Search.Mcts.visits ))
      rs
  in
  let mcts_identical = fingerprint res1 = fingerprint resw1 in
  let best rs =
    List.fold_left
      (fun acc (r : Search.Mcts.result) ->
        if r.Search.Mcts.quarantined then acc else Float.max acc r.Search.Mcts.reward)
      neg_infinity rs
  in
  let best1 = best res1 and bestn = best resn in
  note "mcts   %d iters (single tree)  sequential %5.2fs best %.4f   1-worker %s   %d-worker %5.2fs best %.4f  %5.2fx"
    mcts_iterations mt1 best1
    (if mcts_identical then "identical" else "MISMATCH")
    mcts_workers mtn bestn (mt1 /. mtn);
  Par.Pool.shutdown pool1;
  Par.Pool.shutdown pooln;
  (* Trajectory file. *)
  let oc = open_out "BENCH_par.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"domains\": %d,\n" n_domains;
  out "  \"hw_domains\": %d,\n" hw;
  out "  \"min_speedup_gate\": %.2f,\n" min_speedup;
  out "  \"einsum_iterations\": %d,\n" iters;
  out "  \"einsum\": [\n";
  List.iteri
    (fun i (name, spec, t1, tn, identical) ->
      out
        "    {\"name\": \"%s\", \"spec\": \"%s\", \"seconds_1domain\": %.6f, \
         \"seconds_ndomain\": %.6f, \"speedup\": %.3f, \"bit_identical\": %b}%s\n"
        name spec t1 tn (t1 /. tn) identical
        (if i = List.length einsum_rows - 1 then "" else ","))
    einsum_rows;
  out "  ],\n";
  out
    "  \"mcts\": {\"mode\": \"single-tree\", \"iterations\": %d, \"workers\": %d, \
     \"workers_clamped_to_hw\": %b, \
     \"operators_sequential\": %d, \"operators_parallel\": %d, \
     \"best_reward_sequential\": %.6f, \"best_reward_parallel\": %.6f, \
     \"seconds_1domain\": %.6f, \"seconds_ndomain\": %.6f, \"speedup\": %.3f, \
     \"single_worker_identical\": %b}\n"
    mcts_iterations mcts_workers
    (mcts_workers < n_domains)
    (List.length res1) (List.length resn) best1 bestn mt1 mtn
    (mt1 /. mtn) mcts_identical;
  out "}\n";
  close_out oc;
  note "wrote BENCH_par.json";
  let einsum_identical = List.for_all (fun (_, _, _, _, id) -> id) einsum_rows in
  if not (einsum_identical && mcts_identical) then begin
    prerr_endline "parallel results diverged from sequential results";
    exit 1
  end;
  (* The MCTS gate only makes sense on real parallel hardware: with one
     hardware thread the clamp above runs a single worker, whose timing
     is an overhead measurement, not a speedup claim — it is recorded in
     the JSON but informational (the einsum paths fall back to the
     tuner's sequential run instead, so they still gate). *)
  let speedup_ok =
    List.for_all (fun (_, _, t1, tn, _) -> t1 /. tn >= min_speedup) einsum_rows
    && (hw < 2 || mt1 /. mtn >= min_speedup)
  in
  if not speedup_ok then begin
    Printf.eprintf "parallel speedup below the %.2fx gate at %d domains (%d hw threads)\n"
      min_speedup n_domains hw;
    exit 1
  end

(* --- Fault-tolerant evaluation ------------------------------------------------ *)

(* Measures what robustness costs: Robust.Guard wrapping overhead per
   reward call, checkpoint write cost, and end-to-end validation that a
   fault-injected search (with retries) and a kill/resume cycle both
   reproduce the fault-free results.  Emits BENCH_robust.json; the
   smoke variant runs inside `dune runtest` via the bench-smoke alias. *)

let robust_bench ~smoke () =
  section
    (Printf.sprintf "Fault-tolerant candidate evaluation (Robust)%s"
       (if smoke then " [smoke]" else ""));
  (* 1) Guard overhead on a cheap thunk: the worst case, since a real
     reward evaluation dwarfs the wrapper. *)
  let calls = if smoke then 20_000 else 2_000_000 in
  let acc = ref 0.0 in
  let thunk i _token = Float.of_int (i land 1023) *. 0.5 in
  let never = Robust.Cancel.create () in
  let (), t_raw =
    time (fun () ->
        for i = 1 to calls do
          acc := !acc +. (thunk i) never
        done)
  in
  let policy = Robust.Guard.policy ~retries:2 () in
  let (), t_guarded =
    time (fun () ->
        for i = 1 to calls do
          let out = Robust.Guard.run ~policy ~key:"k" (thunk i) in
          match out.Robust.Guard.result with Ok r -> acc := !acc +. r | Error _ -> ()
        done)
  in
  ignore !acc;
  let ns t = 1e9 *. t /. float_of_int calls in
  note "guard overhead: raw %6.1f ns/call, guarded %6.1f ns/call (%.2fx)" (ns t_raw)
    (ns t_guarded)
    (t_guarded /. Float.max 1e-12 t_raw);
  (* 2) A real search, three ways: fault-free, fault-injected with
     retries, and killed + resumed.  All three must agree. *)
  let iterations = if smoke then 150 else 600 in
  let max_prims = 6 in
  let seed = 2024 in
  let run ?guard ?inject ?checkpoint ?resume label =
    let r, t =
      time (fun () ->
          Api.search_conv_operators_run ~iterations ~max_prims ?guard ?inject ?checkpoint
            ~checkpoint_every:10 ?resume ~rng:(Nd.Rng.create ~seed)
            ~valuations:Api.default_search_valuations ())
    in
    note "%-24s %3d operators, %4d evaluations, %4d attempts, %5.2fs" label
      (List.length r.Api.candidates)
      r.Api.failures.Search.Mcts.evaluations r.Api.failures.Search.Mcts.attempts t;
    (r, t)
  in
  let sigs r = List.map (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward)) r.Api.candidates in
  let clean, t_clean = run "fault-free" in
  let inject = Robust.Inject.create ~seed:7 ~rate:0.25 ~max_failures:2 () in
  let faulted, t_faulted =
    run ~guard:(Robust.Guard.policy ~retries:3 ()) ~inject "injected (rate 0.25)"
  in
  let injected_delivered = Robust.Inject.injected_count inject in
  let injected_recorded =
    Option.value ~default:0
      (List.assoc_opt "injected" faulted.Api.failures.Search.Mcts.failed_attempts)
  in
  let faulted_ok = sigs clean = sigs faulted in
  let accounted = injected_delivered = injected_recorded in
  note "injected faults delivered %d, recorded %d (%s); results %s" injected_delivered
    injected_recorded
    (if accounted then "accounted" else "LOST")
    (if faulted_ok then "identical to fault-free" else "DIVERGED");
  (* Kill/resume: a truncated run checkpoints, then a full run resumes
     from the snapshot and must replay to the fault-free results. *)
  let ckpt = Filename.temp_file "syno_bench" ".ckpt" in
  let (_ : Api.search_run), _ =
    time (fun () ->
        Api.search_conv_operators_run ~iterations:(max 1 (iterations / 3)) ~max_prims
          ~checkpoint:ckpt ~checkpoint_every:5 ~rng:(Nd.Rng.create ~seed)
          ~valuations:Api.default_search_valuations ())
  in
  let entries =
    match Search.Checkpoint.load ~path:ckpt with
    | Ok es -> es
    | Error msg -> failwith ("checkpoint load failed: " ^ msg)
  in
  let resumed, t_resumed = run ~resume:ckpt "resumed after kill" in
  let resumed_ok = sigs clean = sigs resumed in
  note "kill/resume: %d entries preloaded, %d fresh evaluations; results %s"
    (List.length entries) resumed.Api.failures.Search.Mcts.evaluations
    (if resumed_ok then "identical to uninterrupted" else "DIVERGED");
  (* 3) Checkpoint write cost at the final table size. *)
  let writes = if smoke then 5 else 50 in
  let (), t_save =
    time (fun () ->
        for _ = 1 to writes do
          Search.Checkpoint.save ~path:ckpt entries
        done)
  in
  let bytes = (Unix.stat ckpt).Unix.st_size in
  note "checkpoint: %d entries, %d bytes, %.2f ms/write" (List.length entries) bytes
    (1000.0 *. t_save /. float_of_int writes);
  Sys.remove ckpt;
  (* Trajectory file. *)
  let oc = open_out "BENCH_robust.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"guard\": {\"calls\": %d, \"raw_ns_per_call\": %.2f, \"guarded_ns_per_call\": %.2f, \
       \"overhead\": %.3f},\n"
    calls (ns t_raw) (ns t_guarded)
    (t_guarded /. Float.max 1e-12 t_raw);
  out "  \"search\": {\"iterations\": %d, \"operators\": %d, \"seconds_clean\": %.6f, \
       \"seconds_injected\": %.6f, \"seconds_resumed\": %.6f},\n"
    iterations
    (List.length clean.Api.candidates)
    t_clean t_faulted t_resumed;
  out "  \"faults\": {\"rate\": 0.25, \"delivered\": %d, \"recorded\": %d, \"accounted\": %b, \
       \"identical_results\": %b},\n"
    injected_delivered injected_recorded accounted faulted_ok;
  out "  \"resume\": {\"entries\": %d, \"fresh_evaluations\": %d, \"identical_results\": %b},\n"
    (List.length entries) resumed.Api.failures.Search.Mcts.evaluations resumed_ok;
  out "  \"checkpoint\": {\"entries\": %d, \"bytes\": %d, \"ms_per_write\": %.4f}\n"
    (List.length entries) bytes
    (1000.0 *. t_save /. float_of_int writes);
  out "}\n";
  close_out oc;
  note "wrote BENCH_robust.json";
  if not (faulted_ok && resumed_ok && accounted) then begin
    prerr_endline "fault-injected or resumed results diverged from the fault-free run";
    exit 1
  end

(* --- Candidate admission & differential validation ---------------------------- *)

(* Measures what the Validate layer costs and proves what it catches:
   over-budget candidates are rejected before any tensor allocation
   (verified with the Nd.Tensor allocation probe), a seeded miscompile
   in one lowering backend is caught as backend_mismatch without
   aborting the search, a fault-free validated search returns exactly
   the unvalidated top-k, and the per-candidate validation cost stays
   under 10% of a candidate evaluation.  Emits BENCH_validate.json. *)

let validate_bench ~smoke () =
  section
    (Printf.sprintf "Candidate admission & differential validation%s"
       (if smoke then " [smoke]" else ""));
  let v0 = List.hd Api.default_search_valuations in
  (* 1) Budget rejection happens before any allocation. *)
  let conv = Zoo.conv2d.Zoo.operator in
  let est = Validate.Budget.estimate conv v0 in
  note "conv2d at the search shape: %d est. bytes (gather %d elems), %d est. flops"
    est.Validate.Budget.est_bytes est.Validate.Budget.est_gather_elems
    est.Validate.Budget.est_flops;
  let alloc0 = Nd.Tensor.allocations () in
  let verdict = Validate.Budget.admit ~max_bytes:1 conv [ v0 ] in
  let allocs_during = Nd.Tensor.allocations () - alloc0 in
  let rejected_before_alloc =
    (match verdict with Error (Robust.Guard.Over_budget _) -> true | Ok () | Error _ -> false)
    && allocs_during = 0
  in
  note "budget gate at max-bytes 1: %s, %d tensor allocations during the check"
    (match verdict with
    | Error k -> Robust.Guard.kind_label k
    | Ok () -> "admitted (BUG)")
    allocs_during;
  (* 2) Searches: unvalidated baseline, fault-free validated (must agree),
     seeded-miscompile validated (must catch), starved budget (must
     reject everything without evaluating anything). *)
  let iterations = if smoke then 150 else 600 in
  let max_prims = 6 in
  let seed = 2024 in
  let run ?max_bytes ?max_flops ?validate ?validate_config label =
    let r, t =
      time (fun () ->
          Api.search_conv_operators_run ~iterations ~max_prims ?max_bytes ?max_flops
            ?validate ?validate_config ~rng:(Nd.Rng.create ~seed)
            ~valuations:Api.default_search_valuations ())
    in
    note "%-28s %3d operators, %4d evaluations, %3d quarantined, %5.2fs" label
      (List.length r.Api.candidates)
      r.Api.failures.Search.Mcts.evaluations r.Api.failures.Search.Mcts.quarantined t;
    (r, t)
  in
  let sigs (r : Api.search_run) =
    List.map (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward)) r.Api.candidates
  in
  let failed_kind (r : Api.search_run) kind =
    Option.value ~default:0 (List.assoc_opt kind r.Api.failures.Search.Mcts.failed_attempts)
  in
  let clean, t_clean = run "unvalidated" in
  let validated, t_validated = run ~validate:true "validated (fault-free)" in
  let same_topk = sigs clean = sigs validated in
  (match validated.Api.admission with
  | Some s ->
      note "admission gate: %d gated, %d rejected, %.3fs total" s.Validate.Admit.calls
        s.Validate.Admit.rejected s.Validate.Admit.seconds
  | None -> ());
  note "fault-free validated results %s"
    (if same_topk then "identical to unvalidated" else "DIVERGED");
  let fault = Validate.Differential.fault ~seed:3 ~rate:0.5 Validate.Differential.Einsum in
  let mutated, _ =
    run ~validate:true
      ~validate_config:(Validate.Differential.config ~fault ())
      "validated (seeded miscompile)"
  in
  let delivered = Validate.Differential.fault_count fault in
  let mismatches = failed_kind mutated "backend_mismatch" in
  let caught = delivered > 0 && mismatches = delivered in
  note "seeded miscompiles (einsum backend, rate 0.5): %d delivered, %d caught as \
       backend_mismatch (%s)"
    delivered mismatches
    (if caught then "all caught" else "MISSED");
  let starved, _ = run ~max_flops:1 "max-flops 1 (all rejected)" in
  let over_budget = failed_kind starved "over_budget" in
  let starved_ok =
    starved.Api.failures.Search.Mcts.evaluations = 0 && over_budget > 0
  in
  note "starved budget: %d over_budget rejections, %d reward evaluations (%s)" over_budget
    starved.Api.failures.Search.Mcts.evaluations
    (if starved_ok then "nothing evaluated" else "LEAKED");
  (* 3) Validator overhead per candidate, against the cost of one
     candidate evaluation (analytic reward + one einsum-program forward
     at the search shape).  Validation runs three small forwards at the
     tiny validation shape, so it must stay well under the 10% gate. *)
  let candidates =
    List.filteri (fun i _ -> i < if smoke then 4 else 8)
      (List.filter_map
         (fun (c : Api.candidate) -> if c.Api.quarantined then None else Some c.Api.operator)
         clean.Api.candidates)
  in
  let repeats = if smoke then 3 else 10 in
  let eval_once op =
    ignore (Search.Reward.score op v0);
    let compiled = Lower.Reference.compile op v0 in
    let rng = Nd.Rng.create ~seed:9 in
    let input =
      Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled)
    in
    let weights = Lower.Reference.init_weights compiled rng in
    let ep = Lower.Einsum_program.compile op v0 in
    ignore (Lower.Einsum_program.forward ep ~input ~weights)
  in
  let validate_once op =
    match Validate.Differential.check op Api.default_validation_valuations with
    | Ok _ | Error _ -> ()
  in
  let mean f =
    let (), t =
      time (fun () -> List.iter (fun op -> for _ = 1 to repeats do f op done) candidates)
    in
    t /. float_of_int (max 1 (repeats * List.length candidates))
  in
  let mean_eval = mean eval_once in
  let mean_validate = mean validate_once in
  let ratio = mean_validate /. Float.max 1e-12 mean_eval in
  let overhead_ok = ratio <= 0.10 in
  note "per-candidate cost over %d candidates: evaluation %.3f ms, validation %.3f ms \
       (%.1f%% %s)"
    (List.length candidates) (1000.0 *. mean_eval) (1000.0 *. mean_validate)
    (100.0 *. ratio)
    (if overhead_ok then "<= 10% gate" else "OVER the 10% gate");
  (* Trajectory file. *)
  let oc = open_out "BENCH_validate.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"budget\": {\"est_bytes\": %d, \"est_flops\": %d, \"rejected_before_alloc\": %b, \
       \"allocations_during_check\": %d},\n"
    est.Validate.Budget.est_bytes est.Validate.Budget.est_flops rejected_before_alloc
    allocs_during;
  out "  \"search\": {\"iterations\": %d, \"operators\": %d, \"seconds_unvalidated\": %.6f, \
       \"seconds_validated\": %.6f, \"identical_topk\": %b},\n"
    iterations
    (List.length clean.Api.candidates)
    t_clean t_validated same_topk;
  out "  \"mutation\": {\"backend\": \"einsum\", \"rate\": 0.5, \"delivered\": %d, \
       \"caught_as_backend_mismatch\": %d, \"all_caught\": %b},\n"
    delivered mismatches caught;
  out "  \"over_budget\": {\"rejections\": %d, \"evaluations\": %d},\n" over_budget
    starved.Api.failures.Search.Mcts.evaluations;
  out "  \"overhead\": {\"candidates\": %d, \"repeats\": %d, \"mean_eval_ms\": %.4f, \
       \"mean_validate_ms\": %.4f, \"ratio\": %.4f, \"within_gate\": %b}\n"
    (List.length candidates) repeats (1000.0 *. mean_eval) (1000.0 *. mean_validate) ratio
    overhead_ok;
  out "}\n";
  close_out oc;
  note "wrote BENCH_validate.json";
  if not (rejected_before_alloc && same_topk && caught && starved_ok && overhead_ok) then begin
    prerr_endline "validation bench assertions failed";
    exit 1
  end

(* --- Static analysis gate ----------------------------------------------------- *)

(* Measures what the Analysis layer costs and proves what it catches:
   every zoo operator's tensor accesses are statically proved in
   bounds (or exactly characterized as legal zero-padding), seeded
   out-of-bounds gathers — which every backend zero-clips, so
   differential validation passes them — are all rejected as
   static_violation before any tensor allocation, the graph lint and
   rewrite-soundness sweeps come back clean, and the static gate costs
   under 20% of the differential gate on the same candidate set.
   Emits BENCH_analysis.json; the smoke variant runs inside
   `dune runtest` via the bench-smoke alias. *)

let analysis_bench ~smoke () =
  section
    (Printf.sprintf "Static analysis gate (Analysis)%s" (if smoke then " [smoke]" else ""));
  let module Verify = Analysis.Verify in
  let module Lint = Analysis.Lint in
  let module Rewrite = Analysis.Rewrite in
  let vs = Api.default_validation_valuations in
  (* 1) Bounds verdicts over the whole catalog: never a violation. *)
  let conv_v = List.hd vs in
  let matmul_v = Zoo.Vars.matmul_valuation ~m:4 ~n:4 ~k:4 in
  let verdict_of (e : Zoo.entry) =
    let v =
      if Option.is_some (Verify.program_opt e.Zoo.operator conv_v) then conv_v else matmul_v
    in
    (e.Zoo.name, Verify.program e.Zoo.operator v)
  in
  let verdicts, t_zoo = time (fun () -> List.map verdict_of Zoo.all) in
  let count p = List.length (List.filter (fun (_, x) -> p x) verdicts) in
  let proved = count (fun x -> x = Verify.Proved) in
  let padded = count (function Verify.Padded _ -> true | _ -> false) in
  let violations = count (function Verify.Violation _ -> true | _ -> false) in
  note "zoo bounds: %d proved, %d padded, %d violations across %d operators (%.2f ms)"
    proved padded violations (List.length verdicts) (1000.0 *. t_zoo);
  let zoo_sound = violations = 0 in
  (* 2) Candidate set: a short unvalidated search at the usual seed. *)
  let iterations = if smoke then 150 else 600 in
  let clean =
    Api.search_conv_operators_run ~iterations ~max_prims:6 ~rng:(Nd.Rng.create ~seed:2024)
      ~valuations:Api.default_search_valuations ()
  in
  let candidates =
    List.filteri (fun i _ -> i < if smoke then 6 else 12)
      (List.filter_map
         (fun (c : Api.candidate) -> if c.Api.quarantined then None else Some c.Api.operator)
         clean.Api.candidates)
  in
  (* 3) Seeded OOB gathers: every backend zero-clips them, so the
     differential gate passes each one — and the static gate must
     reject each one before any tensor exists. *)
  let corrupted = List.map Validate.Differential.corrupt_operator candidates in
  let alloc0 = Nd.Tensor.allocations () in
  let static_verdicts =
    List.map (fun op -> Verify.admit op vs) corrupted
  in
  let static_allocs = Nd.Tensor.allocations () - alloc0 in
  let caught =
    List.length
      (List.filter
         (function Error (Robust.Guard.Static_violation _) -> true | _ -> false)
         static_verdicts)
  in
  let all_caught = caught = List.length corrupted && corrupted <> [] in
  let differential_passes =
    List.length
      (List.filter
         (fun op ->
           match Validate.Differential.check op vs with Ok _ -> true | Error _ -> false)
         corrupted)
  in
  note "seeded OOB gathers: %d/%d caught as static_violation (%d tensor allocations), \
        %d/%d invisible to differential validation"
    caught (List.length corrupted) static_allocs differential_passes
    (List.length corrupted);
  (* 4) Gate cost on the same (healthy) candidate set. *)
  let repeats = if smoke then 5 else 20 in
  let mean f =
    let (), t =
      time (fun () -> List.iter (fun op -> for _ = 1 to repeats do f op done) candidates)
    in
    t /. float_of_int (max 1 (repeats * List.length candidates))
  in
  let mean_static = mean (fun op -> ignore (Verify.admit op vs)) in
  let mean_differential =
    mean (fun op -> ignore (Validate.Differential.check op vs))
  in
  let ratio = mean_static /. Float.max 1e-12 mean_differential in
  let cost_ok = ratio < 0.20 in
  note "per-candidate gate cost over %d candidates: static %.4f ms, differential %.4f ms \
        (%.1f%% %s)"
    (List.length candidates) (1000.0 *. mean_static) (1000.0 *. mean_differential)
    (100.0 *. ratio)
    (if cost_ok then "< 20% gate" else "OVER the 20% gate");
  (* 5) Lint + rewrite-soundness sweeps stay clean. *)
  let lint_errors, lint_warnings =
    List.fold_left
      (fun (e, w) (entry : Zoo.entry) ->
        let v =
          if Option.is_some (Verify.program_opt entry.Zoo.operator conv_v) then conv_v
          else matmul_v
        in
        let fs = Lint.check ~valuations:[ v ] entry.Zoo.operator in
        (e + List.length (Lint.errors fs), w + (List.length fs - List.length (Lint.errors fs))))
      (0, 0) Zoo.all
  in
  let rewrites =
    List.fold_left
      (fun acc (entry : Zoo.entry) ->
        let v =
          if Option.is_some (Verify.program_opt entry.Zoo.operator conv_v) then conv_v
          else matmul_v
        in
        Rewrite.merge_reports acc
          (Rewrite.check_operator (Coord.Simplify.ctx [ v ]) entry.Zoo.operator))
      Rewrite.empty_report Zoo.all
  in
  let rewrites_sound = rewrites.Rewrite.rp_failures = [] in
  note "lint: %d errors, %d warnings; rewrites: %d checked (%d approx), %d unsound"
    lint_errors lint_warnings rewrites.Rewrite.rp_checked rewrites.Rewrite.rp_approx
    (List.length rewrites.Rewrite.rp_failures);
  (* Trajectory file. *)
  let oc = open_out "BENCH_analysis.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"zoo\": {\"operators\": %d, \"proved\": %d, \"padded\": %d, \"violations\": %d, \
       \"seconds\": %.6f},\n"
    (List.length verdicts) proved padded violations t_zoo;
  out "  \"faults\": {\"seeded\": %d, \"caught_as_static_violation\": %d, \
       \"allocations_during_static_gate\": %d, \"invisible_to_differential\": %d},\n"
    (List.length corrupted) caught static_allocs differential_passes;
  out "  \"cost\": {\"candidates\": %d, \"repeats\": %d, \"mean_static_ms\": %.4f, \
       \"mean_differential_ms\": %.4f, \"ratio\": %.4f, \"within_gate\": %b},\n"
    (List.length candidates) repeats (1000.0 *. mean_static)
    (1000.0 *. mean_differential) ratio cost_ok;
  out "  \"lint\": {\"errors\": %d, \"warnings\": %d},\n" lint_errors lint_warnings;
  out "  \"rewrites\": {\"checked\": %d, \"exhaustive\": %d, \"sampled\": %d, \"approx\": %d, \
       \"unsound\": %d}\n"
    rewrites.Rewrite.rp_checked rewrites.Rewrite.rp_exhaustive rewrites.Rewrite.rp_sampled
    rewrites.Rewrite.rp_approx
    (List.length rewrites.Rewrite.rp_failures);
  out "}\n";
  close_out oc;
  note "wrote BENCH_analysis.json";
  if not zoo_sound then prerr_endline "a zoo operator failed static bounds verification";
  if not all_caught then prerr_endline "a seeded OOB gather escaped the static gate";
  if static_allocs <> 0 then prerr_endline "the static gate allocated a tensor";
  if not cost_ok then prerr_endline "static gate cost exceeded 20% of the differential gate";
  if lint_errors <> 0 then prerr_endline "the zoo lint sweep reported errors";
  if not rewrites_sound then prerr_endline "an unsound rewrite fired on a zoo operator";
  if
    not
      (zoo_sound && all_caught && static_allocs = 0 && cost_ok && lint_errors = 0
     && rewrites_sound)
  then exit 1

(* --- Cooperative cancellation ------------------------------------------------ *)

(* Measures what cancellation costs and proves what it guarantees:
   einsum's per-chunk polling sits at the noise floor (<2%, asserted in
   the full run), Guard's preemptive deadline stops a deliberately slow
   candidate mid-evaluation with an overrun bounded by one poll
   interval, and a search cancelled mid-run — the same token path the
   CLI's SIGINT handler trips — returns partial results, flushes its
   checkpoint, and resumes to the uninterrupted top-k.  Emits
   BENCH_cancel.json; the smoke variant runs inside `dune runtest` via
   the bench-smoke alias. *)

let cancel_bench ~smoke () =
  section
    (Printf.sprintf "Cooperative cancellation (Cancel)%s" (if smoke then " [smoke]" else ""));
  (* 1) Einsum poll overhead: the same plan with and without an
     untripped token, best-of-k so scheduler noise doesn't drown a poll
     every 4096 output elements. *)
  let rng = Nd.Rng.create ~seed:2026 in
  let spec, shapes = ("ik,kj->ij", [ [| 128; 128 |]; [| 128; 128 |] ]) in
  let tensors = List.map (fun sh -> Nd.Tensor.rand_normal rng ~scale:1.0 sh) shapes in
  let p = Nd.Einsum.plan spec shapes in
  let iters = if smoke then 3 else 60 in
  let reps = if smoke then 3 else 5 in
  let best f =
    (* warm-up run, then best-of-reps *)
    f ();
    let b = ref infinity in
    for _ = 1 to reps do
      let (), t =
        time (fun () ->
            for _ = 1 to iters do
              f ()
            done)
      in
      if t < !b then b := t
    done;
    !b
  in
  let token = Robust.Cancel.create () in
  let t_plain = best (fun () -> ignore (Nd.Einsum.run p tensors)) in
  let t_polled = best (fun () -> ignore (Nd.Einsum.run ~cancel:token p tensors)) in
  let poll_overhead = (t_polled -. t_plain) /. Float.max 1e-12 t_plain in
  note "einsum poll overhead: plain %6.2f ms/run, polled %6.2f ms/run (%+.2f%%, best of %d)"
    (1000.0 *. t_plain /. float_of_int iters)
    (1000.0 *. t_polled /. float_of_int iters)
    (100.0 *. poll_overhead) reps;
  (* 2) Preemptive deadline on a deliberately slow candidate: an
     evaluation that loops einsum runs, polled through the token Guard
     hands it.  Without preemption this would run to completion and
     only then be classified Timeout; with it, the evaluation stops at
     the next poll and the overrun past the budget is bounded by one
     poll interval. *)
  let slow_runs = if smoke then 80 else 500 in
  let slow token =
    for _ = 1 to slow_runs do
      ignore (Nd.Einsum.run ~cancel:token p tensors)
    done;
    1.0
  in
  let never = Robust.Cancel.create () in
  let (), t_full = time (fun () -> ignore (slow never)) in
  let budget = Float.min (if smoke then 0.02 else 0.15) (t_full /. 4.0) in
  let policy = Robust.Guard.policy ~retries:0 ~timeout:budget () in
  let preempt_trials = if smoke then 2 else 5 in
  let timed_out = ref true in
  let t_preempted = ref 0.0 in
  let max_overrun = ref 0.0 in
  for _ = 1 to preempt_trials do
    let out, t = time (fun () -> Robust.Guard.run ~policy ~key:"slow-candidate" slow) in
    (match out.Robust.Guard.result with
    | Error Robust.Guard.Timeout -> ()
    | _ -> timed_out := false);
    t_preempted := t;
    if t -. budget > !max_overrun then max_overrun := t -. budget
  done;
  note
    "preemption: full run %.3fs, budget %.3fs -> stopped in %.3fs (%s), worst overrun \
     %.1f ms over %d trials"
    t_full budget !t_preempted
    (if !timed_out then "Timeout" else "NOT TIMEOUT")
    (1000.0 *. !max_overrun) preempt_trials;
  let preempt_ok = !timed_out && !t_preempted < t_full /. 2.0 in
  (* 3) Mid-search cancellation + resume: trip the root token after K
     evaluations (exactly what the CLI's SIGINT handler does), then
     resume from the flushed checkpoint and compare against the
     uninterrupted top-k. *)
  let iterations = if smoke then 150 else 600 in
  let cfg = search_space_cfg ~max_prims:(if smoke then 5 else 6) () in
  let mcts_cfg = Search.Mcts.default_config ~iterations () in
  let reward ~cancel:_ op = Search.Reward.score op (List.hd Api.default_search_valuations) in
  let sigs rs =
    List.map
      (fun r -> (Graph.operator_signature r.Search.Mcts.operator, r.Search.Mcts.reward))
      rs
  in
  let clean, t_clean =
    time (fun () ->
        Search.Mcts.search ~config:mcts_cfg cfg ~reward ~rng:(Nd.Rng.create ~seed:17) ())
  in
  let root = Robust.Cancel.create () in
  let evals = ref 0 in
  let trip_after = if smoke then 5 else 8 in
  let tripping ~cancel op =
    incr evals;
    if !evals >= trip_after then Robust.Cancel.cancel ~reason:"SIGINT" root;
    reward ~cancel op
  in
  let ckpt = Filename.temp_file "syno_cancel" ".ckpt" in
  let sink = Search.Checkpoint.sink ~path:ckpt ~every:5 () in
  let partial, t_partial =
    time (fun () ->
        Search.Mcts.search ~config:mcts_cfg ~checkpoint:sink ~cancel:root cfg
          ~reward:tripping ~rng:(Nd.Rng.create ~seed:17) ())
  in
  let entries =
    match Search.Checkpoint.load ~path:ckpt with
    | Ok es -> es
    | Error msg -> failwith ("checkpoint load failed: " ^ msg)
  in
  let resumed, t_resumed =
    time (fun () ->
        Search.Mcts.search ~config:mcts_cfg ~resume:entries cfg ~reward
          ~rng:(Nd.Rng.create ~seed:17) ())
  in
  Sys.remove ckpt;
  let identical = sigs clean = sigs resumed in
  note
    "cancelled search: %d/%d operators after trip at eval %d (%.2fs vs %.2fs clean), %d \
     checkpoint entries; resumed %.2fs, results %s"
    (List.length partial) (List.length clean) trip_after t_partial t_clean
    (List.length entries) t_resumed
    (if identical then "identical to uninterrupted" else "DIVERGED");
  let shutdown_ok = partial <> [] && entries <> [] && identical in
  (* Trajectory file. *)
  let oc = open_out "BENCH_cancel.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out
    "  \"poll\": {\"iterations\": %d, \"plain_ms_per_run\": %.4f, \"polled_ms_per_run\": \
     %.4f, \"overhead\": %.5f},\n"
    iters
    (1000.0 *. t_plain /. float_of_int iters)
    (1000.0 *. t_polled /. float_of_int iters)
    poll_overhead;
  out
    "  \"preempt\": {\"full_seconds\": %.4f, \"budget_seconds\": %.4f, \
     \"preempted_seconds\": %.4f, \"max_overrun_ms\": %.2f, \"trials\": %d, \"timed_out\": \
     %b},\n"
    t_full budget !t_preempted
    (1000.0 *. !max_overrun)
    preempt_trials !timed_out;
  out
    "  \"shutdown\": {\"iterations\": %d, \"trip_after_evals\": %d, \"partial_operators\": \
     %d, \"clean_operators\": %d, \"checkpoint_entries\": %d, \"identical_results\": %b}\n"
    iterations trip_after (List.length partial) (List.length clean) (List.length entries)
    identical;
  out "}\n";
  close_out oc;
  note "wrote BENCH_cancel.json";
  let overhead_ok = smoke || poll_overhead < 0.02 in
  if not overhead_ok then
    Printf.eprintf "einsum poll overhead %.2f%% exceeds the 2%% bound\n"
      (100.0 *. poll_overhead);
  if not preempt_ok then prerr_endline "preemptive deadline failed to bound the slow candidate";
  if not shutdown_ok then prerr_endline "cancelled search did not flush/resume correctly";
  if not (overhead_ok && preempt_ok && shutdown_ok) then exit 1

(* --- Sharded multi-process search --------------------------------------------- *)

(* Proves the headline guarantee of the sharded coordinator
   (Search.Shard + Search.Coordinator): an N-shard run of forked worker
   processes — even one whose workers are killed and restarted
   mid-search — merges to exactly the candidate list of the fork-free
   inline reference on the same seed, and a shard checkpoint truncated
   behind the coordinator's back is quarantined without aborting the
   merge (the affected shard re-searches and the results still match).
   Also records merged-throughput scaling across shard counts
   (informational on hosts without real parallelism) and the wall-clock
   cost of a kill/restart recovery.  Emits BENCH_shard.json; the smoke
   variant runs inside `dune runtest` via the bench-smoke alias. *)

let shard_bench ~smoke () =
  section
    (Printf.sprintf "Sharded multi-process search (Coordinator)%s"
       (if smoke then " [smoke]" else ""));
  let hw = Domain.recommended_domain_count () in
  let iterations = if smoke then 240 else 900 in
  let max_prims = 6 in
  let seed = 2024 in
  let shards = if smoke then 2 else 3 in
  let base = Filename.temp_file "syno_shard" ".ckpt" in
  Sys.remove base;
  let clear_shards n =
    for i = 0 to n - 1 do
      let p = Search.Shard.checkpoint_path ~base ~shard_id:i in
      if Sys.file_exists p then Sys.remove p
    done
  in
  let run ?(shards = shards) ?kill_after ?(inline = false) ?(clean = true) label =
    if clean then clear_shards shards;
    let r, t =
      time (fun () ->
          Api.search_conv_operators_sharded_run ~iterations ~max_prims ~shards ?kill_after
            ~inline ~checkpoint_base:base ~seed
            ~valuations:Api.default_search_valuations ())
    in
    note "%-28s %3d operators, %d restarts, %5.2fs" label
      (List.length r.Api.sh_candidates)
      r.Api.sh_report.Search.Coordinator.rp_restarts t;
    (r, t)
  in
  let sigs (r : Api.sharded_run) =
    List.map (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward)) r.Api.sh_candidates
  in
  (* 1) Determinism: inline reference vs forked vs forked-with-kills. *)
  let inline_r, t_inline = run ~inline:true "inline reference" in
  let forked_r, t_forked = run "forked workers" in
  let killed_r, t_killed = run ~kill_after:3 "forked + kill/restart" in
  let forked_ok = sigs inline_r = sigs forked_r in
  let killed_ok = sigs inline_r = sigs killed_r in
  let restarts = killed_r.Api.sh_report.Search.Coordinator.rp_restarts in
  let restarted = restarts >= 1 in
  let recovery = t_killed -. t_forked in
  note "forked merge %s the inline reference; after kills %s (%d restarts, +%.2fs recovery)"
    (if forked_ok then "matches" else "DIVERGED from")
    (if killed_ok then "matches" else "DIVERGED")
    restarts recovery;
  (* 2) Corrupt-checkpoint survival: truncate one shard file mid-entry.
     The merge must quarantine exactly that file and keep going, and a
     re-run (whose damaged shard restarts fresh while the others resume
     fully memoized) must still reproduce the inline results. *)
  let shard0 = Search.Shard.checkpoint_path ~base ~shard_id:0 in
  let size = (Unix.stat shard0).Unix.st_size in
  Unix.truncate shard0 (max 1 (size / 2));
  let assignments =
    List.init shards (fun i -> Search.Shard.make ~base ~seed ~shards ~shard_id:i)
  in
  let m = Search.Shard.load_and_merge assignments in
  let quarantined_ids = List.map fst m.Search.Shard.mr_quarantined in
  let corrupt_quarantined =
    quarantined_ids = [ 0 ] && List.length m.Search.Shard.mr_loaded = shards - 1
  in
  note "truncated shard 0 checkpoint: merge quarantined %s, kept %d clean shard(s), %d \
        entries"
    (String.concat "," (List.map string_of_int quarantined_ids))
    (List.length m.Search.Shard.mr_loaded)
    (List.length m.Search.Shard.mr_entries);
  let corrupt_rerun, _ = run ~clean:false "re-run over corrupt shard" in
  let corrupt_ok = sigs inline_r = sigs corrupt_rerun in
  note "re-run over the corrupt shard %s the inline reference"
    (if corrupt_ok then "matches" else "DIVERGED from");
  (* 3) Merged-throughput scaling: the same total budget at 1..N shards.
     Candidate sets legitimately differ across shard counts (different
     partitions); only wall clock is compared, and only informationally
     on hosts without >= 2 hardware threads. *)
  let scaling =
    List.map
      (fun n ->
        clear_shards n;
        let _, t = run ~shards:n ~clean:true (Printf.sprintf "throughput, %d shard(s)" n) in
        (n, t))
      (List.sort_uniq compare [ 1; shards ])
  in
  let t_of n = List.assoc n scaling in
  clear_shards shards;
  (* Trajectory file. *)
  let oc = open_out "BENCH_shard.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"shards\": %d,\n" shards;
  out "  \"iterations\": %d,\n" iterations;
  out "  \"hw_domains\": %d,\n" hw;
  out
    "  \"determinism\": {\"inline_seconds\": %.4f, \"forked_seconds\": %.4f, \
     \"killed_seconds\": %.4f, \"identical_forked\": %b, \"identical_after_kills\": %b, \
     \"restarts\": %d, \"recovery_overhead_seconds\": %.4f},\n"
    t_inline t_forked t_killed forked_ok killed_ok restarts recovery;
  out "  \"corrupt\": {\"quarantined_shards\": [%s], \"clean_shards\": %d, \
       \"merged_entries\": %d, \"identical_after_rerun\": %b},\n"
    (String.concat ", " (List.map string_of_int quarantined_ids))
    (List.length m.Search.Shard.mr_loaded)
    (List.length m.Search.Shard.mr_entries)
    corrupt_ok;
  out "  \"scaling\": [\n";
  List.iteri
    (fun i (n, t) ->
      out
        "    {\"shards\": %d, \"seconds\": %.4f, \"iterations_per_second\": %.1f, \
         \"informational\": %b}%s\n"
        n t
        (float_of_int iterations /. Float.max 1e-9 t)
        (hw < 2)
        (if i = List.length scaling - 1 then "" else ","))
    scaling;
  out "  ]\n";
  out "}\n";
  close_out oc;
  note "wrote BENCH_shard.json";
  ignore (t_of 1);
  ignore forked_r;
  if not (forked_ok && killed_ok && restarted && corrupt_quarantined && corrupt_ok) then begin
    prerr_endline "sharded search determinism or crash-tolerance assertions failed";
    exit 1
  end

(* --- Counterexample-guided admission (CEGIS) ----------------------------------- *)

(* Proves the corpus's three headline guarantees (Validate.Corpus).
   (1) Hardening: a seeded-miscompile family caught by differential
   validation on the first run is rejected by corpus replay on the
   second — the faulty backend never executes again (zero fault
   deliveries) and the search trajectory is unchanged.  (2) Cheapness:
   replaying the populated corpus against the zoo costs <= 25% of
   differentially validating the same operators.  (3) Crash tolerance:
   a sharded run whose workers are killed and restarted mid-search
   merges to exactly the corpus and top-k of the fork-free inline
   reference.  Emits BENCH_cegis.json; the smoke variant runs inside
   `dune runtest` via the bench-smoke alias. *)

let cegis_bench ~smoke () =
  section
    (Printf.sprintf "Counterexample-guided admission (Corpus)%s"
       (if smoke then " [smoke]" else ""));
  let iterations = if smoke then 150 else 600 in
  let max_prims = 6 in
  let seed = 2024 in
  let corpus_path = Filename.temp_file "syno_cegis" ".corpus" in
  Sys.remove corpus_path;
  (* Fault delivery is keyed by a hash of the candidate, not by call
     order, so the same candidates miscompile in every run below —
     what changes is which admission stage catches them. *)
  let miscompile () =
    Validate.Differential.fault ~seed:3 ~rate:0.5 Validate.Differential.Einsum
  in
  let run ~fault label =
    let r, t =
      time (fun () ->
          Api.search_conv_operators_run ~iterations ~max_prims ~validate:true
            ~validate_config:(Validate.Differential.config ~fault ())
            ~corpus:corpus_path ~rng:(Nd.Rng.create ~seed)
            ~valuations:Api.default_search_valuations ())
    in
    let s = Option.get r.Api.admission in
    note "%-28s %3d operators, replay %d + differential %d rejections, %5.2fs" label
      (List.length r.Api.candidates)
      s.Validate.Admit.rejected_replay s.Validate.Admit.rejected_differential t;
    (r, s, t)
  in
  let sigs (r : Api.search_run) =
    List.map
      (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward, c.Api.quarantined))
      r.Api.candidates
  in
  (* 1) Hardening: first encounter distills, re-encounter replays. *)
  let fault1 = miscompile () in
  let r1, s1, _ = run ~fault:fault1 "first encounter (faulted)" in
  let delivered1 = Validate.Differential.fault_count fault1 in
  let corpus_entries =
    match Validate.Corpus.load_result ~path:corpus_path with
    | Ok es -> List.length es
    | Error e -> failwith ("corpus load failed: " ^ Validate.Corpus.string_of_error e)
  in
  note "first run: %d miscompiles delivered, %d distilled, %d corpus entries on disk"
    delivered1 s1.Validate.Admit.distilled corpus_entries;
  let fault2 = miscompile () in
  let r2, s2, _ = run ~fault:fault2 "re-encounter (corpus replay)" in
  let delivered2 = Validate.Differential.fault_count fault2 in
  let identical_topk = sigs r1 = sigs r2 in
  let hardened =
    s1.Validate.Admit.rejected_differential > 0
    && s2.Validate.Admit.rejected_replay = s1.Validate.Admit.rejected_differential
    && s2.Validate.Admit.rejected_differential = 0
    && delivered2 = 0
  in
  note "re-encounter: %d replay rejections, %d differential, %d faults delivered (%s); \
        top-k %s"
    s2.Validate.Admit.rejected_replay s2.Validate.Admit.rejected_differential delivered2
    (if hardened then "differential never ran on the family" else "NOT HARDENED")
    (if identical_topk then "identical" else "DIVERGED");
  (* 2) Cheapness: replay vs differential over the zoo, same corpus. *)
  let zoo_corpus, _ = Validate.Corpus.open_file ~readonly:true corpus_path in
  let zoo_ops = List.map (fun e -> e.Zoo.operator) Zoo.all in
  let repeats = if smoke then 5 else 20 in
  let vs = Api.default_validation_valuations in
  let (), t_replay =
    time (fun () ->
        for _ = 1 to repeats do
          List.iter (fun op -> ignore (Validate.Corpus.replay zoo_corpus op)) zoo_ops
        done)
  in
  let (), t_diff =
    time (fun () ->
        for _ = 1 to repeats do
          List.iter
            (fun op ->
              match Validate.Differential.check op vs with Ok _ | Error _ -> ())
            zoo_ops
        done)
  in
  let replay_ratio = t_replay /. Float.max 1e-12 t_diff in
  let replay_cheap = replay_ratio <= 0.25 in
  note "zoo replay %.3f ms vs differential %.3f ms over %d ops x %d (%.1f%% %s)"
    (1000.0 *. t_replay) (1000.0 *. t_diff) (List.length zoo_ops) repeats
    (100.0 *. replay_ratio)
    (if replay_cheap then "<= 25% gate" else "OVER the 25% gate");
  (* 3) Crash tolerance: killed + restarted sharded run vs inline
     reference — identical merged top-k AND identical merged corpus. *)
  let base = Filename.temp_file "syno_cegis_shard" ".ckpt" in
  Sys.remove base;
  let shard_corpus = base ^ ".corpus" in
  let shards = 2 in
  let clear () =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      (shard_corpus
      :: List.concat
           (List.init shards (fun i ->
                [
                  Search.Shard.checkpoint_path ~base ~shard_id:i;
                  Validate.Corpus.shard_path ~base:shard_corpus ~shard_id:i;
                ])))
  in
  let sharded ?kill_after ~inline label =
    clear ();
    let r, t =
      time (fun () ->
          Api.search_conv_operators_sharded_run ~iterations ~max_prims ~shards ?kill_after
            ~inline ~validate:true
            ~validate_config:(Validate.Differential.config ~fault:(miscompile ()) ())
            ~corpus:shard_corpus ~checkpoint_base:base ~seed
            ~valuations:Api.default_search_valuations ())
    in
    let idents =
      match r.Api.sh_corpus with
      | Some m -> List.map Validate.Corpus.ident m.Validate.Corpus.mr_entries
      | None -> []
    in
    note "%-28s %3d operators, %d restarts, %d corpus entries, %5.2fs" label
      (List.length r.Api.sh_candidates)
      r.Api.sh_report.Search.Coordinator.rp_restarts (List.length idents) t;
    (r, idents)
  in
  let ssigs (r : Api.sharded_run) =
    List.map
      (fun (c : Api.candidate) -> (c.Api.signature, c.Api.reward, c.Api.quarantined))
      r.Api.sh_candidates
  in
  let inline_r, inline_idents = sharded ~inline:true "sharded inline reference" in
  let killed_r, killed_idents = sharded ~kill_after:3 ~inline:false "sharded + kill/restart" in
  let restarts = killed_r.Api.sh_report.Search.Coordinator.rp_restarts in
  let shard_topk_ok = ssigs inline_r = ssigs killed_r in
  let shard_corpus_ok = inline_idents <> [] && inline_idents = killed_idents in
  note "killed run: top-k %s, merged corpus %s the inline reference (%d restarts)"
    (if shard_topk_ok then "matches" else "DIVERGED from")
    (if shard_corpus_ok then "identical to" else "DIVERGED from")
    restarts;
  clear ();
  Sys.remove corpus_path;
  (* Trajectory file. *)
  let oc = open_out "BENCH_cegis.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"hardening\": {\"iterations\": %d, \"delivered_first\": %d, \"distilled\": %d, \
       \"corpus_entries\": %d, \"replay_rejections\": %d, \"differential_rejections_rerun\": \
       %d, \"delivered_rerun\": %d, \"identical_topk\": %b, \"hardened\": %b},\n"
    iterations delivered1 s1.Validate.Admit.distilled corpus_entries
    s2.Validate.Admit.rejected_replay s2.Validate.Admit.rejected_differential delivered2
    identical_topk hardened;
  out "  \"replay_cost\": {\"zoo_operators\": %d, \"repeats\": %d, \"replay_seconds\": %.6f, \
       \"differential_seconds\": %.6f, \"ratio\": %.4f, \"within_gate\": %b},\n"
    (List.length zoo_ops) repeats t_replay t_diff replay_ratio replay_cheap;
  out "  \"shard\": {\"shards\": %d, \"restarts\": %d, \"identical_topk\": %b, \
       \"identical_corpus\": %b, \"corpus_entries\": %d}\n"
    shards restarts shard_topk_ok shard_corpus_ok (List.length inline_idents);
  out "}\n";
  close_out oc;
  note "wrote BENCH_cegis.json";
  if
    not
      (hardened && identical_topk && replay_cheap && restarts >= 1 && shard_topk_ok
     && shard_corpus_ok)
  then begin
    prerr_endline "counterexample-corpus hardening/cost/crash-tolerance assertions failed";
    exit 1
  end

(* --- serve: the operator daemon under load ------------------------------------- *)

(* The syno-as-a-service contract (lib/serve), measured end to end over
   the real CLI binary and Unix-domain socket: cached hits must
   amortize the lower+verify+validate pipeline by >= 10x; a 2x
   open-loop overload must be shed with typed [overloaded] responses
   while accepted requests hold their deadlines and queue gauges stay
   within their bounds; a SIGKILLed daemon must restart warm from its
   persisted cache; a poisoned operator must produce a typed error,
   then a replay rejection on re-encounter, with the daemon still
   serving; and SIGTERM must drain to exit 0 with every in-flight
   request answered before EOF.  Emits BENCH_serve.json; the smoke
   variant runs inside `dune runtest` via the serve-smoke alias. *)

let serve_bench ~smoke () =
  section (Printf.sprintf "Operator daemon (Serve)%s" (if smoke then " [smoke]" else ""));
  let module P = Serve.Protocol in
  let module C = Serve.Client in
  (* The daemon is the *real* binary, spawned fork+exec (never a bare
     fork: this bench process may hold live domains from earlier
     experiments, which do not survive a fork). *)
  let cli =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
      (Filename.concat "bin" "syno_cli.exe")
  in
  let dir = Filename.temp_file "syno_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "sock" in
  let cache_path = Filename.concat dir "cache.snap" in
  let corpus_path = Filename.concat dir "bugs.corpus" in
  let workers = 2 in
  let max_depth = 8 in
  let max_inflight_bytes = 4 * 1024 * 1024 in
  (* Any daemon we spawn is tracked until reaped, and force-killed on
     every exit path — a gate failure must not leave an orphan serving
     on a stale temp socket. *)
  let live = ref [] in
  let spawn_daemon () =
    let args =
      [ cli; "serve"; "--socket"; sock; "--cache"; cache_path; "--cache-every"; "1";
        "--corpus"; corpus_path; "--max-queue"; string_of_int max_depth; "--workers";
        string_of_int workers; "--drain-grace"; "30" ]
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid = Unix.create_process cli (Array.of_list args) Unix.stdin devnull Unix.stderr in
    Unix.close devnull;
    live := pid :: !live;
    pid
  in
  let reaped pid = live := List.filter (fun p -> p <> pid) !live in
  let kill_live () =
    List.iter
      (fun p ->
        (try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] p) with Unix.Unix_error _ -> ())
      !live;
    live := []
  in
  let fail fmt = Printf.ksprintf (fun m -> failwith ("serve bench: " ^ m)) fmt in
  let must = function Ok v -> v | Error e -> fail "%s" e in
  let connect () = must (C.connect ~timeout:10.0 sock) in
  let ids = ref 0 in
  let request ?(params = []) verb =
    incr ids;
    { P.rq_id = Printf.sprintf "r%d" !ids; rq_verb = verb; rq_params = params }
  in
  let call c ?params verb = must (C.call ~timeout:60.0 c (request ?params verb)) in
  let ok_param resp key =
    match resp with
    | P.Resp_ok ps -> List.assoc_opt key ps
    | P.Resp_error { err_kind; err_detail; _ } ->
        fail "unexpected error %s (%s)" err_kind err_detail
  in
  let err_kind = function P.Resp_error { err_kind; _ } -> err_kind | P.Resp_ok _ -> "ok" in
  Fun.protect ~finally:kill_live @@ fun () ->
  (* --- Phase 1: cold vs cached zoo pass -------------------------------- *)
  let pid_a = spawn_daemon () in
  let conn = ref (connect ()) in
  let zoo_ops =
    let names = List.map (fun e -> e.Zoo.name) Zoo.conv_like in
    if smoke then List.filteri (fun i _ -> i < 3) names else names
  in
  let micros_of resp =
    match ok_param resp "micros" with
    | Some m -> float_of_string m
    | None -> fail "response without micros"
  in
  (* Distinct zoo names can canonicalize to the same operator signature
     (the cache key), so a later entry may warm-hit on the cold pass;
     measure the speedup only over the genuinely-cold set. *)
  let zoo_ops, cold_micros =
    List.fold_left
      (fun (cold_ops, acc) op ->
        let resp = call !conn ~params:[ ("op", op) ] P.Eval in
        match ok_param resp "cached" with
        | Some "0" -> (op :: cold_ops, acc +. micros_of resp)
        | _ -> (cold_ops, acc))
      ([], 0.0) zoo_ops
    |> fun (ops, acc) -> (List.rev ops, acc)
  in
  let warm_micros =
    List.fold_left
      (fun acc op ->
        let resp = call !conn ~params:[ ("op", op) ] P.Eval in
        (match ok_param resp "cached" with
        | Some "1" -> ()
        | _ -> fail "warm pass: %s was not a cache hit" op);
        acc +. micros_of resp)
      0.0 zoo_ops
  in
  let speedup = cold_micros /. Float.max 1.0 warm_micros in
  let cache_gate = speedup >= 10.0 in
  note "cache: %d operators, cold %.0fus, warm %.0fus, speedup %.0fx (gate >= 10x: %s)"
    (List.length zoo_ops) cold_micros warm_micros speedup (if cache_gate then "ok" else "FAIL");
  (* --- Phase 2: 2x open-loop overload ----------------------------------- *)
  (* Size the offered rate from the measured cold service time: 2x the
     daemon's worker capacity, uncacheable requests only (cache=0), so
     every accepted request costs the full pipeline. *)
  let service =
    let reps = 3 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (call !conn ~params:[ ("op", "conv2d"); ("cache", "0") ] P.Eval)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  let duration = if smoke then 1.5 else 5.0 in
  let rate = 2.0 *. float_of_int workers /. Float.max 1e-4 service in
  let total = max 30 (min (if smoke then 150 else 600) (int_of_float (rate *. duration))) in
  let interval = 1.0 /. rate in
  let deadline = 2.0 in
  let statc = connect () in
  let send_times : (string, float) Hashtbl.t = Hashtbl.create 256 in
  let ok_lat = ref [] in
  let shed = ref 0 and timeouts = ref 0 and others = ref 0 and received = ref 0 in
  let max_depth_seen = ref 0 and max_bytes_seen = ref 0 in
  let record line =
    incr received;
    match P.parse_response line with
    | Error e -> fail "bad response: %s" e
    | Ok (id, resp) -> (
        match resp with
        | P.Resp_ok _ -> (
            match Hashtbl.find_opt send_times id with
            | Some t -> ok_lat := (Unix.gettimeofday () -. t) :: !ok_lat
            | None -> ())
        | P.Resp_error { err_kind = "overloaded"; _ } -> incr shed
        | P.Resp_error { err_kind = "timeout"; _ } -> incr timeouts
        | P.Resp_error _ -> incr others)
  in
  let poll_status () =
    let resp = call statc P.Status in
    let gauge key cell =
      match ok_param resp key with
      | Some v -> cell := max !cell (int_of_string v)
      | None -> ()
    in
    gauge "queue_depth" max_depth_seen;
    gauge "inflight_bytes" max_bytes_seen
  in
  let sent = ref 0 in
  let start = Unix.gettimeofday () in
  let next_send = ref start and next_status = ref start in
  while !sent < total do
    let now = Unix.gettimeofday () in
    if now >= !next_status then begin
      next_status := now +. 0.25;
      poll_status ()
    end;
    if now >= !next_send then begin
      let id = Printf.sprintf "o%d" !sent in
      let rq =
        {
          P.rq_id = id;
          rq_verb = P.Eval;
          rq_params =
            [ ("op", "conv2d"); ("cache", "0"); ("deadline", Printf.sprintf "%g" deadline) ];
        }
      in
      Hashtbl.replace send_times id now;
      must (C.send_line !conn (P.render_request rq));
      incr sent;
      next_send := !next_send +. interval
    end
    else
      match C.recv_line ~timeout:(Float.max 0.0005 (Float.min 0.002 (!next_send -. now))) !conn with
      | Ok line -> record line
      | Error "timeout" -> ()
      | Error e -> fail "overload recv: %s" e
  done;
  let tail_deadline = Unix.gettimeofday () +. deadline +. 20.0 in
  while !received < total && Unix.gettimeofday () < tail_deadline do
    match C.recv_line ~timeout:0.2 !conn with
    | Ok line -> record line
    | Error "timeout" -> ()
    | Error e -> fail "overload tail recv: %s" e
  done;
  poll_status ();
  let lats = Array.of_list !ok_lat in
  Array.sort compare lats;
  let pct p =
    if Array.length lats = 0 then 0.0
    else lats.(min (Array.length lats - 1) (int_of_float (p *. float_of_int (Array.length lats - 1))))
  in
  let p50 = pct 0.5 and p99 = pct 0.99 in
  let ok_count = Array.length lats in
  let all_answered = !received = total in
  let overload_gate =
    !shed > 0 && ok_count > 0 && all_answered
    && p99 <= deadline +. 1.0
    && !max_depth_seen <= max_depth
    && !max_bytes_seen <= max_inflight_bytes
  in
  note
    "overload: offered %d at %.0f req/s (2x capacity), ok %d, shed %d, timeout %d, other %d"
    total rate ok_count !shed !timeouts !others;
  note "overload: ok p50 %.3fs, p99 %.3fs (deadline %.1fs), depth<=%d, bytes<=%d (gate: %s)"
    p50 p99 deadline !max_depth_seen !max_bytes_seen
    (if overload_gate then "ok" else "FAIL");
  (* --- Phase 3: SIGKILL mid-load, warm restart --------------------------- *)
  for i = 1 to 8 do
    let rq =
      {
        P.rq_id = Printf.sprintf "k%d" i;
        rq_verb = P.Eval;
        rq_params = [ ("op", "conv2d"); ("cache", "0") ];
      }
    in
    must (C.send_line !conn (P.render_request rq))
  done;
  Unix.sleepf 0.1;
  Unix.kill pid_a Sys.sigkill;
  (match Unix.waitpid [] pid_a with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> reaped pid_a
  | _, _ -> fail "daemon did not die of SIGKILL");
  C.close !conn;
  C.close statc;
  let t_restart = Unix.gettimeofday () in
  let pid_b = spawn_daemon () in
  conn := connect ();
  let first_pass_hits =
    List.fold_left
      (fun acc op ->
        let resp = call !conn ~params:[ ("op", op) ] P.Eval in
        match ok_param resp "cached" with Some "1" -> acc + 1 | _ -> acc)
      0 zoo_ops
  in
  let recovery = Unix.gettimeofday () -. t_restart in
  let restart_gate = first_pass_hits > 0 in
  note "restart: SIGKILL mid-load, warm in %.2fs, %d/%d first-pass cache hits (gate: %s)"
    recovery first_pass_hits (List.length zoo_ops)
    (if restart_gate then "ok" else "FAIL");
  (* --- Phase 4: poisoned operator --------------------------------------- *)
  let poison_kind =
    err_kind
      (call !conn
         ~params:
           [ ("op", "conv1x1"); ("cache", "0"); ("fault_backend", "einsum");
             ("fault_rate", "1"); ("fault_seed", "3") ]
         P.Eval)
  in
  let alive = match call !conn P.Ping with P.Resp_ok _ -> true | P.Resp_error _ -> false in
  let replay_kind = err_kind (call !conn ~params:[ ("op", "conv1x1"); ("cache", "0") ] P.Eval) in
  let poison_gate =
    poison_kind = "backend_mismatch" && alive && replay_kind = "counterexample"
  in
  note "poison: typed %s, daemon alive %b, re-encounter rejected as %s (gate: %s)" poison_kind
    alive replay_kind
    (if poison_gate then "ok" else "FAIL");
  (* --- Phase 5: SIGTERM graceful drain ----------------------------------- *)
  let k_drain = if smoke then 4 else 10 in
  let drain_ids = List.init k_drain (fun i -> Printf.sprintf "d%d" i) in
  List.iter
    (fun id ->
      let rq =
        { P.rq_id = id; rq_verb = P.Eval; rq_params = [ ("op", "conv2d"); ("cache", "0") ] }
      in
      must (C.send_line !conn (P.render_request rq)))
    drain_ids;
  Unix.sleepf 0.15;
  Unix.kill pid_b Sys.sigterm;
  let answered = ref [] in
  let clean_eof = ref false in
  let rec read_all () =
    match C.recv_line ~timeout:60.0 !conn with
    | Ok line -> (
        match P.parse_response line with
        | Ok (id, _) ->
            answered := id :: !answered;
            read_all ()
        | Error e -> fail "drain response: %s" e)
    | Error "eof" -> clean_eof := true
    | Error e -> note "drain: connection ended uncleanly (%s)" e
  in
  read_all ();
  C.close !conn;
  let drain_exit =
    match Unix.waitpid [] pid_b with
    | _, Unix.WEXITED c ->
        reaped pid_b;
        c
    | _, Unix.WSIGNALED s -> -s
    | _, Unix.WSTOPPED s -> -s
  in
  let drain_answered = List.for_all (fun id -> List.mem id !answered) drain_ids in
  let drain_gate = drain_answered && !clean_eof && drain_exit = 0 in
  note "drain: %d in flight at SIGTERM, %d answered, clean EOF %b, exit %d (gate: %s)" k_drain
    (List.length !answered) !clean_eof drain_exit
    (if drain_gate then "ok" else "FAIL");
  (* Cleanup. *)
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir);
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  (* Trajectory file. *)
  let oc = open_out "BENCH_serve.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"cache\": {\"operators\": %d, \"cold_micros\": %.0f, \"warm_micros\": %.0f, \
       \"speedup\": %.1f, \"gate\": %b},\n"
    (List.length zoo_ops) cold_micros warm_micros speedup cache_gate;
  out "  \"overload\": {\"offered\": %d, \"rate_per_s\": %.1f, \"ok\": %d, \"overloaded\": \
       %d, \"timeout\": %d, \"other\": %d, \"all_answered\": %b, \"p50_ok_s\": %.4f, \
       \"p99_ok_s\": %.4f, \"deadline_s\": %.1f, \"max_queue_depth\": %d, \
       \"max_inflight_bytes\": %d, \"gate\": %b},\n"
    total rate ok_count !shed !timeouts !others all_answered p50 p99 deadline !max_depth_seen
    !max_bytes_seen overload_gate;
  out "  \"restart\": {\"recovery_seconds\": %.3f, \"first_pass_hits\": %d, \
       \"first_pass_ops\": %d, \"gate\": %b},\n"
    recovery first_pass_hits (List.length zoo_ops) restart_gate;
  out "  \"poison\": {\"poison_kind\": %S, \"alive\": %b, \"replay_kind\": %S, \"gate\": \
       %b},\n"
    poison_kind alive replay_kind poison_gate;
  out "  \"drain\": {\"in_flight\": %d, \"answered\": %d, \"clean_eof\": %b, \"exit_code\": \
       %d, \"gate\": %b}\n"
    k_drain (List.length !answered) !clean_eof drain_exit drain_gate;
  out "}\n";
  close_out oc;
  note "wrote BENCH_serve.json";
  if not (cache_gate && overload_gate && restart_gate && poison_gate && drain_gate) then begin
    prerr_endline "serve daemon cache/overload/restart/poison/drain assertions failed";
    exit 1
  end

(* --- Proof-guided kernel specialization ---------------------------------------- *)

(* Gates the specializing compiler end to end: over the whole catalog,
   the certified specialized executor must compute bit-identical
   outputs to the staged interpreter while beating the best interpreter
   (einsum program or staged) by >= 1.5x geomean in the full run (the
   smoke gate is no-regression, >= 1.0x — CI machines are noisy);
   certificate construction plus translation validation allocates zero
   tensors; and 100% of seeded plan corruptions are rejected by
   Certify, including the three execution-invisible ones that still
   compute bit-identical outputs when run.  It also reports, without a
   gate, the training executors (Reference.forward, Specialize.forward,
   Reference.backward) per operator at the kernel shape and at the
   proxy training shapes.  Emits BENCH_kernel.json; the smoke variant
   runs inside `dune runtest` via the kernel-smoke alias. *)

let kernel_bench ~smoke () =
  section
    (Printf.sprintf "Proof-guided kernel specialization (Lower.Specialize)%s"
       (if smoke then " [smoke]" else ""));
  let module Verify = Analysis.Verify in
  let module Regions = Analysis.Regions in
  let module Certify = Analysis.Certify in
  let module Staged = Lower.Staged_exec in
  let module Specialize = Lower.Specialize in
  let conv_v =
    if smoke then Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 ()
    else Zoo.Vars.conv_valuation ~n:1 ~c_in:32 ~c_out:32 ~hw:28 ~k:3 ~g:2 ~s:2 ()
  in
  let matmul_v =
    if smoke then Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7
    else Zoo.Vars.matmul_valuation ~m:64 ~n:64 ~k:64
  in
  let repeats = if smoke then 3 else 10 in
  let bits t =
    Array.map Int64.bits_of_float (Nd.Tensor.unsafe_data (Nd.Tensor.copy t))
  in
  (* The warm-up run also sizes the repeat count: slow interpreter
     baselines (full-shape einsum materializes the whole gather) get
     fewer repeats so the full run stays in minutes, fast kernels get
     the full count for a stable mean. *)
  let mean_seconds f =
    let _, t_warm = time (fun () -> ignore (f ())) in
    let reps =
      max 1 (min repeats (int_of_float (0.6 /. Float.max 1e-9 t_warm)))
    in
    let (), t = time (fun () -> for _ = 1 to reps do ignore (f ()) done) in
    t /. float_of_int reps
  in
  (* 1) Per-operator: compile all three executors, certify the plan,
     time each forward, and require bit-identity spec vs staged. *)
  let cases =
    List.filter_map
      (fun (e : Zoo.entry) ->
        let op = e.Zoo.operator in
        let v =
          if Option.is_some (Verify.program_opt op conv_v) then conv_v else matmul_v
        in
        let staged = Staged.compile op v in
        let cert = Regions.of_staged staged in
        match Certify.compile staged cert.Regions.rc_plan with
        | Error k ->
            note "%-28s certification REJECTED: %s" e.Zoo.name (Robust.Guard.kind_label k);
            Some (e.Zoo.name, staged, cert, None)
        | Ok sp -> Some (e.Zoo.name, staged, cert, Some sp))
      Zoo.all
  in
  let results =
    List.map
      (fun (name, staged, cert, sp) ->
        let op = Staged.operator staged and v = Staged.valuation staged in
        let compiled = Staged.reference staged in
        let rng = Nd.Rng.create ~seed:17 in
        let input =
          Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0
            (Lower.Reference.input_shape compiled)
        in
        let weights = Lower.Reference.init_weights compiled rng in
        let ep = Lower.Einsum_program.compile op v in
        let t_einsum =
          mean_seconds (fun () -> Lower.Einsum_program.forward ep ~input ~weights)
        in
        let t_staged = mean_seconds (fun () -> Staged.forward staged ~input ~weights) in
        match sp with
        | None -> (name, cert, t_einsum, t_staged, None, false)
        | Some sp ->
            let t_spec = mean_seconds (fun () -> Specialize.forward sp ~input ~weights) in
            let identical =
              bits (Staged.forward staged ~input ~weights)
              = bits (Specialize.forward sp ~input ~weights)
            in
            (name, cert, t_einsum, t_staged, Some t_spec, identical))
      cases
  in
  let speedups =
    List.filter_map
      (fun (name, cert, t_einsum, t_staged, t_spec, identical) ->
        match t_spec with
        | None -> None
        | Some t_spec ->
            let best = Float.min t_einsum t_staged in
            let s = best /. Float.max 1e-12 t_spec in
            note "%-28s einsum %8.3f ms  staged %8.3f ms  spec %8.3f ms  %5.2fx  \
                  interior %.3f%s"
              name (1000.0 *. t_einsum) (1000.0 *. t_staged) (1000.0 *. t_spec) s
              cert.Regions.rc_interior_fraction
              (if identical then "" else "  NOT BIT-IDENTICAL");
            Some s)
      results
  in
  let all_identical =
    List.for_all (fun (_, _, _, _, sp, id) -> sp = None || id) results
  in
  let all_specialized = List.for_all (fun (_, _, _, _, sp, _) -> sp <> None) results in
  let geomean =
    exp (List.fold_left (fun a s -> a +. log s) 0.0 speedups
         /. float_of_int (max 1 (List.length speedups)))
  in
  let speedup_gate = if smoke then 1.0 else 1.5 in
  let speedup_ok = geomean >= speedup_gate in
  note "geomean speedup vs best interpreter over %d operators: %.2fx (gate >= %.1fx, %s)"
    (List.length speedups) geomean speedup_gate
    (if speedup_ok then "pass" else "FAIL");
  (* 2) Certification is pure arithmetic: certificate construction plus
     translation validation allocates zero tensors. *)
  let alloc0 = Nd.Tensor.allocations () in
  List.iter
    (fun (_, staged, _, _) ->
      let cert = Regions.of_staged staged in
      ignore (Certify.validate staged cert.Regions.rc_plan))
    cases;
  let certify_allocs = Nd.Tensor.allocations () - alloc0 in
  note "certificate + validation over the catalog: %d tensor allocations" certify_allocs;
  (* 3) Seeded plan corruption: every applicable fault on every
     operator must be rejected by translation validation; the
     execution-invisible ones must also run bit-identically, proving
     Certify is the only line of defense. *)
  let faults =
    [
      Specialize.Overlap_strip; Specialize.Duplicate_strip; Specialize.Spurious_clip;
      Specialize.Cover_gap;
    ]
  in
  let seeded = ref 0 and rejected = ref 0 in
  let invisible_checked = ref 0 and invisible_identical = ref 0 in
  List.iter
    (fun (_, staged, cert, sp) ->
      List.iter
        (fun fault ->
          match Specialize.corrupt fault staged cert.Regions.rc_plan with
          | None -> ()
          | Some bad ->
              incr seeded;
              (match Certify.validate staged bad with
              | Error (Robust.Guard.Static_violation _) -> incr rejected
              | Error _ | Ok _ -> ());
              if sp <> None && fault <> Specialize.Cover_gap then begin
                incr invisible_checked;
                let compiled = Staged.reference staged in
                let rng = Nd.Rng.create ~seed:23 in
                let input =
                  Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0
                    (Lower.Reference.input_shape compiled)
                in
                let weights = Lower.Reference.init_weights compiled rng in
                let corrupted = Specialize.compile staged bad in
                if
                  bits (Specialize.forward corrupted ~input ~weights)
                  = bits (Staged.forward staged ~input ~weights)
                then incr invisible_identical
              end)
        faults)
    cases;
  let faults_ok = !seeded > 0 && !rejected = !seeded in
  let invisible_ok = !invisible_identical = !invisible_checked in
  note "seeded plan corruptions: %d/%d rejected by Certify; %d/%d invisible faults \
        executed bit-identically"
    !rejected !seeded !invisible_identical !invisible_checked;
  (* 4) Report only: the training executors per operator —
     Reference.forward, the certified Specialize.forward and
     Reference.backward — at the kernel shape and at both stage shapes
     of the proxy training model (batch 16, 4->8 and 8->8 channels,
     10x10). *)
  let executor_row shape (name, staged, sp) =
    let compiled = Staged.reference staged in
    let rng = Nd.Rng.create ~seed:29 in
    let input =
      Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled)
    in
    let weights = Lower.Reference.init_weights compiled rng in
    let grad_out =
      Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.output_shape compiled)
    in
    let t_ref = mean_seconds (fun () -> Lower.Reference.forward compiled ~input ~weights) in
    let t_spec =
      Option.map (fun sp -> mean_seconds (fun () -> Specialize.forward sp ~input ~weights)) sp
    in
    let t_bwd =
      mean_seconds (fun () -> Lower.Reference.backward compiled ~input ~weights ~grad_out)
    in
    note "%-10s %-28s reference %8.3f ms  spec %8.3f ms  backward %8.3f ms" shape name
      (1000.0 *. t_ref)
      (1000.0 *. Option.value t_spec ~default:Float.nan)
      (1000.0 *. t_bwd);
    (shape, name, t_ref, t_spec, t_bwd)
  in
  let train_cases (c_in, c_out) =
    let v = Zoo.Vars.conv_valuation ~n:16 ~c_in ~c_out ~hw:10 ~k:3 ~g:2 ~s:2 () in
    List.filter_map
      (fun (e : Zoo.entry) ->
        if Option.is_none (Verify.program_opt e.Zoo.operator v) then None
        else
          let staged = Staged.compile e.Zoo.operator v in
          let cert = Regions.of_staged staged in
          Some
            ( Printf.sprintf "train %d->%d" c_in c_out,
              (e.Zoo.name, staged, Result.to_option (Certify.compile staged cert.Regions.rc_plan)) ))
      Zoo.all
  in
  (* Bound first so the kernel-shape rows print first: [@] evaluates
     its right operand first. *)
  let kernel_rows =
    List.map (fun (name, staged, _, sp) -> executor_row "kernel" (name, staged, sp)) cases
  in
  let executors =
    kernel_rows
    @ List.map
        (fun (shape, case) -> executor_row shape case)
        (train_cases (4, 8) @ train_cases (8, 8))
  in
  (* Trajectory file. *)
  let oc = open_out "BENCH_kernel.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"smoke\": %b,\n" smoke;
  out "  \"zoo\": {\"operators\": %d, \"specialized\": %d, \"repeats\": %d, \"cases\": [\n"
    (List.length results)
    (List.length speedups)
    repeats;
  List.iteri
    (fun i (name, cert, t_einsum, t_staged, t_spec, identical) ->
      out
        "    {\"name\": %S, \"einsum_ms\": %.4f, \"staged_ms\": %.4f, \"spec_ms\": %.4f, \
         \"interior\": %.4f, \"strips\": %d, \"identical\": %b}%s\n"
        name (1000.0 *. t_einsum) (1000.0 *. t_staged)
        (match t_spec with Some t -> 1000.0 *. t | None -> -1.0)
        cert.Regions.rc_interior_fraction (Regions.strips cert) identical
        (if i = List.length results - 1 then "" else ",")
    )
    results;
  out "  ]},\n";
  out "  \"speedup\": {\"geomean\": %.4f, \"gate\": %.2f, \"pass\": %b, \"identical\": %b},\n"
    geomean speedup_gate speedup_ok all_identical;
  out "  \"certify\": {\"allocations\": %d, \"all_specialized\": %b},\n" certify_allocs
    all_specialized;
  out "  \"faults\": {\"seeded\": %d, \"rejected\": %d, \"invisible_checked\": %d, \
       \"invisible_identical\": %d},\n"
    !seeded !rejected !invisible_checked !invisible_identical;
  out "  \"executors\": [\n";
  List.iteri
    (fun i (shape, name, t_ref, t_spec, t_bwd) ->
      out
        "    {\"shape\": %S, \"name\": %S, \"reference_ms\": %.4f, \"spec_ms\": %.4f, \
         \"backward_ms\": %.4f}%s\n"
        shape name (1000.0 *. t_ref)
        (match t_spec with Some t -> 1000.0 *. t | None -> -1.0)
        (1000.0 *. t_bwd)
        (if i = List.length executors - 1 then "" else ","))
    executors;
  out "  ]\n";
  out "}\n";
  close_out oc;
  note "wrote BENCH_kernel.json";
  if not all_identical then
    prerr_endline "a specialized kernel diverged bit-wise from the staged interpreter";
  if not all_specialized then prerr_endline "a catalog operator failed certification";
  if certify_allocs <> 0 then prerr_endline "certification allocated a tensor";
  if not speedup_ok then prerr_endline "specialized kernels missed the speedup gate";
  if not faults_ok then prerr_endline "a seeded plan corruption escaped Certify";
  if not invisible_ok then
    prerr_endline "an invisible fault was not actually execution-invisible";
  if
    not
      (all_identical && all_specialized && certify_allocs = 0 && speedup_ok && faults_ok
     && invisible_ok)
  then exit 1

(* --- bench check: trajectory-file validation ----------------------------------- *)

(* `bench check` re-parses every BENCH_*.json in the working directory
   with a tiny structural JSON parser and verifies the required
   top-level keys per file, so a formatting regression in any writer
   above fails CI even when the experiment itself passed. *)

module Json_check = struct
  exception Bad of string

  let parse text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word =
      if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
      then pos := !pos + String.length word
      else fail (Printf.sprintf "expected %s" word)
    in
    let string_lit () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | None -> fail "unterminated escape"
            | Some c ->
                advance ();
                Buffer.add_char b '\\';
                Buffer.add_char b c);
            go ()
        | Some c ->
            advance ();
            Buffer.add_char b c;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let number () =
      let start = !pos in
      let is_num_char c =
        (c >= '0' && c <= '9')
        || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      if !pos = start then fail "expected a number";
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some _ -> ()
      | None -> fail "malformed number"
    in
    (* Returns the top-level keys when the value is an object. *)
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          let keys = ref [] in
          (if peek () = Some '}' then advance ()
           else
             let rec members () =
               skip_ws ();
               let k = string_lit () in
               keys := k :: !keys;
               skip_ws ();
               expect ':';
               ignore (value ());
               skip_ws ();
               match peek () with
               | Some ',' ->
                   advance ();
                   members ()
               | Some '}' -> advance ()
               | _ -> fail "expected ',' or '}'"
             in
             members ());
          List.rev !keys
      | Some '[' ->
          advance ();
          skip_ws ();
          (if peek () = Some ']' then advance ()
           else
             let rec elements () =
               ignore (value ());
               skip_ws ();
               match peek () with
               | Some ',' ->
                   advance ();
                   elements ()
               | Some ']' -> advance ()
               | _ -> fail "expected ',' or ']'"
             in
             elements ());
          []
      | Some '"' ->
          ignore (string_lit ());
          []
      | Some 't' ->
          literal "true";
          []
      | Some 'f' ->
          literal "false";
          []
      | Some 'n' ->
          literal "null";
          []
      | Some _ ->
          number ();
          []
      | None -> fail "unexpected end of input"
    in
    let keys = value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    keys
end

(* Required top-level keys per trajectory file; files not listed here
   only need to be well-formed JSON with a "smoke" key. *)
let bench_required_keys =
  [
    ("BENCH_par.json", [ "smoke"; "domains"; "einsum"; "mcts" ]);
    ("BENCH_robust.json", [ "smoke"; "guard"; "faults"; "resume"; "checkpoint" ]);
    ("BENCH_validate.json", [ "smoke"; "budget"; "mutation"; "over_budget"; "overhead" ]);
    ("BENCH_analysis.json", [ "smoke"; "zoo"; "faults"; "cost"; "lint"; "rewrites" ]);
    ("BENCH_cancel.json", [ "smoke"; "poll"; "preempt"; "shutdown" ]);
    ("BENCH_shard.json", [ "smoke"; "determinism"; "corrupt"; "scaling" ]);
    ("BENCH_cegis.json", [ "smoke"; "hardening"; "replay_cost"; "shard" ]);
    ("BENCH_serve.json", [ "smoke"; "cache"; "overload"; "restart"; "poison"; "drain" ]);
    ("BENCH_kernel.json", [ "smoke"; "zoo"; "speedup"; "certify"; "faults"; "executors" ]);
  ]

let bench_check () =
  section "Trajectory-file validation (bench check)";
  let files =
    List.sort compare
      (List.filter
         (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
         (Array.to_list (Sys.readdir ".")))
  in
  if files = [] then begin
    note "no BENCH_*.json files found (run the benches first)";
    prerr_endline "bench check: nothing to validate";
    exit 1
  end;
  let failed = ref false in
  List.iter
    (fun file ->
      let ic = open_in file in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json_check.parse text with
      | exception Json_check.Bad msg ->
          failed := true;
          note "%-24s MALFORMED: %s" file msg
      | keys ->
          let required =
            Option.value ~default:[ "smoke" ] (List.assoc_opt file bench_required_keys)
          in
          let missing = List.filter (fun k -> not (List.mem k keys)) required in
          if missing <> [] then begin
            failed := true;
            note "%-24s missing required keys: %s" file (String.concat ", " missing)
          end
          else note "%-24s ok (%d keys)" file (List.length keys))
    files;
  if !failed then begin
    prerr_endline "bench check: trajectory-file validation failed";
    exit 1
  end

(* --- Driver ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("tab3", tab3);
    ("ablation", ablation);
    ("micro", micro);
    ("par", par_bench ~smoke:false);
    ("par-smoke", par_bench ~smoke:true);
    ("robust", robust_bench ~smoke:false);
    ("robust-smoke", robust_bench ~smoke:true);
    ("validate", validate_bench ~smoke:false);
    ("validate-smoke", validate_bench ~smoke:true);
    ("analysis", analysis_bench ~smoke:false);
    ("analysis-smoke", analysis_bench ~smoke:true);
    ("cancel", cancel_bench ~smoke:false);
    ("cancel-smoke", cancel_bench ~smoke:true);
    ("shard", shard_bench ~smoke:false);
    ("shard-smoke", shard_bench ~smoke:true);
    ("cegis", cegis_bench ~smoke:false);
    ("cegis-smoke", cegis_bench ~smoke:true);
    ("serve", serve_bench ~smoke:false);
    ("serve-smoke", serve_bench ~smoke:true);
    ("kernel", kernel_bench ~smoke:false);
    ("kernel-smoke", kernel_bench ~smoke:true);
    ("check", bench_check);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ ->
        List.filter
          (fun n ->
            n <> "par-smoke" && n <> "robust-smoke" && n <> "validate-smoke"
            && n <> "analysis-smoke" && n <> "cancel-smoke" && n <> "shard-smoke"
            && n <> "cegis-smoke" && n <> "serve-smoke" && n <> "kernel-smoke"
            && n <> "check")
          (List.map fst experiments)
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Format.printf "unknown experiment %s (available: %s)@." name
            (String.concat " " (List.map fst experiments)))
    requested;
  Format.printf "@.[bench] completed in %.1fs@." (Unix.gettimeofday () -. t0)
