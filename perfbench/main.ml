(* perfbench: one outside-in benchmark for syno search, train and serve.

     main.exe --workload search|train|serve --seed N --seconds S --trace 0|1

   Prints the full record (every metric with its unit and sample count,
   plus provenance) as one JSON line, then the result line the contract
   in BENCHMARK.json reads: the end-to-end metrics with --trace 0, the
   per-layer metrics with --trace 1.  Exits 1 when an output check
   failed, 2 on bad arguments. *)

module Json = Perfbench.Json
open Perfbench.Record

(* The metric names BENCHMARK.json declares, in its order. *)
let end_to_end = [ "setup_s"; "peak_rss_mb"; "throughput_per_s"; "latency_mean_ms"; "latency_tail_ms" ]

let train_ops = [ "conv2d"; "operator1"; "shift_conv" ]

let per_layer =
  [
    ("search.mcts.iterations", "count");
    ("search.mcts.self_s", "s");
    ("search.reward.calls", "count");
    ("search.reward.s", "s");
    ("search.evaluations", "count");
    ("search.quarantined", "count");
    ("validate.admit.calls", "count");
    ("validate.admit.rejected", "count");
    ("validate.admit.s", "s");
    ("validate.admit.static_s", "s");
    ("validate.admit.budget_s", "s");
    ("validate.admit.differential_s", "s");
    ("search.enumerate.rollout.calls", "count");
    ("search.enumerate.rollout.s", "s");
    ("search.enumerate.rollout.complete_ratio", "ratio");
    ("pgraph.canon.check.calls", "count");
    ("pgraph.canon.check.s", "s");
    ("pgraph.canon.accept_ratio", "ratio");
    ("pgraph.distance.calls", "count");
    ("pgraph.distance.s", "s");
    ("pgraph.distance.prune_ratio", "ratio");
  ]
  @ List.concat_map
      (fun op ->
        [
          (Printf.sprintf "lower.%s.forward.calls" op, "count");
          (Printf.sprintf "lower.%s.forward_s" op, "s");
          (Printf.sprintf "lower.%s.specialized" op, "flag");
          (Printf.sprintf "lower.%s.backward_s" op, "s");
          (Printf.sprintf "nn.%s.step_other_s" op, "s");
          (Printf.sprintf "analysis.%s.certify_s" op, "s");
        ])
      train_ops
  @ [
      ("serve.hit.service_p50_ms", "ms");
      ("serve.hit.service_tail_ms", "ms");
      ("serve.miss.service_p50_ms", "ms");
      ("serve.miss.service_tail_ms", "ms");
      ("serve.wait_p50_ms", "ms");
      ("serve.wait_tail_ms", "ms");
      ("serve.cache.hit_ratio", "ratio");
      ("serve.cache.evictions", "count");
      ("serve.cache.writes", "count");
      ("serve.admission.shed", "count");
      ("serve.queue_depth.max", "count");
      ("serve.inflight_bytes.max", "bytes");
      ("serve.generator.late_ms", "ms");
      ("validate.corpus.replay_s", "s");
      ("analysis.verify_s", "s");
      ("validate.differential_s", "s");
      ("lower.reference.forward_s", "s");
      ("analysis.certify_s", "s");
      ("lower.specialize.forward_s", "s");
      ("trace.overhead_ratio", "ratio");
    ]

let usage = "main.exe --workload search|train|serve --seed N --seconds S --trace 0|1"

let bad fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("perfbench: " ^ m);
      prerr_endline ("usage: " ^ usage);
      exit 2)
    fmt

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_of what s = match int_of_string_opt s with Some v -> v | None -> bad "%s: not an integer: %S" what s in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (int_of "--seconds" v);
        go rest
    | "--trace" :: v :: rest ->
        trace := Some (int_of "--trace" v);
        go rest
    | [] -> ()
    | arg :: _ -> bad "unexpected argument %S" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  let need what = function Some v -> v | None -> bad "missing %s" what in
  let workload = need "--workload" !workload in
  if not (List.mem workload [ "search"; "train"; "serve" ]) then bad "unknown workload %S" workload;
  let seconds = need "--seconds" !seconds in
  if seconds < 1 || seconds > 600 then bad "--seconds must be in [1, 600]";
  let trace =
    match need "--trace" !trace with 0 -> false | 1 -> true | _ -> bad "--trace must be 0 or 1"
  in
  (workload, need "--seed" !seed, seconds, trace)

let out_dir = "perfbench-out"

let () =
  let workload, seed, seconds, traced = parse_args () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let spans, o =
    match (workload, traced) with
    | "search", false -> (None, Perfbench.W_search.untraced ~seed ~seconds)
    | "search", true ->
        let spans, o = Perfbench.W_search.traced ~seed () in
        (Some spans, o)
    | "train", false -> (None, Perfbench.W_train.untraced ~seed ~seconds)
    | "train", true ->
        let spans, o = Perfbench.W_train.traced ~seed () in
        (Some spans, o)
    | "serve", _ ->
        let spans, o = Perfbench.W_serve.run ~out_dir ~seed ~seconds ~traced in
        (spans, o)
    | _ -> assert false
  in
  Option.iter
    (fun s ->
      Perfbench.Spans.write_chrome s
        (Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed)))
    spans;
  let find name = List.find_opt (fun m -> m.name = name) o.metrics in
  let selected =
    if traced then
      (* A layer the workload bypasses did no work: its counts and times
         are zero, measured as such. *)
      List.map
        (fun (name, unit_) ->
          match find name with Some m -> m | None -> metric ~samples:0 name unit_ 0.0)
        per_layer
    else
      List.map
        (fun name ->
          match find name with
          | Some m -> m
          | None -> failwith ("perfbench: workload did not measure " ^ name))
        end_to_end
  in
  let line = Json.to_string (record ~workload ~seed ~traced o) in
  print_endline line;
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat out_dir "history.jsonl")
  in
  output_string oc (line ^ "\n");
  close_out oc;
  print_endline (Json.to_string (result_line o selected));
  exit (if o.correct then 0 else 1)
