(* Workload [train]: one caller, closed loop, proxy training steps at the
   syno train configuration (4 input channels, 10x10 images, batch 16,
   8-channel operator stages, SGD with momentum), for conv2d, operator1
   and shift_conv with specialize=auto.  The three operators take one
   step each per round, so host noise lands on all three alike. *)

module Api = Syno.Api
module Zoo = Syno.Zoo
module Tensor = Nd.Tensor
module Tape = Grad.Tape



open Record

let ops = [ Zoo.conv2d; Zoo.operator1; Zoo.shift_conv ]
let batch = 16
let in_channels = 4
let channels = 8
let size = 10
let classes = 4
let traced_rounds = 3

(* One round per second of --seconds, at least 7 so the tail rule has 21
   steps: a round (a step of each operator) takes about 0.8 s on a
   2-core x86 host.  The count is a function of the arguments only, so
   step counts repeat exactly. *)
let rounds ~seconds = max 7 seconds

(* One pool domain: a second one made these steps no faster on a 2-core
   host, and with one the allocation pattern, so the peak RSS, repeats. *)
let pool_domains = 1

let stages =
  [
    { Backbones.Proxy.in_ch = in_channels; out_ch = channels; hw = size };
    { Backbones.Proxy.in_ch = channels; out_ch = channels; hw = size };
  ]

let valuation (stage : Backbones.Proxy.stage_shape) =
  Zoo.Vars.conv_valuation ~n:batch ~c_in:stage.Backbones.Proxy.in_ch
    ~c_out:stage.Backbones.Proxy.out_ch ~hw:stage.Backbones.Proxy.hw ~k:3 ~g:2 ~s:2 ()

let data ~seed =
  Dataset.Synth_vision.generate (Nd.Rng.create ~seed) ~classes ~channels:in_channels ~size
    ~train_batches:10 ~eval_batches:8 ~batch_size:batch ()

type trainer = {
  entry : Zoo.entry;
  model : Nn.Model.t;
  opt : Nn.Optimizer.t;
  mutable steps : int;
}

let trainer ~seed ~make_op entry =
  let model =
    Backbones.Proxy.vision_model (Nd.Rng.create ~seed) ~make_op:(make_op entry) ~in_channels
      ~channels ~classes ~size ()
  in
  { entry; model; opt = Nn.Optimizer.sgd ~momentum:0.9 ~weight_decay:1e-4 ~lr:0.1 (); steps = 0 }

let api_layer entry rng stage = Api.proxy_layer ~specialize:`Auto entry rng stage

(* One optimizer step on the trainer's next batch: (seconds, loss). *)
let step t (batches : Nn.Train.batch array) =
  let b = batches.(t.steps mod Array.length batches) in
  t.steps <- t.steps + 1;
  let t0 = Unix.gettimeofday () in
  let st =
    Nn.Model.train_step t.model t.opt ~images:b.Nn.Train.images ~labels:b.Nn.Train.labels
  in
  (Unix.gettimeofday () -. t0, st.Nn.Model.loss)

(* At each stage shape, the executor [auto] picks must agree with the
   einsum-program lowering on a probe batch. *)
let check_executors ~seed =
  List.concat_map
    (fun (entry : Zoo.entry) ->
      List.filter_map
        (fun stage ->
          let v = valuation stage in
          let op = entry.Zoo.operator in
          let compiled = Lower.Reference.compile op v in
          let rng = Nd.Rng.create ~seed in
          let weights = Lower.Reference.init_weights compiled rng in
          let input =
            Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled)
          in
          let got =
            match Api.specialized_forward ~mode:`Auto op v with
            | Some f -> f ~input ~weights
            | None -> Lower.Reference.forward compiled ~input ~weights
          in
          let want = Lower.Einsum_program.forward (Lower.Einsum_program.compile op v) ~input ~weights in
          let err = ref 0.0 in
          let g = Tensor.unsafe_data got and w = Tensor.unsafe_data want in
          if Array.length g <> Array.length w then
            Some (Printf.sprintf "train %s: executor output has the wrong size" entry.Zoo.name)
          else begin
            Array.iteri (fun i x -> err := Float.max !err (Float.abs (x -. w.(i)) /. (1.0 +. Float.abs w.(i)))) g;
            if !err <= 1e-9 then None
            else
              Some
                (Printf.sprintf "train %s at %d->%d: executor differs from einsum by %g"
                   entry.Zoo.name stage.Backbones.Proxy.in_ch stage.Backbones.Proxy.out_ch !err)
          end)
        stages)
    ops

let untraced ~seed ~seconds =
  Par.Pool.set_default_domains pool_domains;
  let build () =
    let d = data ~seed in
    let trainers = List.map (trainer ~seed:(seed + 1) ~make_op:api_layer) ops in
    (d, trainers)
  in
  let timed_build () =
    let t0 = Unix.gettimeofday () in
    let b = build () in
    (Unix.gettimeofday () -. t0, b)
  in
  (* The first build warms caches and the heap; the set-up time is the
     mean of one more build per round, spread over the run so it sees
     the host at the same speeds as the steps.  Each extra build is
     collected at once, so its garbage does not move the peak RSS. *)
  let _, (d, trainers) = timed_build () in
  let batches = Array.of_list d.Dataset.Synth_vision.train in
  let rounds = rounds ~seconds in
  let times = Hashtbl.create 3 and bad_losses = ref 0 and setup_times = ref [] in
  let all_ms =
    List.concat
      (List.init rounds (fun _ ->
           setup_times := fst (timed_build ()) :: !setup_times;
           Gc.full_major ();
           List.map
             (fun t ->
               let dt, loss = step t batches in
               if not (Float.is_finite loss) then incr bad_losses;
               Hashtbl.replace times t.entry.Zoo.name
                 (dt :: Option.value (Hashtbl.find_opt times t.entry.Zoo.name) ~default:[]);
               dt *. 1e3)
             trainers))
  in
  let problems = check_executors ~seed in
  List.iter prerr_endline problems;
  let steps = List.length all_ms in
  let tail_p, tail = Option.value (Stats.tail all_ms) ~default:(Float.nan, Float.nan) in
  let per_op =
    List.map
      (fun (e : Zoo.entry) ->
        let ts = Hashtbl.find times e.Zoo.name in
        metric ~samples:(List.length ts)
          (Printf.sprintf "train.%s.step_ms" e.Zoo.name)
          "ms"
          (Stats.median (List.map (fun x -> x *. 1e3) ts)))
      ops
  in
  {
    correct = problems = [] && !bad_losses = 0;
    attempted = steps + List.length problems;
    failed = !bad_losses + List.length problems;
    pool_size = pool_domains;
    metrics =
      [
        metric ~samples:rounds "setup_s" "s" (Stats.mean !setup_times);
        metric "peak_rss_mb" "MiB" (peak_rss_mb ());
        metric ~samples:steps "throughput_per_s" "1/s" (float_of_int steps /. (Stats.sum all_ms /. 1e3));
        metric ~samples:steps "latency_mean_ms" "ms" (Stats.mean all_ms);
        metric ~samples:steps "latency_p50_ms" "ms" (Stats.median all_ms);
        metric ~samples:steps "latency_tail_ms" "ms" tail;
      ]
      @ per_op;
    notes = [ ("latency_tail_percentile", Json.Float tail_p); ("rounds", Json.Int rounds) ];
  }

(* [Api.proxy_layer] rebuilt around timed executors: same compile,
   same certification, same weight draws (so the same losses), with the
   forward and the reference backward each inside a span. *)
let timed_layer spans (entry : Zoo.entry) rng stage =
  let name = entry.Zoo.name in
  let v = valuation stage in
  let compiled = Lower.Reference.compile entry.Zoo.operator v in
  let specialized =
    Spans.with_span spans ("analysis." ^ name ^ ".certify") (fun () ->
        Api.specialized_forward ~mode:`Auto entry.Zoo.operator v)
  in
  let forward =
    match specialized with
    | Some f -> f
    | None -> fun ~input ~weights -> Lower.Reference.forward compiled ~input ~weights
  in
  let weights = Lower.Reference.init_weights compiled rng in
  ( specialized <> None,
    {
      Nn.Layer.name;
      params = weights;
      apply =
        (fun tape params x ->
          let input = Tape.data x in
          let ws = List.map Tape.data params in
          let output =
            Spans.with_span spans ("lower." ^ name ^ ".forward") (fun () -> forward ~input ~weights:ws)
          in
          Tape.custom tape ~inputs:(x :: params) ~output ~vjp:(fun ~grad_out ->
              let gi, gws =
                Spans.with_span spans ("lower." ^ name ^ ".backward") (fun () ->
                    Lower.Reference.backward compiled ~input ~weights:ws ~grad_out)
              in
              Some gi :: List.map (fun g -> Some g) gws));
    } )

let traced ?(rounds = traced_rounds) ~seed () =
  Par.Pool.set_default_domains pool_domains;
  let spans = Spans.create () in
  let d = data ~seed in
  let batches = Array.of_list d.Dataset.Synth_vision.train in
  let specialized = Hashtbl.create 3 in
  let traced_op entry rng stage =
    let s, layer = timed_layer spans entry rng stage in
    Hashtbl.replace specialized entry.Zoo.name s;
    layer
  in
  let plain = List.map (trainer ~seed:(seed + 1) ~make_op:api_layer) ops in
  let timed = List.map (trainer ~seed:(seed + 1) ~make_op:traced_op) ops in
  let plain_s = ref 0.0 and traced_s = ref 0.0 and problems = ref [] and steps = ref 0 in
  for _ = 1 to rounds do
    List.iter2
      (fun p t ->
        let name = t.entry.Zoo.name in
        let dp, lp = step p batches in
        let t0 = Unix.gettimeofday () in
        let _, lt = Spans.with_span spans ("nn." ^ name ^ ".step") (fun () -> step t batches) in
        traced_s := !traced_s +. (Unix.gettimeofday () -. t0);
        plain_s := !plain_s +. dp;
        steps := !steps + 2;
        if not (Float.is_finite lp && Float.is_finite lt) then
          problems := Printf.sprintf "train %s: non-finite loss" name :: !problems
        else if not (Float.equal lp lt) then
          problems := Printf.sprintf "train %s: traced loss %h, untraced %h" name lt lp :: !problems)
      plain timed
  done;
  List.iter prerr_endline (List.rev !problems);
  let totals = Spans.totals spans in
  let per_op (e : Zoo.entry) =
    let name = e.Zoo.name in
    let fwd = Spans.total totals ("lower." ^ name ^ ".forward") in
    let bwd = Spans.total totals ("lower." ^ name ^ ".backward") in
    let st = Spans.total totals ("nn." ^ name ^ ".step") in
    let cert = Spans.total totals ("analysis." ^ name ^ ".certify") in
    [
      metric (Printf.sprintf "lower.%s.forward.calls" name) "count" (float_of_int fwd.Spans.calls);
      metric ~samples:fwd.Spans.calls (Printf.sprintf "lower.%s.forward_s" name) "s" fwd.Spans.total_s;
      metric (Printf.sprintf "lower.%s.specialized" name) "flag"
        (if Hashtbl.find specialized name then 1.0 else 0.0);
      metric ~samples:bwd.Spans.calls (Printf.sprintf "lower.%s.backward_s" name) "s" bwd.Spans.total_s;
      metric ~samples:st.Spans.calls (Printf.sprintf "nn.%s.step_other_s" name) "s" st.Spans.self_s;
      metric ~samples:cert.Spans.calls (Printf.sprintf "analysis.%s.certify_s" name) "s"
        cert.Spans.total_s;
      metric (Printf.sprintf "nn.%s.steps" name) "count" (float_of_int st.Spans.calls);
    ]
  in
  ( spans,
    {
      correct = !problems = [];
      attempted = !steps;
      failed = List.length !problems;
      pool_size = pool_domains;
      metrics =
        List.concat_map per_op ops
        @ [ metric ~samples:!steps "trace.overhead_ratio" "ratio" (!traced_s /. !plain_s) ];
      notes = [ ("traced_rounds", Json.Int rounds) ];
    } )
