(* Tests of the benchmark's own machinery: the percentile rule, span
   self time, due-time latency under a stalled generator, and exact
   repetition of the deterministic counts of the traced runs. *)

open Perfbench

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_rule () =
  let check name n expect =
    Alcotest.(check (option (pair (float 0.0) (float 0.0)))) name expect (Stats.tail (floats n))
  in
  (* p99 of 1..1000 is the 990th sample, with exactly 10 beyond it. *)
  check "1000 samples: p99" 1000 (Some (99.0, 990.0));
  (* One sample fewer leaves only 9 beyond p99: fall back to p95. *)
  check "999 samples: p95" 999 (Some (95.0, 950.0));
  check "20 samples: p50" 20 (Some (50.0, 10.0));
  check "19 samples: none" 19 None;
  (* p99 is the highest percentile reported, however many samples. *)
  check "10000 samples: p99" 10000 (Some (99.0, 9900.0));
  Alcotest.(check (float 0.0)) "median, even count" 10.5 (Stats.median (floats 20));
  Alcotest.(check (float 0.0)) "p97 of 1..1000" 970.0 (Stats.percentile (floats 1000) 970);
  Alcotest.(check (float 0.0)) "p97 of 1..999 rounds the rank up" 970.0 (Stats.percentile (floats 999) 970);
  Alcotest.(check bool) "percentile of nothing" true (Float.is_nan (Stats.percentile [] 970))

let test_self_time () =
  let now = ref 0.0 in
  let spans = Spans.create ~clock:(fun () -> !now) () in
  Spans.with_span spans "outer" (fun () ->
      now := 1.0;
      Spans.with_span spans "inner" (fun () -> now := 4.0);
      now := 6.0;
      Spans.with_span spans "inner" (fun () -> now := 7.0);
      now := 10.0);
  let totals = Spans.totals spans in
  let outer = Spans.total totals "outer" and inner = Spans.total totals "inner" in
  Alcotest.(check int) "inner calls" 2 inner.Spans.calls;
  Alcotest.(check (float 1e-12)) "outer total" 10.0 outer.Spans.total_s;
  Alcotest.(check (float 1e-12)) "outer self" 6.0 outer.Spans.self_s;
  Alcotest.(check (float 1e-12)) "inner self" 4.0 inner.Spans.self_s

(* A fake daemon answering each request [service] seconds after it was
   sent, on a fake clock; the generator stalls for [stall] seconds while
   sending request [stalled]. *)
let test_stall () =
  let now = ref 100.0 in
  let service = 0.001 and stall = 0.25 and stalled = 5 in
  let pending = ref [] in
  let send i =
    if i = stalled then now := !now +. stall;
    pending := (i, !now +. service) :: !pending
  in
  let poll ~timeout =
    let until = !now +. timeout in
    let ready, rest = List.partition (fun (_, at) -> at <= until) !pending in
    pending := rest;
    (match ready with
    | [] -> now := until
    | _ -> now := Float.max !now (List.fold_left (fun acc (_, at) -> Float.max acc at) 0.0 ready));
    ready
  in
  let due = Array.init 20 (fun i -> 0.01 *. float_of_int i) in
  let o =
    Loadgen.run ~now:(fun () -> !now) ~send ~poll ~start:100.0 ~due ~drain_timeout:1.0 ()
  in
  Alcotest.(check int) "all answered" 0 o.Loadgen.missing;
  (* The stall delays the sends after it: the next one by the stall less
     the spacing of due times. *)
  Alcotest.(check bool) "lateness reports the stall" true
    (o.Loadgen.late_max >= stall -. 0.01 -. 1e-9);
  (* Requests due during the stall were sent late: timed from their due
     time, the wait shows; timed from their send, it would not. *)
  for i = stalled + 1 to 20 - 1 do
    let caught_in_stall = due.(i) < due.(stalled) +. stall in
    let lat = o.Loadgen.latency.(i) in
    if caught_in_stall then
      Alcotest.(check bool)
        (Printf.sprintf "request %d latency %g includes the stall" i lat)
        true
        (lat >= due.(stalled) +. stall -. due.(i))
    else Alcotest.(check (float 1e-9)) (Printf.sprintf "request %d on time" i) service lat
  done;
  Alcotest.(check (float 1e-9)) "request before the stall" service o.Loadgen.latency.(0);
  Alcotest.(check bool) "stalled request itself" true (o.Loadgen.latency.(stalled) >= stall)

let test_arrivals () =
  let a = Loadgen.arrivals ~seed:7 ~rate:200.0 ~duration:2.0 in
  Alcotest.(check int) "count fixed by rate and duration" 400 (Array.length a);
  Alcotest.(check bool) "same seed, same schedule" true (a = Loadgen.arrivals ~seed:7 ~rate:200.0 ~duration:2.0);
  Alcotest.(check bool) "sorted within the phase" true
    (Array.for_all (fun x -> x >= 0.0 && x < 2.0) a && a = Array.of_list (List.sort compare (Array.to_list a)))

(* Counts (units other than seconds) of a traced run. *)
let counts (o : Record.outcome) =
  List.filter_map
    (fun (m : Record.metric) ->
      if m.Record.unit_ = "s" || m.Record.name = "trace.overhead_ratio" then None
      else Some (m.Record.name, m.Record.value))
    o.Record.metrics

let test_search_counts_repeat () =
  let run () = snd (W_search.traced ~iterations:120 ~rollouts:6 ~seed:11 ()) in
  let a = run () and b = run () in
  Alcotest.(check bool) "checks pass" true (a.Record.correct && b.Record.correct);
  Alcotest.(check (list (pair string (float 0.0)))) "search counts repeat" (counts a) (counts b);
  Alcotest.(check (float 0.0)) "iterations" 120.0 (List.assoc "search.mcts.iterations" (counts a))

let test_train_counts_repeat () =
  let run () = snd (W_train.traced ~rounds:1 ~seed:5 ()) in
  let a = run () and b = run () in
  Alcotest.(check bool) "checks pass" true (a.Record.correct && b.Record.correct);
  Alcotest.(check (list (pair string (float 0.0)))) "train counts repeat" (counts a) (counts b);
  Alcotest.(check (float 0.0)) "one step per round" 1.0 (List.assoc "nn.conv2d.steps" (counts a))

(* The search workload's replica of the API's space, reward and gate
   returns exactly what the API returns. *)
let test_search_matches_api () =
  let iterations = 150 and seed = 4 in
  let mine = W_search.search ~iterations ~seed (W_search.setup ()) in
  let api =
    Syno.Api.search_conv_operators_run ~iterations ~max_prims:W_search.max_prims
      ~flops_budget_ratio:W_search.budget_ratio ~domains:1 ~validate:true
      ~rng:(Nd.Rng.create ~seed) ~valuations:Syno.Api.default_search_valuations ()
  in
  let of_mine =
    List.map
      (fun (r : Search.Mcts.result) ->
        (Pgraph.Graph.operator_signature r.Search.Mcts.operator, r.Search.Mcts.reward))
      mine.W_search.results
  in
  let of_api =
    List.map (fun (c : Syno.Api.candidate) -> (c.Syno.Api.signature, c.Syno.Api.reward)) api.Syno.Api.candidates
  in
  Alcotest.(check (list (pair string (float 0.0)))) "same candidates" of_api of_mine;
  Alcotest.(check int) "one latency per iteration" iterations (List.length mine.W_search.latencies)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "highest percentile with 10 beyond" `Quick test_tail_rule;
          Alcotest.test_case "span self time" `Quick test_self_time;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "due-time latency under a stall" `Quick test_stall;
          Alcotest.test_case "seeded schedule" `Quick test_arrivals;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "search replica matches the API" `Quick test_search_matches_api;
          Alcotest.test_case "traced search counts repeat" `Quick test_search_counts_repeat;
          Alcotest.test_case "traced train counts repeat" `Quick test_train_counts_repeat;
        ] );
    ]
