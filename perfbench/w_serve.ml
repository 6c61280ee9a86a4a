(* Workload [serve]: an open loop from this one process, over at most
   nproc Unix-socket connections, against a real [syno serve --workers 2]
   daemon spawned from the built syno_cli.exe.

   Requests are [eval]s of (zoo operator, small shape) keys drawn
   Zipf-like from a universe larger than the daemon's --cache-capacity,
   plus a fixed share of [lint]s.  Hits exercise the I/O loop, protocol
   and cache lookup; misses run the cold pipeline (corpus replay,
   static verification, differential validation, reference forward,
   certification and the specialized forward) and insert, evict and
   snapshot.  Two fixed offered rates, never derived from a measurement
   of the build under test: [low_rate], then [high_rate].  The
   end-to-end latencies are the [high] phase's, timed from each
   request's due time. *)

module P = Serve.Protocol
module Zoo = Syno.Zoo




open Record

let workers = 2
let cache_capacity = 24
let zipf_s = 1.6
let lint_share = 0.05
let low_rate = 150.0
let high_rate = 400.0

(* The contract line's tail, in tenths of a percentile: p97 of the high
   phase's latencies, which lies inside the cold misses (about 5% of
   evals).  Its p99 (in the record as serve.high.p99_ms) rests on the
   ~80 slowest requests, which cluster around a few scheduling stalls:
   repeats of one seed on a 2-core host ranged 2.9-4.5 ms, too wide for
   a 25% bound. *)
let tail_p10 = 970

(* Goodput counts ok responses within this latency of their due time. *)
let latency_limit = 0.5
let spawns = 15
let status_cadence = 0.1

type key = { op : Zoo.entry; n : int; c_in : int; c_out : int; hw : int }

(* The ranked universe (a key's Zipf rank is its position): distinct
   cache keys (operator signature, shape; k = 3, g = 2, s = 2) whose cold
   evaluation costs 1-3 ms on a 2-core x86 host, interleaved by
   operator.  With costs this even, the tail depends on how many keys
   miss rather than on which. *)
let universe =
  [
    ("conv1x1", 2, 8, 8, 6); ("grouped_conv", 1, 4, 4, 4); ("nas_pte_depthwise_separable", 1, 4, 4, 4);
    ("nas_pte_range_bottleneck", 1, 4, 4, 4); ("operator1", 1, 4, 4, 4); ("shift_conv", 1, 8, 4, 5);
    ("grouped_conv", 1, 8, 4, 4); ("nas_pte_depthwise_separable", 1, 8, 4, 4);
    ("nas_pte_range_bottleneck", 1, 4, 4, 5); ("shift_conv", 1, 4, 4, 6); ("grouped_conv", 1, 4, 4, 5);
    ("nas_pte_depthwise_separable", 1, 4, 8, 4); ("nas_pte_range_bottleneck", 1, 8, 4, 4);
    ("shift_conv", 2, 8, 4, 4); ("grouped_conv", 2, 4, 4, 4); ("nas_pte_depthwise_separable", 2, 4, 4, 4);
    ("nas_pte_range_bottleneck", 1, 4, 8, 4); ("shift_conv", 2, 4, 4, 5); ("grouped_conv", 1, 4, 8, 4);
    ("nas_pte_depthwise_separable", 1, 4, 4, 5); ("nas_pte_range_bottleneck", 2, 4, 4, 4);
    ("shift_conv", 1, 4, 8, 5); ("grouped_conv", 2, 8, 4, 4); ("nas_pte_depthwise_separable", 1, 4, 4, 6);
    ("nas_pte_range_bottleneck", 1, 4, 4, 6); ("shift_conv", 2, 4, 8, 4); ("grouped_conv", 1, 4, 4, 6);
    ("nas_pte_range_bottleneck", 1, 8, 4, 5); ("shift_conv", 1, 8, 8, 4); ("grouped_conv", 1, 8, 4, 5);
    ("nas_pte_range_bottleneck", 2, 8, 4, 4); ("shift_conv", 1, 8, 4, 6); ("grouped_conv", 2, 4, 4, 5);
    ("nas_pte_range_bottleneck", 2, 4, 4, 5); ("shift_conv", 2, 4, 4, 6);
    ("nas_pte_range_bottleneck", 1, 4, 8, 5); ("shift_conv", 2, 8, 4, 5); ("shift_conv", 2, 4, 8, 5);
    ("shift_conv", 1, 4, 8, 6); ("shift_conv", 1, 8, 8, 5); ("shift_conv", 2, 8, 4, 6);
  ]
  |> List.map (fun (name, n, c_in, c_out, hw) ->
         { op = List.find (fun e -> e.Zoo.name = name) Zoo.conv_like; n; c_in; c_out; hw })
  |> Array.of_list

let key_params k =
  [
    ("op", k.op.Zoo.name);
    ("n", string_of_int k.n);
    ("c_in", string_of_int k.c_in);
    ("c_out", string_of_int k.c_out);
    ("hw", string_of_int k.hw);
  ]

let valuation k = Zoo.Vars.conv_valuation ~n:k.n ~c_in:k.c_in ~c_out:k.c_out ~hw:k.hw ~k:3 ~g:2 ~s:2 ()

(* --- A pipelined line connection ---------------------------------------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable lines : string list }

let connect path ~timeout =
  let give_up = Unix.gettimeofday () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Buffer.create 4096; lines = [] }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < give_up ->
        Unix.close fd;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let send_line c line =
  let s = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length s then go (off + Unix.write c.fd s off (Bytes.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read what is available on [c]; false at EOF. *)
let fill c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      let s = Buffer.contents c.buf in
      let parts = String.split_on_char '\n' s in
      let rec split = function
        | [ rest ] ->
            Buffer.clear c.buf;
            Buffer.add_string c.buf rest;
            []
        | line :: more -> line :: split more
        | [] -> []
      in
      c.lines <- c.lines @ split parts;
      true

(* Wait up to [timeout] for readable connections; returns the complete
   lines received with the time they were read. *)
let poll conns ~timeout =
  let fds = List.map (fun c -> c.fd) conns in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  | ready, _, _ ->
      let at = Unix.gettimeofday () in
      List.concat_map
        (fun c ->
          if List.mem c.fd ready then begin
            if not (fill c) then failwith "serve: daemon closed the connection";
            let ls = c.lines in
            c.lines <- [];
            List.map (fun l -> (l, at)) ls
          end
          else [])
        conns

let rec next_line c ~timeout =
  match c.lines with
  | l :: rest ->
      c.lines <- rest;
      l
  | [] ->
      (match Unix.select [ c.fd ] [] [] timeout with
      | [], _, _ -> failwith "serve: no response within the timeout"
      | _ -> if not (fill c) then failwith "serve: daemon closed the connection");
      next_line c ~timeout

(* One request and its response; a late status reply still in flight
   from the load phase is skipped. *)
let request c ?(params = []) ~id verb =
  send_line c (P.render_request { P.rq_id = id; rq_verb = verb; rq_params = params });
  let rec await () =
    match P.parse_response (next_line c ~timeout:60.0) with
    | Ok (rid, resp) when rid = id -> resp
    | Ok _ -> await ()
    | Error e -> failwith ("serve: bad response: " ^ e)
  in
  await ()

(* --- Daemon lifecycle ----------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let cli () =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) Filename.parent_dir_name)
    (Filename.concat "bin" "syno_cli.exe")

(* fork+exec only: a bare fork is forbidden once a domain has existed. *)
let spawn dir =
  let socket = Filename.concat dir "s.sock" in
  let args =
    [
      cli (); "serve"; "--socket"; socket; "--cache"; Filename.concat dir "cache.snap";
      "--cache-capacity"; string_of_int cache_capacity; "--corpus"; Filename.concat dir "bugs.corpus";
      "--workers"; string_of_int workers;
    ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process (List.hd args) (Array.of_list args) devnull devnull Unix.stderr)
  in
  { pid; socket }

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

let wait_exit d ~timeout =
  let give_up = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < give_up ->
        Unix.sleepf 0.01;
        go ()
    | 0, _ -> None
    | _, status -> Some status
  in
  go ()

(* Drain through the protocol verb; true when the daemon exited 0. *)
let drain d c =
  (match request c ~id:"drain" P.Drain with
  | P.Resp_ok _ -> ()
  | P.Resp_error { err_kind; _ } -> failwith ("serve: drain refused: " ^ err_kind));
  match wait_exit d ~timeout:30.0 with
  | Some (Unix.WEXITED 0) -> true
  | Some _ -> false
  | None ->
      kill d;
      false

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* --- Output references ---------------------------------------------------- *)

(* The eval checksum recomputed on the inputs the daemon derives
   (Differential.derive_seed of the signature), through the einsum
   program rather than the reference interpreter the daemon runs. *)
let reference_checksum k =
  let op = k.op.Zoo.operator and v = valuation k in
  let signature = Pgraph.Graph.operator_signature op in
  let compiled = Lower.Reference.compile op v in
  let rng = Nd.Rng.create ~seed:(Validate.Differential.derive_seed ~seed:0 signature) in
  let weights = Lower.Reference.init_weights compiled rng in
  let input = Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled) in
  Nd.Tensor.sum (Lower.Einsum_program.forward (Lower.Einsum_program.compile op v) ~input ~weights)

let lint_count k = List.length (Analysis.Lint.check ~valuations:[ valuation k ] k.op.Zoo.operator)

(* --- Phases ----------------------------------------------------------------- *)

type req = { verb : P.verb; key : int }

type reply = {
  r_ok : bool;
  r_kind : string;
  r_params : (string * string) list;
}

type phase = {
  name : string;
  reqs : req array;
  due : float array;
  outcome : Loadgen.outcome;
  replies : reply option array;
}

type gauges = {
  mutable depth_max : int;
  mutable bytes_max : int;
  mutable last_status : (string * string) list;
}

(* The phase's requests as a fixed multiset, independent of the seed:
   each key appears in proportion to its Zipf weight (largest
   remainders), lints cycle through the universe.  The seed only orders
   them and times their arrivals, so every seed offers the same work. *)
let schedule ~seed ~rate ~duration weights =
  let due = Loadgen.arrivals ~seed:(Loadgen.mix seed 1) ~rate ~duration in
  let n = Array.length due in
  let lints = int_of_float (Float.round (lint_share *. float_of_int n)) in
  let evals = n - lints in
  let counts = Loadgen.apportion weights evals in
  let reqs =
    Array.concat
      [
        Array.concat (Array.to_list (Array.mapi (fun key c -> Array.make c { verb = P.Eval; key }) counts));
        Array.init lints (fun i -> { verb = P.Lint; key = i mod Array.length universe });
      ]
  in
  Loadgen.shuffle ~seed:(Loadgen.mix seed 2) reqs;
  (due, reqs)

let parse_status g = function
  | P.Resp_ok ps ->
      let gauge key = Option.bind (List.assoc_opt key ps) int_of_string_opt in
      Option.iter (fun v -> g.depth_max <- max g.depth_max v) (gauge "queue_depth");
      Option.iter (fun v -> g.bytes_max <- max g.bytes_max v) (gauge "inflight_bytes");
      g.last_status <- ps
  | P.Resp_error _ -> ()

let run_phase conns g ~name ~seed ~rate ~duration weights =
  let due, reqs = schedule ~seed ~rate ~duration weights in
  let n = Array.length reqs in
  let replies = Array.make n None in
  let status_n = ref 0 in
  let nconns = List.length conns in
  let conn_arr = Array.of_list conns in
  let send i =
    let r = reqs.(i) in
    send_line conn_arr.(i mod nconns)
      (P.render_request
         { P.rq_id = Printf.sprintf "%s.%d" name i; rq_verb = r.verb; rq_params = key_params universe.(r.key) })
  in
  let tick () =
    incr status_n;
    send_line conn_arr.(0)
      (P.render_request
         { P.rq_id = Printf.sprintf "status.%d" !status_n; rq_verb = P.Status; rq_params = [] })
  in
  let poll ~timeout =
    List.filter_map
      (fun (line, at) ->
        match P.parse_response line with
        | Error e -> failwith ("serve: bad response: " ^ e)
        | Ok (id, resp) -> (
            let owner, index =
              match String.rindex_opt id '.' with
              | Some j ->
                  (String.sub id 0 j, int_of_string_opt (String.sub id (j + 1) (String.length id - j - 1)))
              | None -> (id, None)
            in
            match index with
            | Some _ when owner = "status" ->
                parse_status g resp;
                None
            | Some i when owner = name && i >= 0 && i < n ->
                replies.(i) <-
                  Some
                    (match resp with
                    | P.Resp_ok ps -> { r_ok = true; r_kind = "ok"; r_params = ps }
                    | P.Resp_error { err_kind; _ } -> { r_ok = false; r_kind = err_kind; r_params = [] });
                Some (i, at)
            | _ -> failwith ("serve: response to an unknown request " ^ id)))
      (poll conns ~timeout)
  in
  let start = Unix.gettimeofday () +. 0.01 in
  let outcome =
    Loadgen.run ~now:Unix.gettimeofday ~send ~poll ~tick ~cadence:status_cadence ~start ~due
      ~drain_timeout:30.0 ()
  in
  { name; reqs; due; outcome; replies }

let micros r = Option.bind (List.assoc_opt "micros" r.r_params) float_of_string_opt
let is_cached r = List.assoc_opt "cached" r.r_params = Some "1"

let latencies_ms ph =
  Array.to_list ph.outcome.Loadgen.latency
  |> List.filter (fun l -> not (Float.is_nan l))
  |> List.map (fun l -> l *. 1e3)

(* Service times (ms) of ok evals, split by whether the cache answered. *)
let service_ms phases ~cached =
  List.concat_map
    (fun ph ->
      Array.to_list ph.replies
      |> List.filter_map (function
           | Some r when r.r_ok && is_cached r = cached -> Option.map (fun m -> m /. 1e3) (micros r)
           | _ -> None))
    phases

(* Output checks: every ok eval's checksum against the einsum checksum of
   its key, every lint's finding count against an in-process lint. *)
let check_phases phases =
  let checksums = Hashtbl.create 64 and lints = Hashtbl.create 16 in
  let memo tbl f k = match Hashtbl.find_opt tbl k with Some v -> v | None -> let v = f universe.(k) in Hashtbl.add tbl k v; v in
  List.concat_map
    (fun ph ->
      List.concat
        (List.mapi
           (fun i reply ->
             let rq = ph.reqs.(i) in
             let k = universe.(rq.key) in
             let label =
               Printf.sprintf "serve %s %s %s n=%d c_in=%d c_out=%d hw=%d" ph.name
                 (P.verb_label rq.verb) k.op.Zoo.name k.n k.c_in k.c_out k.hw
             in
             match reply with
             | None -> [ label ^ ": no response" ]
             | Some r when not r.r_ok -> [ label ^ ": error " ^ r.r_kind ]
             | Some r -> (
                 match rq.verb with
                 | P.Eval -> (
                     match Option.bind (List.assoc_opt "checksum" r.r_params) float_of_string_opt with
                     | None -> [ label ^ ": no checksum" ]
                     | Some got ->
                         let want = memo checksums reference_checksum rq.key in
                         if Float.abs (got -. want) <= 1e-9 *. (1.0 +. Float.abs want) then []
                         else [ Printf.sprintf "%s: checksum %h, einsum gives %h" label got want ])
                 | _ -> (
                     match Option.bind (List.assoc_opt "count" r.r_params) int_of_string_opt with
                     | Some c when c = memo lints lint_count rq.key -> []
                     | Some c -> [ Printf.sprintf "%s: %d lint findings, in-process lint gives %d" label c (memo lints lint_count rq.key) ]
                     | None -> [ label ^ ": no finding count" ])))
           (Array.to_list ph.replies)))
    phases

(* The cold pipeline's stages timed in this process, with the public
   calls the daemon's cold path makes, on every distinct key that
   missed the cache in the run. *)
let cold_split spans dir phases =
  let cold = Hashtbl.create 64 in
  List.iter
    (fun ph ->
      Array.iteri
        (fun i -> function
          | Some r when r.r_ok && ph.reqs.(i).verb = P.Eval && not (is_cached r) ->
              Hashtbl.replace cold ph.reqs.(i).key ()
          | _ -> ())
        ph.replies)
    phases;
  let corpus, _ = Validate.Corpus.open_file (Filename.concat dir "split.corpus") in
  let keys = Hashtbl.fold (fun k () acc -> k :: acc) cold [] |> List.sort compare in
  List.iter
    (fun ki ->
      let k = universe.(ki) in
      let op = k.op.Zoo.operator and v = valuation k in
      let span name f = Spans.with_span spans ~request:ki name f in
      ignore (span "validate.corpus.replay" (fun () -> Validate.Corpus.replay corpus op));
      ignore (span "analysis.verify" (fun () -> Analysis.Verify.program_opt op v));
      ignore
        (span "validate.differential" (fun () ->
             Validate.Differential.check_full ~config:(Validate.Differential.config ()) op [ v ]));
      let compiled = Lower.Reference.compile op v in
      let rng =
        Nd.Rng.create
          ~seed:(Validate.Differential.derive_seed ~seed:0 (Pgraph.Graph.operator_signature op))
      in
      let weights = Lower.Reference.init_weights compiled rng in
      let input =
        Nd.Tensor.rand_uniform rng ~lo:(-1.0) ~hi:1.0 (Lower.Reference.input_shape compiled)
      in
      ignore (span "lower.reference.forward" (fun () -> Lower.Reference.forward compiled ~input ~weights));
      match span "analysis.certify" (fun () -> Syno.Api.specialize_operator ~mode:`Auto op v) with
      | Ok (Some sp) ->
          ignore (span "lower.specialize.forward" (fun () -> Lower.Specialize.forward sp ~input ~weights))
      | Ok None | Error _ -> ())
    keys;
  List.length keys

let run ~out_dir ~seed ~seconds ~traced =
  let dir = Filename.concat out_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Unix.mkdir dir 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Stopped from outside, still kill and reap the daemon on the way out. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> failwith "serve: interrupted")))
    [ Sys.sigint; Sys.sigterm ];
  let live = ref None in
  let nconns = max 1 (min 2 (Domain.recommended_domain_count ())) in
  Fun.protect
    ~finally:(fun () ->
      Option.iter kill !live;
      try remove_tree dir with Sys_error _ -> ())
    (fun () ->
      (* Set-up, [spawns] times from an empty directory: spawn to first
         ping, then warm the cache with every key of its capacity.  The
         last daemon stays. *)
      let setup_times = ref [] in
      let rec boot i =
        let t0 = Unix.gettimeofday () in
        let d = spawn dir in
        live := Some d;
        let c = connect d.socket ~timeout:30.0 in
        (match request c ~id:"ping" P.Ping with
        | P.Resp_ok _ -> ()
        | P.Resp_error { err_kind; _ } -> failwith ("serve: ping failed: " ^ err_kind));
        for r = 0 to cache_capacity - 1 do
          match request c ~id:(Printf.sprintf "w%d" r) ~params:(key_params universe.(r)) P.Eval with
          | P.Resp_ok _ -> ()
          | P.Resp_error { err_kind; _ } -> failwith ("serve: warm-up eval failed: " ^ err_kind)
        done;
        setup_times := (Unix.gettimeofday () -. t0) :: !setup_times;
        if i < spawns then begin
          if not (drain d c) then failwith "serve: set-up daemon did not drain to exit 0";
          Unix.close c.fd;
          live := None;
          Array.iter (fun f -> remove_tree (Filename.concat dir f)) (Sys.readdir dir);
          boot (i + 1)
        end
        else (d, c)
      in
      let d, c0 = boot 1 in
      let conns = c0 :: List.init (nconns - 1) (fun _ -> connect d.socket ~timeout:10.0) in
      let weights = Loadgen.zipf_weights ~n:(Array.length universe) ~s:zipf_s in
      let g = { depth_max = 0; bytes_max = 0; last_status = [] } in
      (* The end-to-end figures come from the high phase: give it two
         thirds of the run. *)
      let third = float_of_int seconds /. 3.0 in
      let low =
        run_phase conns g ~name:"low" ~seed:(Loadgen.mix seed 10) ~rate:low_rate ~duration:third
          weights
      in
      let high =
        run_phase conns g ~name:"high" ~seed:(Loadgen.mix seed 20) ~rate:high_rate
          ~duration:(2.0 *. third) weights
      in
      (* A final status after the load, so the counters cover it all. *)
      parse_status g (request c0 ~id:"final" P.Status);
      let rss = peak_rss_mb ~pid:(string_of_int d.pid) () in
      let drained = drain d c0 in
      List.iter (fun c -> Unix.close c.fd) conns;
      live := None;
      let phases = [ low; high ] in
      let problems = check_phases phases @ if drained then [] else [ "serve: daemon did not drain to exit 0" ] in
      List.iter prerr_endline problems;
      let sent = List.fold_left (fun acc ph -> acc + Array.length ph.reqs) 0 phases in
      let tail ms = Option.value (Stats.tail ms) ~default:(Float.nan, Float.nan) in
      let high_ms = latencies_ms high and low_ms = latencies_ms low in
      let high_tail_p, high_tail = tail high_ms and low_tail_p, low_tail = tail low_ms in
      let goodput ph =
        let good = ref 0 and last = ref 0.0 in
        Array.iteri
          (fun i r ->
            let l = ph.outcome.Loadgen.latency.(i) in
            if not (Float.is_nan l) then last := Float.max !last (ph.due.(i) +. l);
            match r with Some r when r.r_ok && l <= latency_limit -> incr good | _ -> ())
          ph.replies;
        (* Per second of the phase as it ran: from its start to its
           last response. *)
        float_of_int !good /. !last
      in
      let status key = Option.fold ~none:0.0 ~some:float_of_string (List.assoc_opt key g.last_status) in
      let hits = status "cache_hits" and misses = status "cache_misses" in
      let hit_ms = service_ms phases ~cached:true and miss_ms = service_ms phases ~cached:false in
      let wait_ms =
        List.concat_map
          (fun ph ->
            List.concat
              (List.mapi
                 (fun i r ->
                   match r with
                   | Some r when r.r_ok -> (
                       match micros r with
                       | Some m -> [ (ph.outcome.Loadgen.latency.(i) *. 1e3) -. (m /. 1e3) ]
                       | None -> [])
                   | _ -> [])
                 (Array.to_list ph.replies)))
          phases
      in
      let late = List.fold_left (fun acc ph -> Float.max acc ph.outcome.Loadgen.late_max) 0.0 phases in

      let e2e =
        [
          metric ~samples:spawns "setup_s" "s" (Stats.median !setup_times);
          metric "peak_rss_mb" "MiB" rss;
          metric ~samples:(Array.length high.reqs) "throughput_per_s" "1/s" (goodput high);
          metric ~samples:(List.length high_ms) "latency_mean_ms" "ms" (Stats.mean high_ms);
          metric ~samples:(List.length high_ms) "latency_p50_ms" "ms" (Stats.median high_ms);
          metric ~samples:(List.length high_ms) "latency_tail_ms" "ms" (Stats.percentile high_ms tail_p10);
          metric ~samples:(List.length low_ms) "serve.low.p50_ms" "ms" (Stats.median low_ms);
          metric ~samples:(List.length low_ms) "serve.low.p99_ms" "ms" low_tail;
          metric ~samples:(List.length high_ms) "serve.high.p50_ms" "ms" (Stats.median high_ms);
          metric ~samples:(List.length high_ms) "serve.high.p99_ms" "ms" high_tail;
          metric ~samples:(Array.length high.reqs) "serve.goodput_rps" "1/s" (goodput high);
        ]
      in
      let pct_tail xs = snd (tail xs) in
      let layers =
        [
          metric ~samples:(List.length hit_ms) "serve.hit.service_p50_ms" "ms" (Stats.median hit_ms);
          metric ~samples:(List.length hit_ms) "serve.hit.service_tail_ms" "ms" (pct_tail hit_ms);
          metric ~samples:(List.length miss_ms) "serve.miss.service_p50_ms" "ms" (Stats.median miss_ms);
          metric ~samples:(List.length miss_ms) "serve.miss.service_tail_ms" "ms" (pct_tail miss_ms);
          metric ~samples:(List.length wait_ms) "serve.wait_p50_ms" "ms" (Stats.median wait_ms);
          metric ~samples:(List.length wait_ms) "serve.wait_tail_ms" "ms" (pct_tail wait_ms);
          metric ~samples:(int_of_float (hits +. misses)) "serve.cache.hit_ratio" "ratio"
            (hits /. Float.max 1.0 (hits +. misses));
          metric "serve.cache.evictions" "count" (status "cache_evictions");
          metric "serve.cache.writes" "count" (status "cache_writes");
          metric "serve.admission.shed" "count" (status "shed");
          metric "serve.queue_depth.max" "count" (float_of_int g.depth_max);
          metric "serve.inflight_bytes.max" "bytes" (float_of_int g.bytes_max);
          metric ~samples:sent "serve.generator.late_ms" "ms" (late *. 1e3);
        ]
      in
      let spans, traced_layers =
        if not traced then (None, [])
        else begin
          let spans = Spans.create () in
          let keys = cold_split spans dir phases in
          let totals = Spans.totals spans in
          let stage name metric_name =
            let t = Spans.total totals name in
            metric ~samples:t.Spans.calls metric_name "s" t.Spans.total_s
          in
          ( Some spans,
            [
              stage "validate.corpus.replay" "validate.corpus.replay_s";
              stage "analysis.verify" "analysis.verify_s";
              stage "validate.differential" "validate.differential_s";
              stage "lower.reference.forward" "lower.reference.forward_s";
              stage "analysis.certify" "analysis.certify_s";
              stage "lower.specialize.forward" "lower.specialize.forward_s";
              metric "serve.cold_keys" "count" (float_of_int keys);
              (* The load is the same with and without --trace: the
                 cold-path split runs after it. *)
              metric "trace.overhead_ratio" "ratio" 1.0;
            ] )
        end
      in
      ( spans,
        {
          correct = problems = [];
          attempted = sent + (spawns * cache_capacity);
          failed = List.length problems;
          pool_size = workers;
          metrics = e2e @ layers @ traced_layers;
          notes =
            [
              ("latency_tail_percentile", Json.Float (float_of_int tail_p10 /. 10.0));
              ("high_tail_percentile", Json.Float high_tail_p);
              ("low_tail_percentile", Json.Float low_tail_p);
              ("rates", Json.Obj [ ("low", Json.Float low_rate); ("high", Json.Float high_rate) ]);
              ("latency_limit_s", Json.Float latency_limit);
              ("connections", Json.Int nconns);
              ( "requests",
                Json.Obj
                  [ ("low", Json.Int (Array.length low.reqs)); ("high", Json.Int (Array.length high.reqs)) ]
              );
            ];
        } ))
