(* What one benchmark run reports, and the two lines it prints: the full
   record (every metric with its unit and sample count, plus provenance)
   and the result line the contract in BENCHMARK.json reads. *)

type metric = { name : string; unit_ : string; value : float; samples : int }

let metric ?(samples = 1) name unit_ value = { name; unit_; value; samples }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  pool_size : int;
  notes : (string * Json.t) list;
}

(* The process's (or a child's) peak resident set, from /proc. *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> Float.nan
      in
      scan ())

(* stdout of a short command, or "unknown" when it cannot run. *)
let command_output prog args =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> "unknown"
  | r, w -> (
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      match Unix.create_process prog (Array.of_list (prog :: args)) devnull w devnull with
      | exception Unix.Unix_error _ ->
          List.iter Unix.close [ r; w; devnull ];
          "unknown"
      | pid ->
          Unix.close w;
          Unix.close devnull;
          let ic = Unix.in_channel_of_descr r in
          let out = In_channel.input_all ic in
          close_in ic;
          let _, status = Unix.waitpid [] pid in
          if status = Unix.WEXITED 0 then String.trim out else "unknown")

let git () =
  if not (Sys.file_exists ".git") then ("unknown", Json.String "unknown")
  else
    let commit = command_output "git" [ "rev-parse"; "HEAD" ] in
    let dirty =
      match command_output "git" [ "status"; "--porcelain"; "--untracked-files=no" ] with
      | "unknown" -> Json.String "unknown"
      | s -> Json.Bool (s <> "")
    in
    (commit, dirty)

let provenance ~pool_size =
  let commit, dirty = git () in
  [
    ("git_commit", Json.String commit);
    ("git_dirty", dirty);
    ("host", Json.String (Unix.gethostname ()));
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("pool_size", Json.Int pool_size);
  ]

let metric_json m =
  Json.Obj
    [ ("value", Json.Float m.value); ("unit", Json.String m.unit_); ("samples", Json.Int m.samples) ]

let record ~workload ~seed ~traced o =
  Json.Obj
    ([
       ("record", Json.String "syno-perfbench v1");
       ("workload", Json.String workload);
       ("seed", Json.Int seed);
       ("traced", Json.Bool traced);
       ("correct", Json.Bool o.correct);
       ("attempted", Json.Int o.attempted);
       ("failed", Json.Int o.failed);
       ( "error_ratio",
         Json.Float (float_of_int o.failed /. float_of_int (max 1 o.attempted)) );
     ]
    @ provenance ~pool_size:o.pool_size
    @ [ ("metrics", Json.Obj (List.map (fun m -> (m.name, metric_json m)) o.metrics)) ]
    @ o.notes)

(* The contract's last line: exactly the named metrics, value and unit. *)
let result_line o selected =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int (max 1 o.attempted));
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
             selected) );
    ]
