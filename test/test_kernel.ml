(* Proof-guided specialization: certificates, translation validation,
   and bit-identity of the checkless executor. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Prim = Pgraph.Prim
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor
module Rng = Nd.Rng
module Zoo = Syno.Zoo
module Reference = Lower.Reference
module Staged = Lower.Staged_exec
module Specialize = Lower.Specialize
module Regions = Analysis.Regions
module Certify = Analysis.Certify
module Verify = Analysis.Verify
module Cancel = Robust.Cancel

let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:8 ~c_out:8 ~hw:10 ~k:3 ~g:2 ~s:2 ()

let zoo_cases =
  [
    Zoo.conv2d;
    Zoo.conv1x1;
    Zoo.grouped_conv;
    Zoo.depthwise_conv;
    Zoo.avgpool;
    Zoo.pixel_shuffle;
    Zoo.operator1;
    Zoo.operator2;
    Zoo.stacked_conv;
    Zoo.shift_conv;
    Zoo.nas_pte_grouped;
    Zoo.nas_pte_bottleneck;
    Zoo.nas_pte_range_bottleneck;
    Zoo.nas_pte_depthwise_separable;
  ]

let bits t = Array.map Int64.bits_of_float (Tensor.unsafe_data t)
let ok_graph = function Ok v -> v | Error e -> Alcotest.failf "graph error: %s" e

let certified name op v =
  let st = Staged.compile op v in
  let cert = Regions.of_staged st in
  (match Certify.validate st cert.Regions.rc_plan with
  | Ok _ -> ()
  | Error (Robust.Guard.Static_violation msg) ->
      Alcotest.failf "%s: sound certificate rejected: %s" name msg
  | Error _ -> Alcotest.failf "%s: unexpected guard kind" name);
  (st, cert)

let forward_pair ?cancel name op v =
  let st, cert = certified name op v in
  let sp = Specialize.compile st cert.Regions.rc_plan in
  let r = Staged.reference st in
  let rng = Rng.create ~seed:13 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let a = Staged.forward st ~input:x ~weights:w in
  let b = Specialize.forward ?cancel sp ~input:x ~weights:w in
  (a, b)

let check_identical name op v =
  let a, b = forward_pair name op v in
  Alcotest.(check (array int64)) (name ^ ": bit-identical") (bits a) (bits b)

(* --- Bit-identity over the zoo -------------------------------------------- *)

let test_zoo_bit_identity () =
  List.iter (fun e -> check_identical e.Zoo.name e.Zoo.operator valuation) zoo_cases

let test_matmul_bit_identity () =
  let v = Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7 in
  check_identical "matmul" Zoo.matmul.Zoo.operator v

let test_pool_sizes_bit_identical () =
  Fun.protect
    ~finally:(fun () -> Par.Pool.set_default_domains (Par.Pool.num_domains ()))
    (fun () ->
      List.iter
        (fun e ->
          let st, cert = certified e.Zoo.name e.Zoo.operator valuation in
          let sp = Specialize.compile st cert.Regions.rc_plan in
          let r = Staged.reference st in
          let rng = Rng.create ~seed:31 in
          let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
          let w = Reference.init_weights r rng in
          let reference = Staged.forward st ~input:x ~weights:w in
          List.iter
            (fun domains ->
              Par.Pool.set_default_domains domains;
              let b = Specialize.forward sp ~input:x ~weights:w in
              Alcotest.(check (array int64))
                (Printf.sprintf "%s: %d domains" e.Zoo.name domains)
                (bits reference) (bits b))
            [ 1; 2; 4 ])
        [ Zoo.conv2d; Zoo.operator1 ])

(* At the proxy training stage shapes (batch 16, 4->8 and 8->8
   channels, 10x10), every instantiable zoo operator specializes
   bit-identically, and every Unfold-based one runs on the engine's
   range-clipped path: Unfold's iterator-free [k / 2] centring constant
   is affine, so no piece falls back to per-point guards. *)
let test_training_shape_bit_identity () =
  let uses_unfold op =
    List.exists (function Prim.Unfold _ -> true | _ -> false) op.Graph.op_trace
  in
  let unfold_ops = ref 0 in
  List.iter
    (fun (c_in, c_out) ->
      let v = Zoo.Vars.conv_valuation ~n:16 ~c_in ~c_out ~hw:10 () in
      List.iter
        (fun (e : Zoo.entry) ->
          if Option.is_some (Verify.program_opt e.Zoo.operator v) then begin
            let name = Printf.sprintf "%s/%d->%d" e.Zoo.name c_in c_out in
            let st, cert = certified name e.Zoo.operator v in
            let sp = Specialize.compile st cert.Regions.rc_plan in
            if uses_unfold e.Zoo.operator then begin
              incr unfold_ops;
              Alcotest.(check bool) (name ^ ": range-clipped, not guarded") false
                (Specialize.guarded_fallback sp)
            end;
            check_identical name e.Zoo.operator v
          end)
        Zoo.all)
    [ (4, 8); (8, 8) ];
  Alcotest.(check bool) "Unfold-based operators covered" true (!unfold_ops >= 16)

(* --- Cancellation --------------------------------------------------------- *)

let test_mid_loop_cancellation () =
  (* A fake clock that advances one tick per poll: the deadline token
     trips mid-execution, deterministically, after a few safe points. *)
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int !ticks
  in
  let cancel = Cancel.of_deadline ~clock 5.0 in
  match forward_pair ~cancel "conv2d" Zoo.conv2d.Zoo.operator valuation with
  | _ -> Alcotest.fail "expected mid-loop cancellation"
  | exception Cancel.Cancelled (Cancel.Deadline_exceeded _) ->
      Alcotest.(check bool) "polled more than once" true (!ticks >= 5)

let test_precancelled () =
  let cancel = Cancel.create () in
  Cancel.cancel ~reason:"test" cancel;
  match forward_pair ~cancel "conv2d" Zoo.conv2d.Zoo.operator valuation with
  | _ -> Alcotest.fail "expected cancellation"
  | exception Cancel.Cancelled (Cancel.Cancelled_by "test") -> ()

(* --- Partition edge cases ------------------------------------------------- *)

let test_empty_interior () =
  (* hw = 2 with a 3-wide window: every spatial position may clip, so
     the padded axes have no interior run, yet the partition still
     covers everything and executes identically. *)
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:2 ~k:3 ~g:2 ~s:2 () in
  let st, cert = certified "conv2d/hw=2" Zoo.conv2d.Zoo.operator v in
  ignore st;
  Alcotest.(check bool)
    "interior fraction below 1" true
    (cert.Regions.rc_interior_fraction < 1.0);
  check_identical "conv2d/hw=2" Zoo.conv2d.Zoo.operator v

let test_size_one_axes () =
  let v = Zoo.Vars.conv_valuation ~n:1 ~c_in:1 ~c_out:1 ~hw:1 ~k:1 ~g:1 ~s:1 () in
  List.iter
    (fun e -> check_identical (e.Zoo.name ^ "/ones") e.Zoo.operator v)
    [ Zoo.conv2d; Zoo.conv1x1; Zoo.depthwise_conv ]

let test_scalar_output () =
  (* A full contraction to a 0-d output: dot product of the input with
     one weight vector. *)
  let h = Zoo.Vars.h in
  let sz = Size.of_var in
  let g = Graph.init [] in
  let g = ok_graph (Graph.apply g (Prim.Reduce (sz h))) in
  let g = ok_graph (Graph.apply g (Prim.Share (0, Prim.New_group))) in
  let op = ok_graph (Graph.complete g ~desired:[ sz h ]) in
  let v = Valuation.of_list [ (h, 9) ] in
  check_identical "dot" op v

let test_all_padded_program () =
  (* conv2d's Unfold windows clip on both spatial axes: the verdict is
     Padded, the certificate records border strips, and the interior
     still dominates. *)
  let _, cert = certified "conv2d" Zoo.conv2d.Zoo.operator valuation in
  (match cert.Regions.rc_verdict with
  | Verify.Padded _ -> ()
  | verdict ->
      Alcotest.failf "expected Padded, got %s" (Verify.verdict_to_string verdict));
  Alcotest.(check bool) "has border strips" true (Regions.strips cert > 0);
  Alcotest.(check bool)
    "interior still dominates" true
    (cert.Regions.rc_interior_fraction > 0.5)

let test_proved_program_single_interior () =
  (* conv1x1 has no padding anywhere: every nest should be one interior
     piece and the certificate verdict Proved. *)
  let _, cert = certified "conv1x1" Zoo.conv1x1.Zoo.operator valuation in
  (match cert.Regions.rc_verdict with
  | Verify.Proved -> ()
  | verdict ->
      Alcotest.failf "expected Proved, got %s" (Verify.verdict_to_string verdict));
  Alcotest.(check int) "no border strips" 0 (Regions.strips cert);
  Alcotest.(check (float 1e-9)) "interior fraction 1" 1.0 cert.Regions.rc_interior_fraction

(* --- Certificate soundness ------------------------------------------------ *)

let test_zero_tensor_allocations () =
  let st = Staged.compile Zoo.conv2d.Zoo.operator valuation in
  let before = Tensor.allocations () in
  let cert = Regions.of_staged st in
  let validated = Certify.validate st cert.Regions.rc_plan in
  Alcotest.(check int)
    "certificate construction and validation allocate no tensor" 0
    (Tensor.allocations () - before);
  match validated with
  | Ok stats ->
      Alcotest.(check bool) "has cells" true (stats.Certify.ct_cells > 0);
      Alcotest.(check bool)
        "interior cells within total" true
        (stats.Certify.ct_interior_cells <= stats.Certify.ct_cells)
  | Error _ -> Alcotest.fail "sound certificate rejected"

let invisible_faults = [ Specialize.Overlap_strip; Specialize.Duplicate_strip; Specialize.Spurious_clip ]

let test_corrupt_plans_rejected () =
  List.iter
    (fun e ->
      let st, cert = certified e.Zoo.name e.Zoo.operator valuation in
      List.iter
        (fun fault ->
          match Specialize.corrupt fault st cert.Regions.rc_plan with
          | None -> ()
          | Some corrupted -> (
              match Certify.validate st corrupted with
              | Error (Robust.Guard.Static_violation _) -> ()
              | Error _ -> Alcotest.fail "unexpected guard kind"
              | Ok _ ->
                  Alcotest.failf "%s: %s not rejected" e.Zoo.name
                    (Specialize.fault_to_string fault)))
        (Specialize.Cover_gap :: invisible_faults))
    zoo_cases

let test_corrupt_plans_execute_invisibly () =
  (* The whole point of translation validation: these faults produce a
     plan that runs to completion with bit-identical outputs — without
     Certify, nothing notices. *)
  List.iter
    (fun e ->
      let st, cert = certified e.Zoo.name e.Zoo.operator valuation in
      let r = Staged.reference st in
      let rng = Rng.create ~seed:7 in
      let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
      let w = Reference.init_weights r rng in
      let reference = Staged.forward st ~input:x ~weights:w in
      List.iter
        (fun fault ->
          match Specialize.corrupt fault st cert.Regions.rc_plan with
          | None -> ()
          | Some corrupted ->
              let sp = Specialize.compile st corrupted in
              let b = Specialize.forward sp ~input:x ~weights:w in
              Alcotest.(check (array int64))
                (Printf.sprintf "%s: %s invisible" e.Zoo.name
                   (Specialize.fault_to_string fault))
                (bits reference) (bits b))
        invisible_faults)
    [ Zoo.conv2d; Zoo.operator1; Zoo.shift_conv ]

let test_faults_available () =
  (* On a padded program every fault class must actually apply —
     otherwise the rejection test above would pass vacuously. *)
  let st, cert = certified "conv2d" Zoo.conv2d.Zoo.operator valuation in
  List.iter
    (fun fault ->
      match Specialize.corrupt fault st cert.Regions.rc_plan with
      | Some _ -> ()
      | None ->
          Alcotest.failf "fault %s not applicable to conv2d"
            (Specialize.fault_to_string fault))
    (Specialize.Cover_gap :: invisible_faults)

let test_plan_shape_mismatch_rejected () =
  let st, cert = certified "conv2d" Zoo.conv2d.Zoo.operator valuation in
  let truncated = Array.sub cert.Regions.rc_plan 0 (Array.length cert.Regions.rc_plan - 1) in
  (match Certify.validate st truncated with
  | Error (Robust.Guard.Static_violation _) -> ()
  | _ -> Alcotest.fail "truncated plan accepted");
  match Specialize.compile st truncated with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Specialize.compile accepted truncated plan"

(* --- Random programs ------------------------------------------------------ *)

let random_specialized_agreement =
  QCheck.Test.make ~name:"random synthesized operators specialize bit-identically"
    ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let open Zoo.Vars in
      let sz = Size.of_var in
      let valuations = [ Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:6 ~k:3 ~g:2 ~s:2 () ] in
      let base =
        Search.Enumerate.default_config
          ~output_shape:[ sz n; sz c_out; sz h; sz w ]
          ~desired_shape:[ sz n; sz c_in; sz h; sz w ]
          ~valuations ()
      in
      let cfg =
        {
          base with
          Search.Enumerate.max_prims = 7;
          coefficient_candidates = [ sz k; sz s ];
          reduce_candidates = [ sz c_in; sz k ];
          frozen_sizes = [ sz n ];
        }
      in
      let rng = Rng.create ~seed in
      match Search.Enumerate.random_completion cfg rng ~use_distance:true with
      | None -> true
      | Some op ->
          let v = List.hd valuations in
          let st = Staged.compile op v in
          let cert = Regions.of_staged st in
          (match Certify.validate st cert.Regions.rc_plan with
          | Error _ -> false
          | Ok _ ->
              let sp = Specialize.compile st cert.Regions.rc_plan in
              let r = Staged.reference st in
              let data_rng = Rng.create ~seed:(seed + 1) in
              let x = Tensor.rand_normal data_rng ~scale:1.0 (Reference.input_shape r) in
              let w = Reference.init_weights r data_rng in
              let a = Staged.forward st ~input:x ~weights:w in
              let b = Specialize.forward sp ~input:x ~weights:w in
              bits a = bits b))

let () =
  Alcotest.run "kernel"
    [
      ( "bit-identity",
        [
          Alcotest.test_case "zoo operators" `Quick test_zoo_bit_identity;
          Alcotest.test_case "matmul" `Quick test_matmul_bit_identity;
          Alcotest.test_case "pool sizes" `Quick test_pool_sizes_bit_identical;
          Alcotest.test_case "training shapes" `Quick test_training_shape_bit_identity;
          QCheck_alcotest.to_alcotest random_specialized_agreement;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "mid-loop deadline" `Quick test_mid_loop_cancellation;
          Alcotest.test_case "pre-cancelled" `Quick test_precancelled;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "empty interior" `Quick test_empty_interior;
          Alcotest.test_case "size-1 axes" `Quick test_size_one_axes;
          Alcotest.test_case "scalar output" `Quick test_scalar_output;
          Alcotest.test_case "all-padded program" `Quick test_all_padded_program;
          Alcotest.test_case "proved program" `Quick test_proved_program_single_interior;
        ] );
      ( "certification",
        [
          Alcotest.test_case "zero allocations" `Quick test_zero_tensor_allocations;
          Alcotest.test_case "corrupt plans rejected" `Quick test_corrupt_plans_rejected;
          Alcotest.test_case "corrupt plans invisible" `Quick
            test_corrupt_plans_execute_invisibly;
          Alcotest.test_case "faults applicable" `Quick test_faults_available;
          Alcotest.test_case "plan shape mismatch" `Quick test_plan_shape_mismatch_rejected;
        ] );
    ]
