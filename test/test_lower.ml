(* Differential and gradient tests for the code generators, and
   bit-identity of the loop-nest engine against the closure interpreter
   it replaced. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Prim = Pgraph.Prim
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor
module Rng = Nd.Rng
module Reference = Lower.Reference
module Einsum_program = Lower.Einsum_program
module Staging = Lower.Staging
module Loopnest = Lower.Loopnest
module Zoo = Syno.Zoo

let n = Var.primary "N"
let c_in = Var.primary "C_in"
let c_out = Var.primary "C_out"
let h = Var.primary "H"
let m = Var.primary "M"
let nd_ = Var.primary "Nd"
let kk = Var.primary "K"
let k = Var.coefficient "k"
let s = Var.coefficient "s"
let sz = Size.of_var

let valuation =
  Valuation.of_list
    [ (n, 2); (c_in, 4); (c_out, 6); (h, 12); (m, 5); (nd_, 7); (kk, 4); (k, 3); (s, 2) ]

let ok = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let matmul_op () =
  let g = Graph.init [ sz m; sz nd_ ] in
  let g = ok (Graph.apply g (Prim.Reduce (sz kk))) in
  let g = ok (Graph.apply g (Prim.Share (2, Prim.New_group))) in
  let g = ok (Graph.apply g (Prim.Match 1)) in
  ok (Graph.complete g ~desired:[ sz m; sz kk ])

let conv1d_op () =
  (* out[n, co, x] += in[n, ci, x + r - k/2] * w[co, ci, r] *)
  let g = Graph.init [ sz n; sz c_out; sz h ] in
  let g = ok (Graph.apply g (Prim.Reduce (sz c_in))) in
  let g = ok (Graph.apply g (Prim.Reduce (sz k))) in
  let g = ok (Graph.apply g (Prim.Share (3, Prim.New_group))) in
  let g = ok (Graph.apply g (Prim.Share (4, Prim.Current_group))) in
  let g = ok (Graph.apply g (Prim.Unfold (2, 4))) in
  let g = ok (Graph.apply g (Prim.Match 1)) in
  ok (Graph.complete g ~desired:[ sz n; sz c_in; sz h ])

let avgpool_op () =
  let out_h = Size.mul (Size.var_pow s (-1)) (sz h) in
  let g = Graph.init [ out_h ] in
  let g = ok (Graph.apply g (Prim.Reduce (sz s))) in
  let g = ok (Graph.apply g (Prim.Split (0, 1))) in
  ok (Graph.complete g ~desired:[ sz h ])

let shift_op () =
  (* out[i] = in[(i + 1) % H]: a pure view, no weights. *)
  let g = Graph.init [ sz h ] in
  let g = ok (Graph.apply g (Prim.Shift 0)) in
  ok (Graph.complete g ~desired:[ sz h ])

(* --- Reference semantics ------------------------------------------------ *)

let test_matmul_matches_tensor_matmul () =
  let r = Reference.compile (matmul_op ()) valuation in
  let rng = Rng.create ~seed:1 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let out = Reference.forward r ~input:x ~weights:w in
  (* weight iterators are [r_K; j], i.e. the weight is [K, Nd]. *)
  let expected = Tensor.matmul x (List.hd w) in
  Alcotest.(check bool) "matches matmul" true (Tensor.equal ~eps:1e-6 out expected)

let test_avgpool_semantics () =
  let r = Reference.compile (avgpool_op ()) valuation in
  let x = Tensor.init [| 12 |] (fun idx -> float_of_int idx.(0)) in
  let out = Reference.forward r ~input:x ~weights:[] in
  Alcotest.(check (array int)) "out shape" [| 6 |] (Reference.output_shape r);
  (* out[i] = x[2i] + x[2i+1] *)
  Alcotest.(check (float 1e-9)) "out[0]" 1.0 (Tensor.get out [| 0 |]);
  Alcotest.(check (float 1e-9)) "out[5]" 21.0 (Tensor.get out [| 5 |])

let test_shift_semantics () =
  let r = Reference.compile (shift_op ()) valuation in
  let x = Tensor.init [| 12 |] (fun idx -> float_of_int idx.(0)) in
  let out = Reference.forward r ~input:x ~weights:[] in
  Alcotest.(check (float 1e-9)) "out[0] = x[1]" 1.0 (Tensor.get out [| 0 |]);
  Alcotest.(check (float 1e-9)) "out[11] = x[0]" 0.0 (Tensor.get out [| 11 |])

let test_conv_clipping () =
  let r = Reference.compile (conv1d_op ()) valuation in
  let rng = Rng.create ~seed:2 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let out = Reference.forward r ~input:x ~weights:w in
  Alcotest.(check (array int)) "out shape" [| 2; 6; 12 |] (Tensor.shape out);
  (* Manual conv at an interior and a boundary point. *)
  let wt = List.hd w in
  let manual nb co x_pos =
    let acc = ref 0.0 in
    for ci = 0 to 3 do
      for r = 0 to 2 do
        let xi = x_pos + r - 1 in
        if xi >= 0 && xi < 12 then
          (* weight iterators in creation order: r_Ci, r_k, then matched C_out *)
          acc := !acc +. (Tensor.get x [| nb; ci; xi |] *. Tensor.get wt [| ci; r; co |])
      done
    done;
    !acc
  in
  Alcotest.(check (float 1e-6)) "interior" (manual 1 3 5) (Tensor.get out [| 1; 3; 5 |]);
  Alcotest.(check (float 1e-6)) "left boundary" (manual 0 2 0) (Tensor.get out [| 0; 2; 0 |]);
  Alcotest.(check (float 1e-6)) "right boundary" (manual 1 5 11) (Tensor.get out [| 1; 5; 11 |])

(* --- Differential: einsum program vs reference -------------------------- *)

let differential op name =
  let r = Reference.compile op valuation in
  let ep = Einsum_program.compile op valuation in
  let rng = Rng.create ~seed:77 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let a = Reference.forward r ~input:x ~weights:w in
  let b = Einsum_program.forward ep ~input:x ~weights:w in
  Alcotest.(check bool) (name ^ ": both backends agree") true (Tensor.equal ~eps:1e-6 a b)

let test_differential_all () =
  differential (matmul_op ()) "matmul";
  differential (conv1d_op ()) "conv1d";
  differential (avgpool_op ()) "avgpool";
  differential (shift_op ()) "shift"

(* --- Gradient checks ----------------------------------------------------- *)

let loss r ~input ~weights =
  let out = Reference.forward r ~input ~weights in
  (* sum of squares / 2 so that dL/dout = out *)
  0.5 *. Tensor.sum (Tensor.mul out out)

let finite_difference ?(valuation = valuation) op name =
  let r = Reference.compile op valuation in
  let rng = Rng.create ~seed:5 in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let out = Reference.forward r ~input:x ~weights:w in
  let grad_in, grad_ws = Reference.backward r ~input:x ~weights:w ~grad_out:out in
  let eps = 1e-4 in
  let check_tensor label t grad probe_count =
    let data = Tensor.unsafe_data t in
    let g = Tensor.unsafe_data grad in
    let n = Array.length data in
    for p = 0 to probe_count - 1 do
      let i = p * max 1 (n / probe_count) mod n in
      let saved = data.(i) in
      data.(i) <- saved +. eps;
      let l1 = loss r ~input:x ~weights:w in
      data.(i) <- saved -. eps;
      let l0 = loss r ~input:x ~weights:w in
      data.(i) <- saved;
      let numeric = (l1 -. l0) /. (2.0 *. eps) in
      if Float.abs (numeric -. g.(i)) > 1e-2 *. (1.0 +. Float.abs numeric) then
        Alcotest.failf "%s %s[%d]: numeric %.6f vs analytic %.6f" name label i numeric g.(i)
    done
  in
  check_tensor "input" x grad_in 8;
  List.iter2 (fun w gw -> check_tensor "weight" w gw 8) w grad_ws

let test_gradients () =
  finite_difference (matmul_op ()) "matmul";
  finite_difference (conv1d_op ()) "conv1d"

let test_gradients_views () =
  finite_difference (avgpool_op ()) "avgpool"

(* The operators [syno train] differentiates, at a small valuation with
   padding on every spatial border. *)
let test_gradients_training_operators () =
  let valuation = Zoo.Vars.conv_valuation ~n:1 ~c_in:4 ~c_out:4 ~hw:5 () in
  List.iter
    (fun (e : Zoo.entry) -> finite_difference ~valuation e.Zoo.operator e.Zoo.name)
    [ Zoo.conv2d; Zoo.operator1; Zoo.shift_conv; Zoo.grouped_conv ]

(* --- Oracle: the closure interpreter ------------------------------------- *)

(* The per-point semantics of [Reference], written the obvious way: decode
   every (output, reduction) point from its flat index, evaluate each
   input coordinate through a compiled closure, window-test it, and
   accumulate.  The engine must reproduce it bit for bit. *)
module Oracle = struct
  type t = {
    out_shape : int array;
    in_shape : int array;
    weight_shapes : int array array;
    n_env : int;
    spatial_ids : int array;
    reduction_ids : int array;
    reduction_doms : int array;
    input_indexers : (int array -> int) array;
    weight_indexers : int array array;
  }

  let compile (op : Graph.operator) valuation =
    let lookup = Valuation.lookup valuation in
    let eval_size s = Size.eval s lookup in
    let ids its = Array.of_list (List.map (fun it -> it.Ast.id) its) in
    {
      out_shape = Array.of_list (List.map eval_size op.Graph.op_output_shape);
      in_shape = Array.of_list (List.map eval_size op.Graph.op_input_shape);
      weight_shapes =
        Array.of_list
          (List.map
             (fun grp -> Array.of_list (List.map (fun it -> eval_size it.Ast.dom) grp))
             op.Graph.op_weights);
      n_env =
        1
        + List.fold_left max (-1)
            (List.map (fun it -> it.Ast.id) (op.Graph.op_output_iters @ op.Graph.op_reductions));
      spatial_ids = ids op.Graph.op_output_iters;
      reduction_ids = ids op.Graph.op_reductions;
      reduction_doms =
        Array.of_list (List.map (fun it -> eval_size it.Ast.dom) op.Graph.op_reductions);
      input_indexers =
        Array.of_list (List.map (Loopnest.compile_expr lookup) op.Graph.op_input_exprs);
      weight_indexers = Array.of_list (List.map ids op.Graph.op_weights);
    }

  let loop_nest t body =
    let env = Array.make (max 1 t.n_env) 0 in
    let n_out = Array.length t.out_shape and n_red = Array.length t.reduction_ids in
    let out_total = Array.fold_left ( * ) 1 t.out_shape in
    let red_total = Array.fold_left ( * ) 1 t.reduction_doms in
    for flat_out = 0 to out_total - 1 do
      let rem = ref flat_out in
      for i = n_out - 1 downto 0 do
        env.(t.spatial_ids.(i)) <- !rem mod t.out_shape.(i);
        rem := !rem / t.out_shape.(i)
      done;
      for flat_red = 0 to red_total - 1 do
        let rem = ref flat_red in
        for i = n_red - 1 downto 0 do
          env.(t.reduction_ids.(i)) <- !rem mod t.reduction_doms.(i);
          rem := !rem / t.reduction_doms.(i)
        done;
        body flat_out env
      done
    done

  (* Input flat offset for the current environment; [-1] when clipped. *)
  let input_offset t env =
    let off = ref 0 and ok = ref true in
    Array.iteri
      (fun i f ->
        if !ok then begin
          let v = f env in
          if v < 0 || v >= t.in_shape.(i) then ok := false
          else off := (!off * t.in_shape.(i)) + v
        end)
      t.input_indexers;
    if !ok then !off else -1

  let weight_offset ids shape env =
    let off = ref 0 in
    Array.iteri (fun i id -> off := (!off * shape.(i)) + env.(id)) ids;
    !off

  let forward t ~input ~weights =
    let w = Array.of_list (List.map Tensor.unsafe_data weights) in
    let x = Tensor.unsafe_data input in
    let out = Tensor.create t.out_shape in
    let o = Tensor.unsafe_data out in
    loop_nest t (fun flat_out env ->
        let off = input_offset t env in
        if off >= 0 then begin
          let v = ref x.(off) in
          Array.iteri
            (fun g ids -> v := !v *. w.(g).(weight_offset ids t.weight_shapes.(g) env))
            t.weight_indexers;
          o.(flat_out) <- o.(flat_out) +. !v
        end);
    out

  let backward t ~input ~weights ~grad_out =
    let w = Array.of_list (List.map Tensor.unsafe_data weights) in
    let n_w = Array.length w in
    let x = Tensor.unsafe_data input and go = Tensor.unsafe_data grad_out in
    let grad_in = Tensor.create t.in_shape in
    let gi = Tensor.unsafe_data grad_in in
    let grad_ws = List.map Tensor.create (Array.to_list t.weight_shapes) in
    let gw = Array.of_list (List.map Tensor.unsafe_data grad_ws) in
    let w_offs = Array.make n_w 0 in
    loop_nest t (fun flat_out env ->
        let off = input_offset t env in
        if off >= 0 then begin
          let g_out = go.(flat_out) in
          if g_out <> 0.0 then begin
            let w_prod = ref 1.0 in
            for g = 0 to n_w - 1 do
              w_offs.(g) <- weight_offset t.weight_indexers.(g) t.weight_shapes.(g) env;
              w_prod := !w_prod *. w.(g).(w_offs.(g))
            done;
            gi.(off) <- gi.(off) +. (g_out *. !w_prod);
            for g = 0 to n_w - 1 do
              let others = ref (g_out *. x.(off)) in
              for g' = 0 to n_w - 1 do
                if g' <> g then others := !others *. w.(g').(w_offs.(g'))
              done;
              gw.(g).(w_offs.(g)) <- gw.(g).(w_offs.(g)) +. !others
            done
          end
        end);
    (grad_in, grad_ws)
end

let bits t = Array.map Int64.bits_of_float (Tensor.unsafe_data t)

(* Forward and backward of [Reference] against the oracle, bit for bit.
   Every third output gradient is zeroed so the skip path is exercised. *)
let agrees ?(seed = 3) op v =
  let r = Reference.compile op v and o = Oracle.compile op v in
  let rng = Rng.create ~seed in
  let x = Tensor.rand_normal rng ~scale:1.0 (Reference.input_shape r) in
  let w = Reference.init_weights r rng in
  let go = Tensor.rand_normal rng ~scale:1.0 (Reference.output_shape r) in
  Array.iteri (fun i _ -> if i mod 3 = 0 then (Tensor.unsafe_data go).(i) <- 0.0) (Tensor.unsafe_data go);
  let same a b = bits a = bits b in
  same (Reference.forward r ~input:x ~weights:w) (Oracle.forward o ~input:x ~weights:w)
  &&
  let gi, gws = Reference.backward r ~input:x ~weights:w ~grad_out:go in
  let gi', gws' = Oracle.backward o ~input:x ~weights:w ~grad_out:go in
  same gi gi' && List.for_all2 same gws gws'

let check_agrees name op v =
  Alcotest.(check bool) (name ^ ": forward and backward bit-identical to the oracle") true
    (agrees op v)

let instantiable v = List.filter (fun e -> Option.is_some (Analysis.Verify.program_opt e.Zoo.operator v)) Zoo.all

(* Both stage shapes of the proxy training model (4->8 and 8->8
   channels, 10x10).  The batch axis is the outermost loop and changes
   no clipping, so the sweep runs at batch 2 and the three operators the
   training workload differentiates run again at the real batch 16. *)
let training_valuations n =
  [
    Zoo.Vars.conv_valuation ~n ~c_in:4 ~c_out:8 ~hw:10 ();
    Zoo.Vars.conv_valuation ~n ~c_in:8 ~c_out:8 ~hw:10 ();
  ]

let test_oracle_zoo_training_shapes () =
  List.iter
    (fun v -> List.iter (fun e -> check_agrees e.Zoo.name e.Zoo.operator v) (instantiable v))
    (training_valuations 2);
  List.iter
    (fun v ->
      List.iter
        (fun (e : Zoo.entry) -> check_agrees (e.Zoo.name ^ "/n=16") e.Zoo.operator v)
        [ Zoo.conv2d; Zoo.operator1; Zoo.shift_conv ])
    (training_valuations 16);
  check_agrees "matmul" Zoo.matmul.Zoo.operator (Zoo.Vars.matmul_valuation ~m:6 ~n:5 ~k:7)

let test_oracle_clipping_heavy () =
  (* A 5-wide window on a 4-wide image: every point of every row is a
     border point and most window taps clip. *)
  let v = Zoo.Vars.conv_valuation ~n:2 ~c_in:4 ~c_out:4 ~hw:4 ~k:5 () in
  let cases = instantiable v in
  Alcotest.(check bool) "conv-like operators instantiate" true (List.length cases >= 5);
  List.iter (fun e -> check_agrees (e.Zoo.name ^ "/k=5,hw=4") e.Zoo.operator v) cases

let test_oracle_shift () =
  check_agrees "shift" (shift_op ()) valuation;
  let v = Zoo.Vars.conv_valuation ~n:2 ~c_in:4 ~c_out:4 ~hw:5 () in
  check_agrees "shift_conv" Zoo.shift_conv.Zoo.operator v;
  (* The [Mod] does not move with the innermost iterator: affine
     engine path, evaluated once per outer point. *)
  Alcotest.(check bool) "shift_conv is not guarded" false
    (Reference.guarded (Reference.compile Zoo.shift_conv.Zoo.operator v))

let test_oracle_guarded_fallback () =
  let v = Zoo.Vars.conv_valuation ~c_in:4 ~c_out:4 ~hw:12 ~s:3 () in
  let r = Reference.compile Zoo.pixel_shuffle.Zoo.operator v in
  Alcotest.(check bool) "pixel_shuffle falls back to per-point guards" true (Reference.guarded r);
  check_agrees "pixel_shuffle" Zoo.pixel_shuffle.Zoo.operator v

let test_oracle_no_reduction () =
  List.iter
    (fun (name, op) ->
      Alcotest.(check int) (name ^ ": no reduction") 0 (List.length op.Graph.op_reductions);
      check_agrees name op valuation)
    [ ("shift", shift_op ()); ("pixel_shuffle", Zoo.pixel_shuffle.Zoo.operator) ]

let test_oracle_pool_sizes () =
  List.iter
    (fun pool ->
      let v = Valuation.of_list [ (h, 12); (s, pool) ] in
      check_agrees (Printf.sprintf "avgpool/s=%d" pool) (avgpool_op ()) v;
      let zv = Zoo.Vars.conv_valuation ~c_in:4 ~c_out:4 ~hw:6 ~s:pool () in
      check_agrees (Printf.sprintf "zoo avgpool/s=%d" pool) Zoo.avgpool.Zoo.operator zv)
    [ 1; 2 ]

let test_gather_matches_oracle () =
  (* The einsum gather is the same engine with one output cell per
     point: compare it with the oracle's per-point offsets. *)
  let v = Zoo.Vars.conv_valuation ~n:2 ~c_in:4 ~c_out:4 ~hw:6 () in
  List.iter
    (fun (e : Zoo.entry) ->
      let r = Reference.compile e.Zoo.operator v and o = Oracle.compile e.Zoo.operator v in
      let x = Tensor.rand_normal (Rng.create ~seed:9) ~scale:1.0 (Reference.input_shape r) in
      let xd = Tensor.unsafe_data x in
      let g = Reference.gatherer r ~input:x in
      let want = Array.make (Array.length (Tensor.unsafe_data g)) 0.0 in
      let pos = ref 0 in
      Oracle.loop_nest o (fun _ env ->
          let off = Oracle.input_offset o env in
          if off >= 0 then want.(!pos) <- xd.(off);
          incr pos);
      Alcotest.(check (array int64)) (e.Zoo.name ^ ": gather") (Array.map Int64.bits_of_float want)
        (bits g))
    [ Zoo.conv2d; Zoo.shift_conv; Zoo.grouped_conv; Zoo.pixel_shuffle ]

let random_reference_agreement =
  QCheck.Test.make ~name:"random synthesized operators match the oracle bit for bit" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let open Zoo.Vars in
      let sz = Size.of_var in
      let valuations = [ Zoo.Vars.conv_valuation ~n:2 ~c_in:4 ~c_out:4 ~hw:5 ~k:3 ~g:2 ~s:2 () ] in
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
      match Search.Enumerate.random_completion cfg (Rng.create ~seed) ~use_distance:true with
      | None -> true
      | Some op -> agrees ~seed op (List.hd valuations))

(* Random affine nests against a brute-force walk: every coefficient
   sign and magnitude, window offsets, level starts, and any split
   between output and reduction levels, so the range solver and the
   two-level block are exercised beyond what the zoo's expressions
   reach. *)
let random_nest_agreement =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 4 in
      let* extents = array_repeat n (int_range 1 4) in
      let* starts = array_repeat n (int_range 0 2) in
      let* n_out = int_range 0 n in
      let dim =
        let* const = int_range (-3) 3 in
        let* coefs = array_repeat n (int_range (-2) 2) in
        let* lo = int_range (-1) 1 in
        let* extent = int_range 1 5 in
        return (const, coefs, lo, extent)
      in
      let* accesses = list_size (int_range 1 3) (list_size (int_range 1 2) dim) in
      let* seed = int_range 0 1000 in
      return (extents, starts, n_out, accesses, seed))
  in
  QCheck.Test.make ~name:"random affine nests match a brute-force walk" ~count:500
    (QCheck.make gen) (fun (extents, starts, n_out, accesses, seed) ->
      let n = Array.length extents in
      let levels =
        Array.init n (fun l -> { Loopnest.id = l; start = starts.(l); extent = extents.(l) })
      in
      let accesses =
        Array.of_list
          (List.map
             (fun dims ->
               Array.of_list
                 (List.map
                    (fun (const, coefs, lo, extent) ->
                      { Loopnest.index = Loopnest.Affine { const; coefs }; lo; extent; clip = true })
                    dims))
             accesses)
      in
      (* Output cells are addressed by absolute level values, as the
         pieces of a partition are. *)
      let out_dims = Array.init n_out (fun l -> starts.(l) + extents.(l)) in
      let out_strides =
        Array.init n_out (fun l -> Array.fold_left ( * ) 1 (Array.sub out_dims (l + 1) (n_out - l - 1)))
      in
      let nest = Loopnest.compile ~levels ~n_out ~out_strides accesses in
      let rng = Rng.create ~seed in
      let factors =
        Array.map
          (fun dims ->
            Array.init
              (Array.fold_left (fun a d -> a * d.Loopnest.extent) 1 dims)
              (fun _ -> (2.0 *. Rng.float rng) -. 1.0))
          accesses
      in
      let out_total = Array.fold_left ( * ) 1 out_dims in
      let got = Array.make out_total 0.0 in
      Loopnest.contract nest ~factors ~out:got ~from:0 ~upto:(Loopnest.units nest);
      (* Brute force: every point in row-major order, skipping any
         point where some dim leaves its window. *)
      let want = Array.make out_total 0.0 in
      let total = Array.fold_left ( * ) 1 extents in
      let v = Array.make n 0 in
      for flat = 0 to total - 1 do
        let rem = ref flat in
        for l = n - 1 downto 0 do
          v.(l) <- starts.(l) + (!rem mod extents.(l));
          rem := !rem / extents.(l)
        done;
        let w = ref 0 in
        for l = 0 to n_out - 1 do
          w := !w + (v.(l) * out_strides.(l))
        done;
        let p = ref 1.0 and ok = ref true in
        Array.iteri
          (fun a dims ->
            let off = ref 0 in
            Array.iter
              (fun d ->
                match d.Loopnest.index with
                | Loopnest.Affine { const; coefs } ->
                    let value = ref const in
                    Array.iteri (fun l c -> value := !value + (c * v.(l))) coefs;
                    let idx = !value - d.Loopnest.lo in
                    if idx < 0 || idx >= d.Loopnest.extent then ok := false
                    else off := (!off * d.Loopnest.extent) + idx
                | Loopnest.Computed _ -> assert false)
              dims;
            if !ok then p := !p *. factors.(a).(!off))
          accesses;
        if !ok then
          if n_out = n then want.(!w) <- 0.0 +. !p else want.(!w) <- want.(!w) +. !p
      done;
      Array.map Int64.bits_of_float got = Array.map Int64.bits_of_float want)

(* --- Staging (materialized reduction, Fig. 4) --------------------------- *)

let fig4_op () =
  (* The Fig. 4 pattern: a reduction (here over channels) performed
     after an Unfold is evaluated once per window element; materializing
     it first removes the duplication.
     out[co, x] = sum_ci sum_rk in[ci, x + rk - k/2] * w[ci, co] *)
  let g = Graph.init [ sz c_out; sz h ] in
  let g = ok (Graph.apply g (Prim.Reduce (sz c_in))) in
  let g = ok (Graph.apply g (Prim.Reduce (sz k))) in
  let g = ok (Graph.apply g (Prim.Share (2, Prim.New_group))) in
  let g = ok (Graph.apply g (Prim.Unfold (1, 3))) in
  let g = ok (Graph.apply g (Prim.Match 0)) in
  ok (Graph.complete g ~desired:[ sz c_in; sz h ])

let test_staging_fig4 () =
  let op = fig4_op () in
  let plan = Staging.optimize op valuation in
  (* Naive: 2 * (C_out*H) * (C_in*k) = 2*72*12 = 1728. *)
  Alcotest.(check int) "naive flops" 1728 plan.Staging.naive_flops;
  Alcotest.(check bool) "staging helps" true (plan.Staging.total_flops < plan.Staging.naive_flops);
  Alcotest.(check bool) "at least one stage" true (plan.Staging.stages <> []);
  (* Optimal: materialize the window sum Z[ci, x'] = sum_rk X[ci, x'+rk-k/2]
     (2*48*3 = 288 flops), then contract channels (2*72*4 = 576). *)
  Alcotest.(check int) "optimal staged flops" 864 plan.Staging.total_flops;
  Alcotest.(check bool) "speedup reported" true (Staging.speedup plan > 1.5)

let test_staging_matmul_no_gain () =
  let plan = Staging.optimize (matmul_op ()) valuation in
  Alcotest.(check int) "matmul cannot stage below naive" plan.Staging.naive_flops
    plan.Staging.total_flops

(* --- Textual codegen ------------------------------------------------------ *)

let test_codegen_text () =
  let ep = Einsum_program.compile (matmul_op ()) valuation in
  let py = Einsum_program.to_pytorch ep in
  Alcotest.(check bool) "pytorch has einsum" true
    (Astring.String.is_infix ~affix:"torch.einsum" py);
  let te = Einsum_program.to_te ep in
  Alcotest.(check bool) "te has RDom" true (Astring.String.is_infix ~affix:"RDom" te)

let () =
  Alcotest.run "lower"
    [
      ( "reference",
        [
          Alcotest.test_case "matmul" `Quick test_matmul_matches_tensor_matmul;
          Alcotest.test_case "avgpool" `Quick test_avgpool_semantics;
          Alcotest.test_case "shift" `Quick test_shift_semantics;
          Alcotest.test_case "conv clipping" `Quick test_conv_clipping;
        ] );
      ("differential", [ Alcotest.test_case "all backends" `Quick test_differential_all ]);
      ( "gradients",
        [
          Alcotest.test_case "contractions" `Quick test_gradients;
          Alcotest.test_case "views" `Quick test_gradients_views;
          Alcotest.test_case "training operators" `Quick test_gradients_training_operators;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "zoo at training shapes" `Quick test_oracle_zoo_training_shapes;
          Alcotest.test_case "clipping-heavy" `Quick test_oracle_clipping_heavy;
          Alcotest.test_case "shift mod" `Quick test_oracle_shift;
          Alcotest.test_case "guarded fallback" `Quick test_oracle_guarded_fallback;
          Alcotest.test_case "no reduction" `Quick test_oracle_no_reduction;
          Alcotest.test_case "pool sizes 1 and 2" `Quick test_oracle_pool_sizes;
          Alcotest.test_case "einsum gather" `Quick test_gather_matches_oracle;
          QCheck_alcotest.to_alcotest random_reference_agreement;
          QCheck_alcotest.to_alcotest random_nest_agreement;
        ] );
      ( "staging",
        [
          Alcotest.test_case "fig4" `Quick test_staging_fig4;
          Alcotest.test_case "matmul no gain" `Quick test_staging_matmul_no_gain;
        ] );
      ("codegen", [ Alcotest.test_case "text" `Quick test_codegen_text ]);
    ]
