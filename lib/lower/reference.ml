module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor

type t = {
  op : Graph.operator;
  out_shape : int array;
  in_shape : int array;
  weight_shapes : int array list;
  reduction_doms : int array;
  levels : Loopnest.level array;  (* outputs then reductions *)
  input_dims : Loopnest.dim array;
  nest : Loopnest.t;  (* accesses: input, then weights *)
}

let row_major extents =
  let n = Array.length extents in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * extents.(i + 1)
  done;
  s

let compile (op : Graph.operator) valuation =
  let lookup = Valuation.lookup valuation in
  let eval_size s = Size.eval s lookup in
  let out_shape = Array.of_list (List.map eval_size op.Graph.op_output_shape) in
  let in_shape = Array.of_list (List.map eval_size op.Graph.op_input_shape) in
  let weight_shapes =
    List.map
      (fun grp -> Array.of_list (List.map (fun it -> eval_size it.Ast.dom) grp))
      op.Graph.op_weights
  in
  let reduction_doms =
    Array.of_list (List.map (fun it -> eval_size it.Ast.dom) op.Graph.op_reductions)
  in
  let levels =
    Array.of_list
      (List.map
         (fun it -> { Loopnest.id = it.Ast.id; start = 0; extent = eval_size it.Ast.dom })
         (op.Graph.op_output_iters @ op.Graph.op_reductions))
  in
  let dim e extent =
    { Loopnest.index = Loopnest.index_of_expr ~lookup levels e; lo = 0; extent; clip = true }
  in
  let input = Array.of_list (List.map2 dim op.Graph.op_input_exprs (Array.to_list in_shape)) in
  let weights =
    List.map2
      (fun grp shape -> Array.of_list (List.map2 (fun it -> dim (Ast.iter it)) grp (Array.to_list shape)))
      op.Graph.op_weights weight_shapes
  in
  {
    op;
    out_shape;
    in_shape;
    weight_shapes;
    reduction_doms;
    levels;
    input_dims = input;
    nest =
      Loopnest.compile ~levels ~n_out:(Array.length out_shape) ~out_strides:(row_major out_shape)
        (Array.of_list (input :: weights));
  }

let output_shape t = Array.copy t.out_shape
let input_shape t = Array.copy t.in_shape
let weight_shapes t = List.map Array.copy t.weight_shapes
let operator t = t.op
let guarded t = Loopnest.guarded t.nest

(* Same convention as {!Pgraph.Flops.naive_flops}: the product of the
   spatial and reduction loop extents, two FLOPs per point. *)
let flops t =
  let out = Array.fold_left ( * ) 1 t.out_shape in
  let red = Array.fold_left ( * ) 1 t.reduction_doms in
  2 * out * red

(* Each accumulated term multiplies the input by one element of every
   weight group, so the variance budget 2/fan_in (Kaiming, with fan_in
   the reduction-space extent) is split evenly across the groups:
   prod_g var(w_g) = 2 / red. *)
let init_weights t rng =
  let red = float_of_int (Array.fold_left ( * ) 1 t.reduction_doms) in
  let n_groups = List.length t.weight_shapes in
  if n_groups = 0 then []
  else
    let scale = (2.0 /. Float.max 1.0 red) ** (1.0 /. (2.0 *. float_of_int n_groups)) in
    List.map (fun sh -> Tensor.rand_normal rng ~scale sh) t.weight_shapes

let check_weights fn t weights =
  if List.length weights <> List.length t.weight_shapes
     || not (List.for_all2 (fun w sh -> Tensor.shape w = sh) weights t.weight_shapes)
  then invalid_arg (fn ^ ": weight shapes")

let gatherer t =
  (* Every level is an output level, so each block is a single row. *)
  let nest =
    Loopnest.compile ~levels:t.levels ~n_out:(Array.length t.levels)
      ~out_strides:(row_major (Array.append t.out_shape t.reduction_doms))
      [| t.input_dims |]
  in
  let steps = Loopnest.steps nest in
  let s0 = steps.(0) and os = steps.(1) in
  fun ~input ->
    if Tensor.shape input <> t.in_shape then invalid_arg "Reference.gatherer: input shape";
    let g = Tensor.create (Array.append t.out_shape t.reduction_doms) in
    let g_data = Tensor.unsafe_data g and in_data = Tensor.unsafe_data input in
    Loopnest.iter nest ~from:0 ~upto:(Loopnest.units nest)
      ~segment:(fun q _ _ lo hi ->
        for i = lo.(0) to hi.(0) - 1 do
          g_data.(q.(1) + (i * os)) <- in_data.(q.(0) + (i * s0))
        done)
      ~flush:ignore;
    g

let forward t ~input ~weights =
  if Tensor.shape input <> t.in_shape then invalid_arg "Reference.forward: input shape";
  check_weights "Reference.forward" t weights;
  let out = Tensor.create t.out_shape in
  Loopnest.contract t.nest
    ~factors:(Array.of_list (List.map Tensor.unsafe_data (input :: weights)))
    ~out:(Tensor.unsafe_data out) ~from:0 ~upto:(Loopnest.units t.nest);
  out

(* Per visited point, with [g] the output gradient there (points whose
   [g] is zero are skipped):
     d input   += g *. (1.0 *. w_0 *. ... *. w_{n-1})
     d w_j     += (g *. x) *. (the other weights, in group order)
   The unrolled segments below evaluate exactly these expressions. *)
let backward t ~input ~weights ~grad_out =
  if Tensor.shape grad_out <> t.out_shape then invalid_arg "Reference.backward: grad shape";
  if Tensor.shape input <> t.in_shape then invalid_arg "Reference.backward: input shape";
  check_weights "Reference.backward" t weights;
  let x = Tensor.unsafe_data input in
  let ws = Array.of_list (List.map Tensor.unsafe_data weights) in
  let go = Tensor.unsafe_data grad_out in
  let grad_in = Tensor.create t.in_shape in
  let gi = Tensor.unsafe_data grad_in in
  let grad_ws = List.map Tensor.create t.weight_shapes in
  let gws = Array.of_list (List.map Tensor.unsafe_data grad_ws) in
  let n_w = Array.length ws in
  let steps = Loopnest.steps t.nest and rows = Loopnest.row_steps t.nest in
  let os = steps.(n_w + 1) and ors = rows.(n_w + 1) in
  let general q ra rb lo hi =
    let offs = Array.make n_w 0 in
    for r = ra to rb - 1 do
      for i = lo.(r) to hi.(r) - 1 do
        let g = go.(q.(n_w + 1) + (r * ors) + (i * os)) in
        if g <> 0.0 then begin
          let ox = q.(0) + (r * rows.(0)) + (i * steps.(0)) in
          let w_prod = ref 1.0 in
          for j = 0 to n_w - 1 do
            offs.(j) <- q.(j + 1) + (r * rows.(j + 1)) + (i * steps.(j + 1));
            w_prod := !w_prod *. ws.(j).(offs.(j))
          done;
          gi.(ox) <- gi.(ox) +. (g *. !w_prod);
          let gx = g *. x.(ox) in
          for j = 0 to n_w - 1 do
            let others = ref gx in
            for j' = 0 to n_w - 1 do
              if j' <> j then others := !others *. ws.(j').(offs.(j'))
            done;
            gws.(j).(offs.(j)) <- gws.(j).(offs.(j)) +. !others
          done
        end
      done
    done
  in
  (* When the output does not move inside the block (the innermost
     level is a reduction), one [g] serves the whole block. *)
  let segment =
    if os <> 0 || ors <> 0 then general
    else
      match (ws, gws) with
      | [| w0 |], [| gw0 |] ->
          let s0 = steps.(0) and s1 = steps.(1) and r0 = rows.(0) and r1 = rows.(1) in
          fun q ra rb lo hi ->
            let g = Array.unsafe_get go q.(2) in
            if g <> 0.0 then
              for r = ra to rb - 1 do
                let a = Array.unsafe_get lo r in
                let o0 = ref (q.(0) + (r * r0) + (a * s0)) and o1 = ref (q.(1) + (r * r1) + (a * s1)) in
                for _ = a to Array.unsafe_get hi r - 1 do
                  let ox = !o0 and ow = !o1 in
                  Array.unsafe_set gi ox
                    (Array.unsafe_get gi ox +. (g *. (1.0 *. Array.unsafe_get w0 ow)));
                  Array.unsafe_set gw0 ow (Array.unsafe_get gw0 ow +. (g *. Array.unsafe_get x ox));
                  o0 := ox + s0;
                  o1 := ow + s1
                done
              done
      | [| w0; w1 |], [| gw0; gw1 |] ->
          let s0 = steps.(0) and s1 = steps.(1) and s2 = steps.(2) in
          let r0 = rows.(0) and r1 = rows.(1) and r2 = rows.(2) in
          fun q ra rb lo hi ->
            let g = Array.unsafe_get go q.(3) in
            if g <> 0.0 then
              for r = ra to rb - 1 do
                let a = Array.unsafe_get lo r in
                let o0 = ref (q.(0) + (r * r0) + (a * s0))
                and o1 = ref (q.(1) + (r * r1) + (a * s1))
                and o2 = ref (q.(2) + (r * r2) + (a * s2)) in
                for _ = a to Array.unsafe_get hi r - 1 do
                  let ox = !o0 and oa = !o1 and ob = !o2 in
                  let va = Array.unsafe_get w0 oa and vb = Array.unsafe_get w1 ob in
                  Array.unsafe_set gi ox (Array.unsafe_get gi ox +. (g *. (1.0 *. va *. vb)));
                  let gx = g *. Array.unsafe_get x ox in
                  Array.unsafe_set gw0 oa (Array.unsafe_get gw0 oa +. (gx *. vb));
                  Array.unsafe_set gw1 ob (Array.unsafe_get gw1 ob +. (gx *. va));
                  o0 := ox + s0;
                  o1 := oa + s1;
                  o2 := ob + s2
                done
              done
      | _ -> general
  in
  Loopnest.iter t.nest ~from:0 ~upto:(Loopnest.units t.nest) ~segment ~flush:ignore;
  (grad_in, grad_ws)
