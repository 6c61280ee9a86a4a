module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Simplify = Coord.Simplify
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor

(* A runtime factor dimension: the coordinate expression that indexes
   it (over the not-yet-reduced iterators), its extent, and the value
   corresponding to index 0.  Accesses outside [lo, lo + extent) clip
   to zero (the Unfold boundary semantics). *)
type fdim = { expr : Ast.t; extent : int; lo : int }

type factor = { dims : fdim list; data : Tensor.t }

type t = {
  reference : Reference.t;  (* for shapes and the iterator layout *)
  op : Graph.operator;
  valuation : Valuation.t;
  plan : Staging.plan;
}

let compile op valuation =
  {
    reference = Reference.compile op valuation;
    op;
    valuation;
    plan = Staging.optimize op valuation;
  }

let plan t = t.plan
let num_stages t = List.length t.plan.Staging.stages
let operator t = t.op
let valuation t = t.valuation
let reference t = t.reference

let iter_in it e = List.exists (fun j -> j.Ast.id = it.Ast.id) (Ast.iters e)

let residual it e =
  let rec strip e =
    match e with
    | Ast.Add (a, b) -> Ast.add (strip a) (strip b)
    | Ast.Sub (a, b) -> Ast.sub (strip a) (strip b)
    | Ast.Iter j when j.Ast.id = it.Ast.id -> Ast.const 0
    | Ast.Mul (_, Ast.Iter j) when j.Ast.id = it.Ast.id -> Ast.const 0
    | e -> e
  in
  Simplify.flatten (strip e)

(* The linear coefficient of [it] in [e]: e = residual + c * it. *)
let coefficient lookup it e =
  let res = residual it e in
  let env1 id = if id = it.Ast.id then 1 else 0 in
  let env0 _ = 0 in
  Ast.eval ~env:env1 ~lookup e - Ast.eval ~env:env1 ~lookup res
  - (Ast.eval ~env:env0 ~lookup e - Ast.eval ~env:env0 ~lookup res)

(* --- Symbolic plan ------------------------------------------------------ *)

(* One factor-dimension access of a materialization stage: the window
   it must hit, the slot of the new tensor that carries its residual
   (or [-1] with the residual constant in [u_base] when the reduction
   alone indexes it), and the linear coefficient of the reduced
   iterator.  The executor's value for this access at position [pos]
   and reduction step [r] is
   [(if u_slot >= 0 then pos.(u_slot) + lows.(u_slot) else u_base) + u_coef * r]. *)
type use = {
  u_expr : Ast.t;
  u_lo : int;
  u_extent : int;
  u_slot : int;
  u_base : int;
  u_coef : int;
}

type stage_sym = {
  ss_dom : int;
  ss_extents : int array;
  ss_lows : int array;
  ss_uses : use array array;
  ss_participating : int array;
  ss_others : int array;
  ss_new_dims : fdim list;
}

type final_sym = {
  fs_out_ids : int array;
  fs_out_doms : int array;
  fs_red_ids : int array;
  fs_red_doms : int array;
  fs_env_size : int;
  fs_factors : (Ast.t * int * int) array array;
}

(* The complete symbolic bookkeeping of one materialization stage.
   [materialize] below consumes this for the numeric loop and
   [access_plan] derives the verifier's access lists from it, so the
   three views (execution, verification, specialization) cannot
   drift. *)
let stage_sym lookup it dom (dims_list : fdim list list) =
  let tagged = List.mapi (fun i dims -> (i, dims)) dims_list in
  let participating, others =
    List.partition
      (fun (_, dims) -> List.exists (fun d -> iter_in it d.expr) dims)
      tagged
  in
  let new_dims : fdim list ref = ref [] in
  let slot_of dim =
    let rec find i = function
      | [] -> None
      | d :: _ when Ast.equal d.expr dim.expr -> Some i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 (List.rev !new_dims)
  in
  let uses =
    List.map
      (fun (_, dims) ->
        Array.of_list
          (List.map
             (fun d ->
               let affected = iter_in it d.expr in
               let c = if affected then coefficient lookup it d.expr else 0 in
               let target =
                 if affected then
                   let res = residual it d.expr in
                   match res with
                   | Ast.Const base -> `Consumed base
                   | res ->
                       (* The executor indexes materialized dims by VALUE,
                          so the extent is the dense range — unlike the
                          cost model, which counts distinct values for
                          strided residuals. *)
                       let lo, hi = Ast.bounds ~lookup res in
                       `Dim { expr = res; extent = hi - lo + 1; lo }
                 else `Dim d
               in
               match target with
               | `Consumed base ->
                   { u_expr = d.expr; u_lo = d.lo; u_extent = d.extent;
                     u_slot = -1; u_base = base; u_coef = c }
               | `Dim nd -> (
                   let slot =
                     match slot_of nd with
                     | Some slot -> slot
                     | None ->
                         new_dims := nd :: !new_dims;
                         List.length !new_dims - 1
                   in
                   { u_expr = d.expr; u_lo = d.lo; u_extent = d.extent;
                     u_slot = slot; u_base = 0; u_coef = c }))
             dims))
      participating
  in
  let dims = List.rev !new_dims in
  {
    ss_dom = dom;
    ss_extents = Array.of_list (List.map (fun d -> d.extent) dims);
    ss_lows = Array.of_list (List.map (fun d -> d.lo) dims);
    ss_uses = Array.of_list uses;
    ss_participating = Array.of_list (List.map fst participating);
    ss_others = Array.of_list (List.map fst others);
    ss_new_dims = dims;
  }

(* Cancellation poll cadence in the flat element loops: coarse enough
   to stay off the per-element profile, fine enough to bound preemption
   latency to a few thousand accumulations. *)
let poll_mask = 4095

(* Minimum estimated scalar operations (output elements times reduction
   extent) before a flat loop is worth offering to the default pool;
   below this the submission overhead dominates.  The pool's own
   granularity tuner still gets the final say — it probes the body and
   falls back to a sequential polled run when the measured per-element
   cost cannot amortize parallel claim overhead. *)
let par_threshold = 1 lsl 12

(* Offer [body] over [0, n) to the default pool when the estimated
   [work] clears the threshold and the pool actually has workers;
   otherwise run [seq ()], the caller's sequential loop with its
   original poll cadence.  Each body invocation must allocate its own
   scratch (index arrays), write only its own output range, and keep
   per-element work self-contained, so results are bit-identical to the
   sequential loop at any pool size. *)
let run_flat ?cancel ~work ~n body seq =
  let pool = Par.Pool.get_default () in
  if work >= par_threshold && Par.Pool.size pool > 1 && n > 1 then
    Par.Pool.parallel_for pool ?cancel ~n body
  else seq ()

(* Materialize the sum over the stage's reduced iterator of the product
   of the participating factors into a new tensor factor, driven by the
   stage's symbolic bookkeeping.  [poll] is called every
   [poll_mask + 1] output elements on the sequential path; the parallel
   path polls [cancel] at every range claim inside the pool. *)
let materialize ~poll ?cancel sym factors =
  let arr = Array.of_list factors in
  let others = List.map (fun i -> arr.(i)) (Array.to_list sym.ss_others) in
  let mapped =
    Array.map
      (fun i -> Tensor.unsafe_data arr.(i).data)
      sym.ss_participating
  in
  let uses = sym.ss_uses in
  let dom = sym.ss_dom in
  let extents = sym.ss_extents in
  let lows = sym.ss_lows in
  let tensor = Tensor.create (if extents = [||] then [||] else Array.copy extents) in
  let data = Tensor.unsafe_data tensor in
  let n_dims = Array.length extents in
  let total = Array.fold_left ( * ) 1 extents in
  let nf = Array.length mapped in
  let element pos flat =
    let rem = ref flat in
    for i = n_dims - 1 downto 0 do
      pos.(i) <- !rem mod extents.(i);
      rem := !rem / extents.(i)
    done;
    let acc = ref 0.0 in
    for r = 0 to dom - 1 do
      let product = ref 1.0 in
      (try
         for fi = 0 to nf - 1 do
           let fdata = mapped.(fi) in
           let fuses = uses.(fi) in
           let off = ref 0 in
           for j = 0 to Array.length fuses - 1 do
             let u = fuses.(j) in
             let value =
               (if u.u_slot >= 0 then pos.(u.u_slot) + lows.(u.u_slot) else u.u_base)
               + (u.u_coef * r)
             in
             let idx = value - u.u_lo in
             if idx < 0 || idx >= u.u_extent then begin
               product := 0.0;
               raise Exit
             end;
             off := (!off * u.u_extent) + idx
           done;
           product := !product *. fdata.(!off)
         done
       with Exit -> ());
      acc := !acc +. !product
    done;
    data.(flat) <- !acc
  in
  let body lo hi =
    let pos = Array.make (max 1 n_dims) 0 in
    for flat = lo to hi - 1 do
      element pos flat
    done
  in
  let seq () =
    let pos = Array.make (max 1 n_dims) 0 in
    for flat = 0 to total - 1 do
      if flat land poll_mask = 0 then poll ();
      element pos flat
    done
  in
  run_flat ?cancel ~work:(total * (dom + 1)) ~n:total body seq;
  ({ dims = sym.ss_new_dims; data = tensor }, others)

(* --- Static access structure ------------------------------------------ *)

(* A faithful dims-only mirror of the factor bookkeeping [forward]
   performs, for the static bounds verifier: which expressions index
   which windows at each stage, without allocating any tensor. *)

type access = {
  acc_expr : Ast.t;
  acc_lo : int;
  acc_extent : int;
  acc_values : (int * int) option;
}

let initial_dims op lookup =
  List.map2
    (fun e s -> { expr = e; extent = Size.eval s lookup; lo = 0 })
    op.Graph.op_input_exprs op.Graph.op_input_shape
  :: List.map
       (fun grp ->
         List.map
           (fun it -> { expr = Ast.iter it; extent = Size.eval it.Ast.dom lookup; lo = 0 })
           grp)
       op.Graph.op_weights

(* The value range of an affected dim's accesses is positional: the
   dense residual window (every position of the materialized tensor is
   enumerated) shifted by [c * r] over the reduction — exactly what the
   executor's [(pos + lo) + c*r] produces.  Unaffected dims of
   participating factors carry [u_coef = 0] and a slot over their own
   window, so the same formula covers them. *)
let stage_sym_accesses sym =
  List.concat_map
    (fun fuses ->
      List.map
        (fun u ->
          let vlo, vhi =
            if u.u_slot >= 0 then
              ( sym.ss_lows.(u.u_slot),
                sym.ss_lows.(u.u_slot) + sym.ss_extents.(u.u_slot) - 1 )
            else (u.u_base, u.u_base)
          in
          let step = u.u_coef * (sym.ss_dom - 1) in
          {
            acc_expr = u.u_expr;
            acc_lo = u.u_lo;
            acc_extent = u.u_extent;
            acc_values = Some (vlo + min 0 step, vhi + max 0 step);
          })
        (Array.to_list fuses))
    (Array.to_list sym.ss_uses)

(* The per-stage symbolic plans, folded over the evolving factor dim
   lists (new tensor first, then the untouched factors in order —
   exactly the factor-list evolution of [forward]), plus the final
   contraction's iteration/access structure. *)
let symbolic_plan t =
  let lookup = Valuation.lookup t.valuation in
  let syms_rev, dims_list =
    List.fold_left
      (fun (acc, dims_list) stage ->
        let it = stage.Staging.reduced in
        let dom = Size.eval it.Ast.dom lookup in
        let sym = stage_sym lookup it dom dims_list in
        let arr = Array.of_list dims_list in
        let dims_list' =
          sym.ss_new_dims :: List.map (fun i -> arr.(i)) (Array.to_list sym.ss_others)
        in
        (sym :: acc, dims_list'))
      ([], initial_dims t.op lookup)
      t.plan.Staging.stages
  in
  let reduced_ids =
    List.map (fun s -> s.Staging.reduced.Ast.id) t.plan.Staging.stages
  in
  let remaining =
    List.filter (fun it -> not (List.mem it.Ast.id reduced_ids)) t.op.Graph.op_reductions
  in
  let spatial = t.op.Graph.op_output_iters in
  let n_env =
    1
    + List.fold_left max (-1)
        (List.map (fun it -> it.Ast.id) (spatial @ t.op.Graph.op_reductions))
  in
  let final =
    {
      fs_out_ids = Array.of_list (List.map (fun it -> it.Ast.id) spatial);
      fs_out_doms =
        Array.of_list (List.map (fun it -> Size.eval it.Ast.dom lookup) spatial);
      fs_red_ids = Array.of_list (List.map (fun it -> it.Ast.id) remaining);
      fs_red_doms =
        Array.of_list (List.map (fun it -> Size.eval it.Ast.dom lookup) remaining);
      fs_env_size = max 1 n_env;
      fs_factors =
        Array.of_list
          (List.map
             (fun dims ->
               Array.of_list (List.map (fun d -> (d.expr, d.lo, d.extent)) dims))
             dims_list);
    }
  in
  (List.rev syms_rev, final)

let access_plan t =
  let syms, final = symbolic_plan t in
  (* Final stage: every remaining factor dim is indexed by evaluating
     its expression over the output / remaining-reduction loops. *)
  let final_accesses =
    List.concat_map
      (fun dims ->
        List.map
          (fun (expr, lo, extent) ->
            { acc_expr = expr; acc_lo = lo; acc_extent = extent; acc_values = None })
          (Array.to_list dims))
      (Array.to_list final.fs_factors)
  in
  List.map stage_sym_accesses syms @ [ final_accesses ]

let initial_factors t ~input ~weights =
  let lookup = Valuation.lookup t.valuation in
  let input_factor =
    {
      dims =
        List.map2
          (fun e s -> { expr = e; extent = Size.eval s lookup; lo = 0 })
          t.op.Graph.op_input_exprs t.op.Graph.op_input_shape;
      data = input;
    }
  in
  let weight_factors =
    List.map2
      (fun grp w ->
        {
          dims =
            List.map
              (fun it -> { expr = Ast.iter it; extent = Size.eval it.Ast.dom lookup; lo = 0 })
              grp;
          data = w;
        })
      t.op.Graph.op_weights weights
  in
  input_factor :: weight_factors

let forward ?cancel t ~input ~weights =
  if Tensor.shape input <> Reference.input_shape t.reference then
    invalid_arg "Staged_exec.forward: input shape";
  let poll =
    match cancel with
    | None -> fun () -> ()
    | Some c -> fun () -> Robust.Cancel.check c
  in
  let lookup = Valuation.lookup t.valuation in
  let syms, _final = symbolic_plan t in
  (* Early stages in plan order; each stage boundary is a safe point. *)
  let factors =
    List.fold_left
      (fun factors sym ->
        poll ();
        let t', others = materialize ~poll ?cancel sym factors in
        t' :: others)
      (initial_factors t ~input ~weights)
      syms
  in
  (* Final stage: loop over outputs and the remaining reductions. *)
  let reduced_ids =
    List.map (fun s -> s.Staging.reduced.Ast.id) t.plan.Staging.stages
  in
  let remaining =
    List.filter (fun it -> not (List.mem it.Ast.id reduced_ids)) t.op.Graph.op_reductions
  in
  let out_shape = Reference.output_shape t.reference in
  let out = Tensor.create out_shape in
  let out_data = Tensor.unsafe_data out in
  let spatial = t.op.Graph.op_output_iters in
  let n_env =
    1
    + List.fold_left max (-1)
        (List.map (fun it -> it.Ast.id) (spatial @ t.op.Graph.op_reductions))
  in
  (* Pre-compile factor accesses. *)
  let compiled_factors =
    List.map
      (fun f ->
        let fdata = Tensor.unsafe_data f.data in
        let accessors =
          List.map
            (fun d ->
              let eval = Loopnest.compile_expr lookup d.expr in
              (eval, d.lo, d.extent))
            f.dims
        in
        fun env ->
          let off = ref 0 in
          let ok = ref true in
          (try
             List.iter
               (fun (eval, lo, extent) ->
                 let idx = eval env - lo in
                 if idx < 0 || idx >= extent then begin
                   ok := false;
                   raise Exit
                 end;
                 off := (!off * extent) + idx)
               accessors
           with Exit -> ());
          if !ok then fdata.(!off) else 0.0)
      factors
  in
  let out_dims = Array.of_list (List.map (fun it -> Size.eval it.Ast.dom lookup) spatial) in
  let spatial_ids = Array.of_list (List.map (fun it -> it.Ast.id) spatial) in
  let red_dims = Array.of_list (List.map (fun it -> Size.eval it.Ast.dom lookup) remaining) in
  let red_ids = Array.of_list (List.map (fun it -> it.Ast.id) remaining) in
  let out_total = Array.fold_left ( * ) 1 out_dims in
  let red_total = Array.fold_left ( * ) 1 red_dims in
  let element env flat_out =
    let rem = ref flat_out in
    for i = Array.length out_dims - 1 downto 0 do
      env.(spatial_ids.(i)) <- !rem mod out_dims.(i);
      rem := !rem / out_dims.(i)
    done;
    let acc = ref 0.0 in
    for flat_red = 0 to red_total - 1 do
      let rem = ref flat_red in
      for i = Array.length red_dims - 1 downto 0 do
        env.(red_ids.(i)) <- !rem mod red_dims.(i);
        rem := !rem / red_dims.(i)
      done;
      let product = ref 1.0 in
      List.iter (fun access -> product := !product *. access env) compiled_factors;
      acc := !acc +. !product
    done;
    out_data.(flat_out) <- !acc
  in
  let body lo hi =
    let env = Array.make (max 1 n_env) 0 in
    for flat_out = lo to hi - 1 do
      element env flat_out
    done
  in
  let seq () =
    let env = Array.make (max 1 n_env) 0 in
    for flat_out = 0 to out_total - 1 do
      if flat_out land poll_mask = 0 then poll ();
      element env flat_out
    done
  in
  run_flat ?cancel ~work:(out_total * (red_total + 1)) ~n:out_total body seq;
  out
