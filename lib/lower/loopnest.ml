module Size = Shape.Size
module Ast = Coord.Ast

(* Compile a coordinate expression into a closure over the iterator
   environment (an int array indexed by iterator id). *)
let rec compile_expr lookup (e : Ast.t) : int array -> int =
  match e with
  | Ast.Iter it ->
      let id = it.Ast.id in
      fun env -> env.(id)
  | Ast.Const c -> fun _ -> c
  | Ast.Size_const s ->
      let v = Size.eval s lookup in
      fun _ -> v
  | Ast.Add (a, b) ->
      let fa = compile_expr lookup a and fb = compile_expr lookup b in
      fun env -> fa env + fb env
  | Ast.Sub (a, b) ->
      let fa = compile_expr lookup a and fb = compile_expr lookup b in
      fun env -> fa env - fb env
  | Ast.Mul (s, a) ->
      let n = Size.eval s lookup in
      let fa = compile_expr lookup a in
      fun env -> n * fa env
  | Ast.Div (a, s) ->
      let n = Size.eval s lookup in
      let fa = compile_expr lookup a in
      fun env -> Ast.fdiv (fa env) n
  | Ast.Mod (a, s) ->
      let n = Size.eval s lookup in
      let fa = compile_expr lookup a in
      fun env -> Ast.emod (fa env) n

type level = { id : int; start : int; extent : int }

type index =
  | Affine of { const : int; coefs : int array }
  | Computed of { eval : int array -> int; mentions : int list; bounds : int * int }

type dim = { index : index; lo : int; extent : int; clip : bool }

(* Decompose [e] as [const + sum_l coefs.(l) * value(level l)].  An
   iterator-free [Div]/[Mod] (the [k / 2] centring constant of Unfold)
   is a constant like any other; only a [Div]/[Mod] over an iterator
   makes the expression [Computed]. *)
let index_of_expr ~lookup levels e =
  let n = Array.length levels in
  let level_of id =
    let rec find l =
      if l >= n then invalid_arg "Loopnest.index_of_expr: iterator is not a loop level"
      else if levels.(l).id = id then l
      else find (l + 1)
    in
    find 0
  in
  let rec go = function
    | Ast.Iter it ->
        let c = Array.make n 0 in
        c.(level_of it.Ast.id) <- 1;
        Some (0, c)
    | Ast.Const c -> Some (c, Array.make n 0)
    | Ast.Size_const s -> Some (Size.eval s lookup, Array.make n 0)
    | Ast.Add (a, b) -> combine ( + ) a b
    | Ast.Sub (a, b) -> combine ( - ) a b
    | Ast.Mul (s, a) ->
        let k = Size.eval s lookup in
        Option.map (fun (c, cs) -> (k * c, Array.map (( * ) k) cs)) (go a)
    | (Ast.Div _ | Ast.Mod _) as e when Ast.iters e = [] ->
        Some (Ast.eval ~env:(fun _ -> 0) ~lookup e, Array.make n 0)
    | Ast.Div _ | Ast.Mod _ -> None
  and combine op a b =
    match (go a, go b) with
    | Some (ca, xa), Some (cb, xb) -> Some (op ca cb, Array.map2 op xa xb)
    | _ -> None
  in
  match go e with
  | Some (const, coefs) -> Affine { const; coefs }
  | None ->
      Computed
        {
          eval = compile_expr lookup e;
          mentions = List.map (fun it -> level_of it.Ast.id) (Ast.iters e);
          bounds = Ast.bounds ~lookup e;
        }

(* A dim evaluated by closure: once per outer point, or per point when
   it mentions the innermost level. *)
type dyn = {
  dy_eval : int array -> int;
  dy_access : int;
  dy_lo : int;
  dy_extent : int;
  dy_stride : int;
  dy_clip : bool;
}

(* The compiled nest.  The odometer tracks [nq] integer quantities, all
   affine in the loop positions: one flat offset per access (its affine
   dims only), the output offset, then the index ([value - lo]) of each
   affine dim that may clip.  It walks the [outer] leading levels; the
   last [depth] levels form one block that the kernels walk themselves,
   row by row ([row_steps]) and point by point ([steps]).  Quantities
   are kept at block position (0, 0). *)
type t = {
  n : int;
  ids : int array;
  starts : int array;
  extents : int array;
  n_units : int;  (* leading levels that index one unit of work *)
  units : int;
  reduces : bool;  (* the innermost level is a reduction *)
  depth : int;  (* 2 when the last two levels are reductions and no closure-evaluated dim moves in them *)
  outer : int;  (* [n - depth] *)
  n_acc : int;
  nq : int;
  q_const : int array;
  q_coefs : int array;  (* level-major, [n * nq] *)
  carry : int array;  (* level-major, [outer * nq] *)
  steps : int array;
  row_steps : int array;  (* zero unless [depth = 2] *)
  chk_ext : int array;  (* extent of each checked dim, quantity [n_acc + 1 + j] *)
  outer_dyn : dyn array;
  inner_dyn : dyn array;
  affine : bool;  (* no closure-evaluated dim at all *)
  env_size : int;
}

let units t = t.units
let guarded t = Array.length t.inner_dyn > 0
let steps t = Array.sub t.steps 0 (t.n_acc + 1)
let row_steps t = Array.sub t.row_steps 0 (t.n_acc + 1)

let compile ~levels ~n_out ~out_strides accesses =
  let levels, n_out, out_strides =
    if levels = [||] then ([| { id = -1; start = 0; extent = 1 } |], 1, [| 0 |])
    else (levels, n_out, out_strides)
  in
  let n = Array.length levels in
  if n_out < 0 || n_out > n || Array.length out_strides <> n_out then
    invalid_arg "Loopnest.compile: output levels";
  let coef cs l = if l < Array.length cs then cs.(l) else 0 in
  let inner = n - 1 in
  (* Static window test over the level box: a dim whose value range
     already lies inside its window never clips, whatever [clip] says. *)
  let may_clip d =
    d.clip
    &&
    let vlo, vhi =
      match d.index with
      | Computed c -> c.bounds
      | Affine a ->
          let lo = ref a.const and hi = ref a.const in
          Array.iteri
            (fun l (lv : level) ->
              let c = coef a.coefs l in
              let x = c * lv.start and y = c * (lv.start + lv.extent - 1) in
              lo := !lo + min x y;
              hi := !hi + max x y)
            levels;
          (!lo, !hi)
    in
    vlo < d.lo || vhi > d.lo + d.extent - 1
  in
  let n_acc = Array.length accesses in
  let acc_const = Array.make n_acc 0 in
  let acc_coefs = Array.init n_acc (fun _ -> Array.make n 0) in
  let checks = ref [] and outer_dyn = ref [] and inner_dyn = ref [] and dyn_mentions = ref [] in
  Array.iteri
    (fun ai dims ->
      let stride = ref 1 in
      for j = Array.length dims - 1 downto 0 do
        let d = dims.(j) in
        let s = !stride in
        stride := s * d.extent;
        let clip = may_clip d in
        match d.index with
        | Affine a ->
            acc_const.(ai) <- acc_const.(ai) + ((a.const - d.lo) * s);
            for l = 0 to n - 1 do
              acc_coefs.(ai).(l) <- acc_coefs.(ai).(l) + (coef a.coefs l * s)
            done;
            if clip then checks := (a.const - d.lo, Array.init n (coef a.coefs), d.extent) :: !checks
        | Computed c ->
            let dy =
              { dy_eval = c.eval; dy_access = ai; dy_lo = d.lo; dy_extent = d.extent;
                dy_stride = s; dy_clip = clip }
            in
            dyn_mentions := c.mentions :: !dyn_mentions;
            if List.mem inner c.mentions then inner_dyn := dy :: !inner_dyn
            else outer_dyn := dy :: !outer_dyn
      done)
    accesses;
  let checks = Array.of_list (List.rev !checks) in
  let nq = n_acc + 1 + Array.length checks in
  let q_const = Array.make nq 0 and q_coefs = Array.make (n * nq) 0 in
  Array.blit acc_const 0 q_const 0 n_acc;
  for l = 0 to n - 1 do
    for a = 0 to n_acc - 1 do
      q_coefs.((l * nq) + a) <- acc_coefs.(a).(l)
    done;
    if l < n_out then q_coefs.((l * nq) + n_acc) <- out_strides.(l);
    Array.iteri
      (fun j (_, cs, _) -> q_coefs.((l * nq) + n_acc + 1 + j) <- cs.(l))
      checks
  done;
  Array.iteri (fun j (c, _, _) -> q_const.(n_acc + 1 + j) <- c) checks;
  let reduces = n_out < n in
  let affine = !outer_dyn = [] && !inner_dyn = [] in
  (* The block takes the last two levels when both are reductions and
     no closure-evaluated dim moves inside it. *)
  let depth =
    if
      n - n_out >= 2 && !inner_dyn = []
      && List.for_all (fun mentions -> not (List.mem (n - 2) mentions)) !dyn_mentions
    then 2
    else 1
  in
  let outer = n - depth in
  (* Advancing level [l] by one resets every odometer level below it
     from its last position to 0: one add of the net change per
     quantity. *)
  let carry = Array.make (outer * nq) 0 in
  for l = 0 to outer - 1 do
    for j = 0 to nq - 1 do
      let c = ref q_coefs.((l * nq) + j) in
      for l' = l + 1 to outer - 1 do
        c := !c - (q_coefs.((l' * nq) + j) * (levels.(l').extent - 1))
      done;
      carry.((l * nq) + j) <- !c
    done
  done;
  let n_units = if reduces then n_out else n - 1 in
  let units =
    if Array.exists (fun (lv : level) -> lv.extent <= 0) levels then 0
    else
      let u = ref 1 in
      for l = 0 to n_units - 1 do
        u := !u * levels.(l).extent
      done;
      !u
  in
  {
    n;
    ids = Array.map (fun lv -> lv.id) levels;
    starts = Array.map (fun lv -> lv.start) levels;
    extents = Array.map (fun (lv : level) -> lv.extent) levels;
    n_units;
    units;
    reduces;
    depth;
    outer;
    n_acc;
    nq;
    q_const;
    q_coefs;
    carry;
    steps = Array.sub q_coefs (inner * nq) nq;
    row_steps = (if depth = 2 then Array.sub q_coefs ((n - 2) * nq) nq else Array.make nq 0);
    chk_ext = Array.map (fun (_, _, e) -> e) checks;
    outer_dyn = Array.of_list (List.rev !outer_dyn);
    inner_dyn = Array.of_list (List.rev !inner_dyn);
    affine;
    env_size = 1 + Array.fold_left max (-1) (Array.map (fun lv -> lv.id) levels);
  }

(* Add the closure-evaluated dims in [dyns] to the access offsets in
   [offs]; [false] when one of them clips. *)
let apply_dyn dyns env offs =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length dyns do
    let d = dyns.(!i) in
    let idx = d.dy_eval env - d.dy_lo in
    if d.dy_clip && (idx < 0 || idx >= d.dy_extent) then ok := false
    else offs.(d.dy_access) <- offs.(d.dy_access) + (idx * d.dy_stride);
    incr i
  done;
  !ok

let imin (x : int) y = if x < y then x else y
let imax (x : int) y = if x > y then x else y

(* For [0 <= idx + s * t < ext] with [s <> 0]: the least [t] allowed,
   and one past the greatest (floor division throughout). *)
let[@inline] lo_bound idx s ext =
  if s = 1 then -idx
  else if s > 0 then Ast.fdiv (s - 1 - idx) s
  else Ast.fdiv (idx - ext - s) (-s)

let[@inline] hi_bound idx s ext =
  if s = 1 then ext - idx
  else if s > 0 then Ast.fdiv (ext - 1 - idx) s + 1
  else Ast.fdiv idx (-s) + 1

(* The rest of an outer point once some dim is closure-evaluated: add
   the outer ones to the offsets, then either run the block or, when a
   dim moves with the innermost iterator (the block is then one row),
   evaluate and window-test it per point. *)
let dynamic_point t q env scratch inner_scratch segment ra rb lo hi =
  let base = t.n_acc + 1 in
  Array.blit q 0 scratch 0 base;
  if apply_dyn t.outer_dyn env scratch then
    if not (guarded t) then segment scratch ra rb lo hi
    else begin
      let id = t.ids.(t.n - 1) and start = t.starts.(t.n - 1) in
      for i = lo.(0) to hi.(0) - 1 do
        env.(id) <- start + i;
        Array.blit scratch 0 inner_scratch 0 base;
        if apply_dyn t.inner_dyn env inner_scratch then begin
          lo.(0) <- i;
          hi.(0) <- i + 1;
          segment inner_scratch 0 1 lo hi
        end
      done
    end

let iter t ~from ~upto ~segment ~flush =
  let from = imax 0 from and upto = imin t.units upto in
  if from < upto then begin
    let n = t.n and nq = t.nq and outer = t.outer in
    let pos = Array.make (imax 1 outer) 0 in
    let rem = ref from in
    for l = t.n_units - 1 downto 0 do
      pos.(l) <- !rem mod t.extents.(l);
      rem := !rem / t.extents.(l)
    done;
    let q = Array.copy t.q_const in
    let env = Array.make (imax 1 t.env_size) 0 in
    for l = 0 to n - 1 do
      let v = t.starts.(l) + if l < outer then pos.(l) else 0 in
      if t.ids.(l) >= 0 then env.(t.ids.(l)) <- v;
      for j = 0 to nq - 1 do
        q.(j) <- q.(j) + (t.q_coefs.((l * nq) + j) * v)
      done
    done;
    let affine = t.affine in
    let scratch = if affine then q else Array.make nq 0 in
    let inner_scratch = if guarded t then Array.make nq 0 else q in
    let extents = t.extents and steps = t.steps and row_steps = t.row_steps in
    let carry = t.carry and chk_ext = t.chk_ext in
    let n_chk = Array.length chk_ext and base = t.n_acc + 1 in
    let e_inner = extents.(n - 1) in
    let e_rows = if t.depth = 2 then extents.(n - 2) else 1 in
    (* Per block row: the innermost range, empty when [lo >= hi]. *)
    let lo = Array.make e_rows 0 and hi = Array.make e_rows 0 in
    let remaining = ref (upto - from) in
    let ra = ref 0 and rb = ref 0 and j = ref 0 in
    while !remaining > 0 do
      (* Rows: clip against every checked dim that does not move with
         the innermost iterator. *)
      ra := 0;
      rb := e_rows;
      j := 0;
      while !j < n_chk && !ra < !rb do
        if Array.unsafe_get steps (base + !j) = 0 then begin
          let idx = Array.unsafe_get q (base + !j)
          and s = Array.unsafe_get row_steps (base + !j)
          and ext = Array.unsafe_get chk_ext !j in
          if s = 0 then (if idx < 0 || idx >= ext then rb := 0)
          else begin
            ra := imax !ra (lo_bound idx s ext);
            rb := imin !rb (hi_bound idx s ext)
          end
        end;
        incr j
      done;
      if !ra < !rb then begin
        (* Each row's innermost range from the dims that move with it. *)
        for r = !ra to !rb - 1 do
          let a = ref 0 and b = ref e_inner in
          j := 0;
          while !j < n_chk && !a < !b do
            let s = Array.unsafe_get steps (base + !j) in
            if s <> 0 then begin
              let idx =
                Array.unsafe_get q (base + !j) + (r * Array.unsafe_get row_steps (base + !j))
              and ext = Array.unsafe_get chk_ext !j in
              a := imax !a (lo_bound idx s ext);
              b := imin !b (hi_bound idx s ext)
            end;
            incr j
          done;
          Array.unsafe_set lo r !a;
          Array.unsafe_set hi r !b
        done;
        if affine then segment q !ra !rb lo hi
        else dynamic_point t q env scratch inner_scratch segment !ra !rb lo hi
      end;
      (* Advance the odometer over the outer levels. *)
      let l = ref (outer - 1) in
      while !l >= 0 && Array.unsafe_get pos !l = Array.unsafe_get extents !l - 1 do
        Array.unsafe_set pos !l 0;
        decr l
      done;
      let l = !l in
      if l < t.n_units then begin
        flush q;
        decr remaining
      end;
      if l >= 0 && !remaining > 0 then begin
        Array.unsafe_set pos l (Array.unsafe_get pos l + 1);
        let c = l * nq in
        for j = 0 to nq - 1 do
          Array.unsafe_set q j (Array.unsafe_get q j + Array.unsafe_get carry (c + j))
        done;
        if not affine then
          for l' = l to outer - 1 do
            if t.ids.(l') >= 0 then env.(t.ids.(l')) <- t.starts.(l') + pos.(l')
          done
      end
    done
  end

(* --- Contraction kernel ---------------------------------------------------- *)

(* Any factor count; [1.0 *. d0] is [d0] exactly, so the product
   matches the unrolled loops below. *)
let product (datas : float array array) (offs : int array) rsteps steps r i =
  let p = ref 1.0 in
  for f = 0 to Array.length datas - 1 do
    p :=
      !p
      *. Array.unsafe_get (Array.unsafe_get datas f)
           (Array.unsafe_get offs f
           + (r * Array.unsafe_get rsteps f)
           + (i * Array.unsafe_get steps f))
  done;
  !p

(* Each block adds its products, formed in factor order, row by row
   and point by point, to the current output's accumulator, which is
   written when the output is complete: the additions an interpreter
   visiting the same points would make, in the same order, so the
   result is bit-identical. *)
let contract t ~factors ~out ~from ~upto =
  let nf = Array.length factors in
  if nf <> t.n_acc then invalid_arg "Loopnest.contract: factor count";
  let st = t.steps and rs = t.row_steps in
  if t.reduces then begin
    let acc = Array.make 1 0.0 in
    let segment =
      match factors with
      | [| d0 |] ->
          let s0 = st.(0) and r0 = rs.(0) in
          fun q ra rb lo hi ->
            let sum = ref (Array.unsafe_get acc 0) in
            for r = ra to rb - 1 do
              let a = Array.unsafe_get lo r in
              let o0 = ref (q.(0) + (r * r0) + (a * s0)) in
              for _ = a to Array.unsafe_get hi r - 1 do
                sum := !sum +. Array.unsafe_get d0 !o0;
                o0 := !o0 + s0
              done
            done;
            Array.unsafe_set acc 0 !sum
      | [| d0; d1 |] ->
          let s0 = st.(0) and s1 = st.(1) and r0 = rs.(0) and r1 = rs.(1) in
          fun q ra rb lo hi ->
            let sum = ref (Array.unsafe_get acc 0) in
            for r = ra to rb - 1 do
              let a = Array.unsafe_get lo r in
              let o0 = ref (q.(0) + (r * r0) + (a * s0))
              and o1 = ref (q.(1) + (r * r1) + (a * s1)) in
              for _ = a to Array.unsafe_get hi r - 1 do
                sum := !sum +. (Array.unsafe_get d0 !o0 *. Array.unsafe_get d1 !o1);
                o0 := !o0 + s0;
                o1 := !o1 + s1
              done
            done;
            Array.unsafe_set acc 0 !sum
      | [| d0; d1; d2 |] ->
          let s0 = st.(0) and s1 = st.(1) and s2 = st.(2) in
          let r0 = rs.(0) and r1 = rs.(1) and r2 = rs.(2) in
          fun q ra rb lo hi ->
            let sum = ref (Array.unsafe_get acc 0) in
            for r = ra to rb - 1 do
              let a = Array.unsafe_get lo r in
              let o0 = ref (q.(0) + (r * r0) + (a * s0))
              and o1 = ref (q.(1) + (r * r1) + (a * s1))
              and o2 = ref (q.(2) + (r * r2) + (a * s2)) in
              for _ = a to Array.unsafe_get hi r - 1 do
                sum :=
                  !sum
                  +. Array.unsafe_get d0 !o0 *. Array.unsafe_get d1 !o1
                     *. Array.unsafe_get d2 !o2;
                o0 := !o0 + s0;
                o1 := !o1 + s1;
                o2 := !o2 + s2
              done
            done;
            Array.unsafe_set acc 0 !sum
      | _ ->
          fun q ra rb lo hi ->
            let sum = ref (Array.unsafe_get acc 0) in
            for r = ra to rb - 1 do
              for i = lo.(r) to hi.(r) - 1 do
                sum := !sum +. product factors q rs st r i
              done
            done;
            Array.unsafe_set acc 0 !sum
    in
    iter t ~from ~upto ~segment ~flush:(fun q ->
        out.(q.(nf)) <- Array.unsafe_get acc 0;
        Array.unsafe_set acc 0 0.0)
  end
  else
    (* No reduction: every point is its own output element, written as
       the one-term sum [0.0 +. product]. *)
    let os = st.(nf) in
    iter t ~from ~upto
      ~segment:(fun q ra rb lo hi ->
        for r = ra to rb - 1 do
          for i = lo.(r) to hi.(r) - 1 do
            out.(q.(nf) + (i * os)) <- 0.0 +. product factors q rs st r i
          done
        done)
      ~flush:ignore
