module Tensor = Nd.Tensor
module Staged = Staged_exec

(* A partition certificate piece: an axis-aligned sub-box of one loop
   nest's enumerable position space ([pc_lo]/[pc_hi] inclusive, one
   entry per positional axis), plus the set of accesses that may clip
   inside it.  An interior piece carries an empty clip set and indexes
   unchecked; a border piece clips exactly the listed accesses and
   nothing else. *)
type piece = {
  pc_lo : int array;
  pc_hi : int array;
  pc_interior : bool;
  pc_clips : int list;
}

type partition = piece list
type plan = partition array

type fault = Overlap_strip | Duplicate_strip | Spurious_clip | Cover_gap

let fault_to_string = function
  | Overlap_strip -> "overlap-strip"
  | Duplicate_strip -> "duplicate-strip"
  | Spurious_clip -> "spurious-clip"
  | Cover_gap -> "cover-gap"

let piece_volume p =
  let v = ref 1 in
  Array.iteri (fun i lo -> v := !v * (p.pc_hi.(i) - lo + 1)) p.pc_lo;
  !v

(* --- Compiled form -------------------------------------------------------- *)

(* Row-major strides for a dims array. *)
let strides_of extents =
  let n = Array.length extents in
  let s = Array.make n 1 in
  for i = n - 2 downto 0 do
    s.(i) <- s.(i + 1) * extents.(i + 1)
  done;
  s

(* One certified piece compiled onto the loop-nest engine: the piece's
   box as the leading (output) levels, the nest's reductions after it.
   The certificate's may-clip accesses are the only window-tested dims;
   the engine turns them into clipped innermost ranges. *)
type run = { nest : Loopnest.t; work : int }

type stage_meta = {
  sm_total : int;  (* cells of the materialized tensor *)
  sm_participating : int array;
  sm_others : int array;
  sm_runs : run array;
}

type t = {
  sp_staged : Staged.t;
  sp_plan : plan;
  sp_in_shape : int array;
  sp_weight_shapes : int array list;
  sp_out_shape : int array;
  sp_stages : stage_meta array;
  sp_final : run array;
}

let staged t = t.sp_staged
let plan t = t.sp_plan

let guarded_fallback t =
  Array.exists (fun r -> Loopnest.guarded r.nest) t.sp_final
  || Array.exists (fun m -> Array.exists (fun r -> Loopnest.guarded r.nest) m.sm_runs) t.sp_stages

(* Translate a piece's flat clip set into per-(factor, use) check
   flags, given the per-factor use counts. *)
let checks_of_clips counts clips =
  let flags = Array.map (fun n -> Array.make n false) counts in
  List.iter
    (fun idx ->
      let rec place f idx =
        if f < Array.length counts then
          if idx < counts.(f) then flags.(f).(idx) <- true else place (f + 1) (idx - counts.(f))
      in
      place 0 idx)
    clips;
  flags

let validate_partition ~what ~axes pieces =
  List.iter
    (fun p ->
      if Array.length p.pc_lo <> Array.length axes || Array.length p.pc_hi <> Array.length axes
      then invalid_arg (Printf.sprintf "Specialize.compile: %s: piece rank mismatch" what);
      Array.iteri
        (fun i lo ->
          if lo < 0 || p.pc_hi.(i) >= axes.(i) || lo > p.pc_hi.(i) then
            invalid_arg (Printf.sprintf "Specialize.compile: %s: piece out of box" what))
        p.pc_lo)
    pieces

(* Compile every piece of one nest: [box_ids] name the partitioned
   axes, [reductions] are the (id, extent) levels inside them, and
   [factors] holds, per factor and dim, the engine dim without its
   check flag, which each piece sets from its clip set. *)
let compile_runs ~box_ids ~axes ~reductions ~factors pieces =
  let counts = Array.map Array.length factors in
  let red_extent = Array.fold_left (fun a (_, e) -> a * e) 1 reductions in
  List.map
    (fun p ->
      let box =
        Array.mapi
          (fun i id -> { Loopnest.id; start = p.pc_lo.(i); extent = p.pc_hi.(i) - p.pc_lo.(i) + 1 })
          box_ids
      in
      let levels =
        Array.append box
          (Array.map (fun (id, extent) -> { Loopnest.id; start = 0; extent }) reductions)
      in
      let checks = checks_of_clips counts p.pc_clips in
      let accesses =
        Array.mapi
          (fun fi dims -> Array.mapi (fun j d -> { d with Loopnest.clip = checks.(fi).(j) }) dims)
          factors
      in
      {
        nest =
          Loopnest.compile ~levels ~n_out:(Array.length box) ~out_strides:(strides_of axes) accesses;
        work = piece_volume p * (red_extent + 1);
      })
    pieces
  |> Array.of_list

let compile staged plan =
  let syms, fsym = Staged.symbolic_plan staged in
  let n_nests = List.length syms + 1 in
  if Array.length plan <> n_nests then
    invalid_arg
      (Printf.sprintf "Specialize.compile: plan has %d partitions, executor has %d nests"
         (Array.length plan) n_nests);
  let lookup = Shape.Valuation.lookup (Staged.valuation staged) in
  let stage_metas =
    List.mapi
      (fun k sym ->
        let pieces = plan.(k) in
        let axes = sym.Staged.ss_extents in
        validate_partition ~what:(Printf.sprintf "stage %d" k) ~axes pieces;
        let n_axes = Array.length axes in
        (* A use's value is [pos.(slot) + lows.(slot)] (or [u_base]) plus
           [u_coef * r]: affine over the box axes and the reduction. *)
        let use (u : Staged.use) =
          let coefs = Array.make (n_axes + 1) 0 in
          if u.Staged.u_slot >= 0 then coefs.(u.Staged.u_slot) <- 1;
          coefs.(n_axes) <- u.Staged.u_coef;
          let const =
            if u.Staged.u_slot >= 0 then sym.Staged.ss_lows.(u.Staged.u_slot) else u.Staged.u_base
          in
          {
            Loopnest.index = Loopnest.Affine { const; coefs };
            lo = u.Staged.u_lo;
            extent = u.Staged.u_extent;
            clip = false;
          }
        in
        {
          sm_total = Array.fold_left ( * ) 1 axes;
          sm_participating = sym.Staged.ss_participating;
          sm_others = sym.Staged.ss_others;
          sm_runs =
            compile_runs ~box_ids:(Array.init n_axes Fun.id) ~axes
              ~reductions:[| (n_axes, sym.Staged.ss_dom) |]
              ~factors:(Array.map (Array.map use) sym.Staged.ss_uses)
              pieces;
        })
      syms
  in
  let fpieces = plan.(n_nests - 1) in
  let axes = fsym.Staged.fs_out_doms in
  validate_partition ~what:"final" ~axes fpieces;
  (* The decomposition depends only on which iterator each level is,
     so it is done once for all pieces. *)
  let order =
    Array.map
      (fun id -> { Loopnest.id; start = 0; extent = 1 })
      (Array.append fsym.Staged.fs_out_ids fsym.Staged.fs_red_ids)
  in
  let dim (expr, lo, extent) =
    { Loopnest.index = Loopnest.index_of_expr ~lookup order expr; lo; extent; clip = false }
  in
  let reference = Staged.reference staged in
  {
    sp_staged = staged;
    sp_plan = plan;
    sp_in_shape = Reference.input_shape reference;
    sp_weight_shapes = Reference.weight_shapes reference;
    sp_out_shape = Reference.output_shape reference;
    sp_stages = Array.of_list stage_metas;
    sp_final =
      compile_runs ~box_ids:fsym.Staged.fs_out_ids ~axes
        ~reductions:(Array.map2 (fun id e -> (id, e)) fsym.Staged.fs_red_ids fsym.Staged.fs_red_doms)
        ~factors:(Array.map (Array.map dim) fsym.Staged.fs_factors)
        fpieces;
  }

(* --- Execution ------------------------------------------------------------ *)

let poll_mask = Staged.poll_mask
let par_threshold = Staged.par_threshold

(* Run every piece of one nest into [out].  A clipped point's product
   is exactly [0.0] in the interpreter and adding it leaves the
   accumulator (which starts at [+0.0]) unchanged, so the engine's
   skipping them computes the same bits.  Pieces poll [cancel] at their
   boundary and every [poll_mask + 1] units; large ones run their units
   on the default pool, each unit written by exactly one claim. *)
let run_pieces ~poll ?cancel runs ~factors ~out =
  Array.iter
    (fun r ->
      poll ();
      let units = Loopnest.units r.nest in
      let run from upto = Loopnest.contract r.nest ~factors ~out ~from ~upto in
      let pool = Par.Pool.get_default () in
      if r.work >= par_threshold && Par.Pool.size pool > 1 && units > 1 then
        Par.Pool.parallel_for pool ?cancel ~n:units run
      else begin
        let from = ref 0 in
        while !from < units do
          poll ();
          let upto = min units (!from + poll_mask + 1) in
          run !from upto;
          from := upto
        done
      end)
    runs

(* The interpreter's factor-list evolution on raw data: each stage's
   tensor, followed by the factors it did not touch, in order. *)
let forward ?cancel t ~input ~weights =
  if Tensor.shape input <> t.sp_in_shape then invalid_arg "Specialize.forward: input shape";
  if
    List.length weights <> List.length t.sp_weight_shapes
    || not (List.for_all2 (fun w sh -> Tensor.shape w = sh) weights t.sp_weight_shapes)
  then invalid_arg "Specialize.forward: weight shapes";
  let poll =
    match cancel with
    | None -> fun () -> ()
    | Some c -> fun () -> Robust.Cancel.check c
  in
  let factors =
    Array.fold_left
      (fun factors meta ->
        poll ();
        let out = Array.make meta.sm_total 0.0 in
        run_pieces ~poll ?cancel meta.sm_runs
          ~factors:(Array.map (fun i -> factors.(i)) meta.sm_participating)
          ~out;
        Array.append [| out |] (Array.map (fun i -> factors.(i)) meta.sm_others))
      (Array.of_list (List.map Tensor.unsafe_data (input :: weights)))
      t.sp_stages
  in
  let out = Tensor.create t.sp_out_shape in
  run_pieces ~poll ?cancel t.sp_final ~factors ~out:(Tensor.unsafe_data out);
  out

(* --- Seeded plan corruption ----------------------------------------------- *)

let nest_access_counts staged =
  let syms, fsym = Staged.symbolic_plan staged in
  Array.of_list
    (List.map
       (fun s -> Array.fold_left (fun n u -> n + Array.length u) 0 s.Staged.ss_uses)
       syms
    @ [ Array.fold_left (fun n d -> n + Array.length d) 0 fsym.Staged.fs_factors ])

(* Apply [fault] to the first nest that can host it.  Every fault except
   [Cover_gap] is execution-invisible by construction: the corrupted
   plan computes bit-identical outputs (overlapping and duplicated
   pieces recompute the same values into the same cells; a spurious
   clip adds a guard that can never fire) — only {!Analysis.Certify}
   can tell it from a sound plan. *)
let corrupt fault staged plan =
  let plan = Array.map (fun pieces -> pieces) plan in
  let replace nest pieces = plan.(nest) <- pieces in
  let find f =
    let rec go nest = if nest >= Array.length plan then None else
      match f nest plan.(nest) with Some pieces -> Some (nest, pieces) | None -> go (nest + 1)
    in
    go 0
  in
  let splittable pieces =
    List.find_opt
      (fun p -> Array.exists (fun i -> p.pc_hi.(i) - p.pc_lo.(i) >= 1) (Array.init (Array.length p.pc_lo) (fun i -> i)))
      pieces
  in
  let applied =
    match fault with
    | Overlap_strip ->
        (* Split a piece into two halves that both contain the middle
           plane: the overlap cells are computed twice, identically. *)
        find (fun _ pieces ->
            match splittable pieces with
            | None -> None
            | Some p ->
                let a =
                  let rec go i = if p.pc_hi.(i) - p.pc_lo.(i) >= 1 then i else go (i + 1) in
                  go 0
                in
                let mid = (p.pc_lo.(a) + p.pc_hi.(a)) / 2 in
                let lo_half = { p with pc_hi = Array.mapi (fun i v -> if i = a then mid else v) p.pc_hi } in
                let hi_half = { p with pc_lo = Array.mapi (fun i v -> if i = a then mid else v) p.pc_lo } in
                Some
                  (List.concat_map
                     (fun q -> if q == p then [ lo_half; hi_half ] else [ q ])
                     pieces))
    | Duplicate_strip ->
        find (fun _ pieces ->
            match
              List.find_opt (fun p -> not p.pc_interior) pieces
              |> fun b -> (match b with Some _ -> b | None -> (match pieces with p :: _ -> Some p | [] -> None))
            with
            | None -> None
            | Some p -> Some (pieces @ [ p ]))
    | Spurious_clip ->
        let counts = nest_access_counts staged in
        find (fun nest pieces ->
            if counts.(nest) = 0 then None
            else
              let rec pick = function
                | [] -> None
                | p :: rest -> (
                    let unlisted =
                      let rec go i =
                        if i >= counts.(nest) then None
                        else if List.mem i p.pc_clips then go (i + 1)
                        else Some i
                      in
                      go 0
                    in
                    match unlisted with
                    | None -> pick rest
                    | Some idx ->
                        Some
                          (List.map
                             (fun q ->
                               if q == p then
                                 { q with pc_interior = false; pc_clips = q.pc_clips @ [ idx ] }
                               else q)
                             pieces))
              in
              pick pieces)
    | Cover_gap ->
        find (fun _ pieces ->
            match splittable pieces with
            | Some p ->
                let a =
                  let rec go i = if p.pc_hi.(i) - p.pc_lo.(i) >= 1 then i else go (i + 1) in
                  go 0
                in
                Some
                  (List.map
                     (fun q ->
                       if q == p then
                         { q with pc_hi = Array.mapi (fun i v -> if i = a then v - 1 else v) p.pc_hi }
                       else q)
                     pieces)
            | None -> ( match pieces with _ :: (_ :: _ as rest) -> Some rest | _ -> None))
  in
  match applied with
  | None -> None
  | Some (nest, pieces) ->
      replace nest pieces;
      Some plan
