(* Tests for pGraph construction, completion, and canonicalization. *)

module Var = Shape.Var
module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Simplify = Coord.Simplify
module Prim = Pgraph.Prim
module Graph = Pgraph.Graph
module Canon = Pgraph.Canon

let n = Var.primary "N"
let c_in = Var.primary "C_in"
let c_out = Var.primary "C_out"
let h = Var.primary "H"
let w = Var.primary "W"
let m = Var.primary "M"
let nn = Var.primary "Nd"
let kk = Var.primary "K"
let k = Var.coefficient "k"
let s = Var.coefficient "s"

let sz = Size.of_var

let conv_valuation =
  Valuation.of_list
    [ (n, 2); (c_in, 8); (c_out, 16); (h, 16); (w, 16); (m, 8); (nn, 8); (kk, 8); (k, 3); (s, 2) ]

let ctx = Simplify.ctx ~approx_factor:None [ conv_valuation ]
let cfg = Canon.default_config ctx

let ok_or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* The matmul of Table 2: out[i:M, j:N] += in[i, r] * w[r, j]. *)
let build_matmul () =
  let g = Graph.init [ sz m; sz nn ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz kk))) in
  let g = ok_or_fail (Graph.apply g (Prim.Share (2, Prim.New_group))) in
  let g = ok_or_fail (Graph.apply g (Prim.Match 1)) in
  ok_or_fail (Graph.complete g ~desired:[ sz m; sz kk ])

let test_matmul () =
  let op = build_matmul () in
  Alcotest.(check int) "one weight group" 1 (List.length op.Graph.op_weights);
  Alcotest.(check int) "weight rank 2" 2 (List.length (List.hd op.Graph.op_weights));
  Alcotest.(check int) "two input dims" 2 (List.length op.Graph.op_input_exprs);
  Alcotest.(check int) "one reduction" 1 (List.length op.Graph.op_reductions)

(* Average pooling of Table 2: out[i] += in[s*i + r_s]. *)
let build_avgpool () =
  let out_h = Size.mul (Size.var_pow s (-1)) (sz h) in
  let g = Graph.init [ out_h ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz s))) in
  let g = ok_or_fail (Graph.apply g (Prim.Split (0, 1))) in
  ok_or_fail (Graph.complete g ~desired:[ sz h ])

let test_avgpool () =
  let op = build_avgpool () in
  Alcotest.(check int) "no weights" 0 (List.length op.Graph.op_weights);
  let e = List.hd op.Graph.op_input_exprs in
  (* s*i + r *)
  let lookup = Valuation.lookup conv_valuation in
  let v = Ast.eval ~env:(fun id -> if id = 0 then 3 else 1) ~lookup e in
  Alcotest.(check int) "s*3+1" 7 v

(* The full conv2d of Fig. 2 in canonical order. *)
let conv_trace =
  [
    Prim.Reduce (sz c_in);
    (* frontier: N C_out H W r_Ci *)
    Prim.Reduce (sz k);
    Prim.Reduce (sz k);
    (* frontier: N C_out H W r_Ci r_KH r_KW *)
    Prim.Share (4, Prim.New_group);
    Prim.Share (5, Prim.Current_group);
    Prim.Unfold (2, 5);
    (* H window; frontier: N C_out H' W r_Ci r_KW *)
    Prim.Share (5, Prim.Current_group);
    Prim.Unfold (3, 5);
    (* frontier: N C_out H' W' r_Ci *)
    Prim.Match 1;
    (* C_out to the weight *)
  ]

let build_conv () =
  let g = Graph.init [ sz n; sz c_out; sz h; sz w ] in
  let g = ok_or_fail (Graph.apply_all g conv_trace) in
  ok_or_fail (Graph.complete g ~desired:[ sz n; sz c_in; sz h; sz w ])

let test_conv () =
  let op = build_conv () in
  Alcotest.(check int) "weight groups" 1 (List.length op.Graph.op_weights);
  Alcotest.(check int) "weight rank 4" 4 (List.length (List.hd op.Graph.op_weights));
  Alcotest.(check int) "three reductions" 3 (List.length op.Graph.op_reductions);
  (* Input H expression is i_H + r_KH - k/2. *)
  let lookup = Valuation.lookup conv_valuation in
  let e_h = List.nth op.Graph.op_input_exprs 2 in
  let env id = match id with 2 -> 5 | 5 -> 2 | _ -> 0 in
  Alcotest.(check int) "unfold centering" 6 (Ast.eval ~env ~lookup e_h)

let test_conv_is_canonical () =
  Alcotest.(check bool) "conv trace canonical" true
    (Canon.trace_is_canonical cfg [ sz n; sz c_out; sz h; sz w ] conv_trace)

(* --- Structural error cases ------------------------------------------- *)

let test_merge_requires_divisibility () =
  let g = Graph.init [ sz h ] in
  (match Graph.apply g (Prim.Merge (0, sz c_in)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "merge by non-divisor must fail");
  match Graph.apply g (Prim.Merge (0, sz s)) with
  | Ok g' ->
      Alcotest.(check int) "two dims after merge" 2 (List.length (Graph.frontier g'))
  | Error msg -> Alcotest.failf "merge by s should work: %s" msg

let test_share_requires_bare_iter () =
  let g = Graph.init [ sz h ] in
  let g = ok_or_fail (Graph.apply g (Prim.Merge (0, sz s))) in
  match Graph.apply g (Prim.Share (0, Prim.New_group)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Share of a compound expression must fail"

let test_match_needs_group () =
  let g = Graph.init [ sz m; sz nn ] in
  match Graph.apply g (Prim.Match 1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "Match without a weight group must fail"

let test_pending_stride () =
  let g = Graph.init [ sz h ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz k))) in
  let g = ok_or_fail (Graph.apply g (Prim.Stride (1, sz s))) in
  (* The strided dim may not be merged... *)
  (match Graph.apply g (Prim.Merge (1, sz s)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "view on a pending-stride dim must fail");
  (* ... but may be an Unfold window (dilated convolution). *)
  let g = ok_or_fail (Graph.apply g (Prim.Unfold (0, 1))) in
  Alcotest.(check int) "window folded" 1 (List.length (Graph.frontier g))

let test_incomplete_rejected () =
  let g = Graph.init [ sz m; sz nn ] in
  match Graph.complete g ~desired:[ sz m; sz kk ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mismatched shape must not complete"

let test_unused_spatial_rejected () =
  (* Expanding away an output dim without other use replicates data;
     matching then forgets i entirely. *)
  let g = Graph.init [ sz m; sz m ] in
  let g = ok_or_fail (Graph.apply g (Prim.Expand 1)) in
  match Graph.complete g ~desired:[ sz m ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unused output iterator must be rejected"

let test_futile_reduce_rejected () =
  (* A reduction iterator that ends up in exactly one weight group and
     nowhere else only scales the result. *)
  let g = Graph.init [ sz m ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz kk))) in
  let g = ok_or_fail (Graph.apply g (Prim.Share (0, Prim.New_group))) in
  let g = ok_or_fail (Graph.apply g (Prim.Match 1)) in
  (match Graph.complete g ~desired:[ sz m ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "futile reduction must be rejected");
  (* The canonicalizer already rejects the stranding Match up front. *)
  let g2 = Graph.init [ sz m ] in
  let g2 = ok_or_fail (Graph.apply g2 (Prim.Reduce (sz kk))) in
  let g2 = ok_or_fail (Graph.apply g2 (Prim.Share (0, Prim.New_group))) in
  Alcotest.(check bool) "canon rejects stranding Match" false
    (Canon.is_canonical cfg g2 (Prim.Match 1))

(* --- Canonicalization --------------------------------------------------- *)

let test_merge_above_split_uncanonical () =
  (* Fig. 3(a): Split then Merge(B*C) is not canonical. *)
  let a = Var.primary "A" in
  let b = Var.coefficient "b" in
  let c = Var.coefficient "c" in
  let v = Valuation.of_list [ (a, 4); (b, 6); (c, 2) ] in
  let cfg = Canon.default_config (Simplify.ctx ~approx_factor:None [ v ]) in
  let g = Graph.init [ Size.mul (sz a) (sz b); sz c ] in
  let g = ok_or_fail (Graph.apply g (Prim.Split (0, 1))) in
  Alcotest.(check bool) "Merge above Split rejected" false
    (Canon.is_canonical cfg g (Prim.Merge (0, Size.mul (sz b) (sz c))))

let test_split_above_merge_uncanonical () =
  (* Merge then Split of the same pieces is the identity. *)
  let g = Graph.init [ Size.mul (sz h) (sz s) ] in
  let g = ok_or_fail (Graph.apply g (Prim.Merge (0, sz s))) in
  Alcotest.(check bool) "Split above Merge rejected" false
    (Canon.is_canonical cfg g (Prim.Split (0, 1)))

let test_expand_of_reduce_uncanonical () =
  let g = Graph.init [ sz m ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz kk))) in
  Alcotest.(check bool) "Expand of Reduce rejected" false
    (Canon.is_canonical cfg g (Prim.Expand 1))

let test_ordering_views_before_contractions () =
  (* A view on an untouched dim after an independent Reduce is not
     canonical: it should have been applied before. *)
  let g = Graph.init [ sz h; sz w ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz k))) in
  Alcotest.(check bool) "late independent Merge rejected" false
    (Canon.is_canonical cfg g (Prim.Merge (0, sz s)));
  (* But a view involving the Reduce-created dim is fine. *)
  Alcotest.(check bool) "Unfold of the reduce dim accepted" true
    (Canon.is_canonical cfg g (Prim.Unfold (0, 2)))

let test_budgets () =
  let g = Graph.init [ sz h; sz w; sz m ] in
  let g = ok_or_fail (Graph.apply g (Prim.Expand 0)) in
  Alcotest.(check bool) "second Expand rejected" false
    (Canon.is_canonical cfg g (Prim.Expand 0))

let test_reduce_one_rejected () =
  let g = Graph.init [ sz h ] in
  Alcotest.(check bool) "Reduce(1) rejected" false
    (Canon.is_canonical cfg g (Prim.Reduce Size.one))

let test_unfold_window_size () =
  (* A window larger than the main dim is rejected. *)
  let g = Graph.init [ sz s ] in
  (* dom 2 *)
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz h))) in
  Alcotest.(check bool) "oversized window rejected" false
    (Canon.is_canonical cfg g (Prim.Unfold (0, 1)))

(* --- Shape distance ------------------------------------------------------ *)

let dist = Pgraph.Distance.create ()

let test_distance_zero_when_matched () =
  Alcotest.(check (option int))
    "identical" (Some 0)
    (Pgraph.Distance.distance dist ~current:[ sz m; sz kk ] ~desired:[ sz m; sz kk ]);
  Alcotest.(check (option int))
    "permutation is free" (Some 0)
    (Pgraph.Distance.distance dist ~current:[ sz kk; sz m ] ~desired:[ sz m; sz kk ])

let test_distance_paper_example () =
  (* §7.1: [C_in, s^-1*H, s*W, k] vs [C_in, H, W] has distance 3. *)
  let current =
    [ sz c_in; Size.mul (Size.var_pow s (-1)) (sz h); Size.mul (sz s) (sz w); sz k ]
  in
  Alcotest.(check (option int))
    "paper example" (Some 3)
    (Pgraph.Distance.distance dist ~current ~desired:[ sz c_in; sz h; sz w ])

let test_distance_regroup () =
  (* [H*W] vs [H, W]: a single Merge. *)
  Alcotest.(check (option int))
    "one merge" (Some 1)
    (Pgraph.Distance.distance dist ~current:[ Size.mul (sz h) (sz w) ] ~desired:[ sz h; sz w ]);
  (* [H, W] vs [H*W]: a single Split. *)
  Alcotest.(check (option int))
    "one split" (Some 1)
    (Pgraph.Distance.distance dist ~current:[ sz h; sz w ] ~desired:[ Size.mul (sz h) (sz w) ])

let test_distance_window_elimination () =
  (* [H, k] vs [H]: one Unfold. *)
  Alcotest.(check (option int))
    "unfold needed" (Some 1)
    (Pgraph.Distance.distance dist ~current:[ sz h; sz k ] ~desired:[ sz h ])

let test_distance_unreachable () =
  (* A desired dim with no counterpart needs a Reduce to introduce the
     missing variable: one step. *)
  Alcotest.(check (option int))
    "reduce introduces missing variable" (Some 1)
    (Pgraph.Distance.distance dist ~current:[ sz h ] ~desired:[ sz h; sz c_in ]);
  (* ... but a primary variable cannot be manufactured into an existing
     group's product. *)
  Alcotest.(check (option int))
    "cannot regroup into missing primary" None
    (Pgraph.Distance.distance dist ~current:[ sz h ] ~desired:[ Size.mul (sz h) (sz c_in) ])

let test_distance_conv_prefix () =
  (* Partial conv pGraph states must stay within a small distance. *)
  let g = Graph.init [ sz n; sz c_out; sz h; sz w ] in
  let g = ok_or_fail (Graph.apply g (Prim.Reduce (sz c_in))) in
  let d =
    Pgraph.Distance.distance dist ~current:(Graph.frontier_sizes g)
      ~desired:[ sz n; sz c_in; sz h; sz w ]
  in
  match d with
  | Some d -> Alcotest.(check bool) "reachable and small" true (d <= 2)
  | None -> Alcotest.fail "conv prefix must be reachable"

(* --- Shape distance against the list-based oracle -------------------------- *)

(* The list-of-lists enumeration [Distance] used before its bitmask
   rewrite, kept as the oracle: the rewrite must return the same
   [int option] for every input, including the first-[max_schemes]
   minimum of a capped call, and its memo must keep the result of the
   first order of dims seen. *)
module Oracle = struct
  type side =
    | Current
    | Desired

  let div_exact a b =
    match Size.div a b with
    | Some q when not (Size.has_negative_exponent q) -> Some q
    | Some _ | None -> None

  let multiset_equal a b =
    List.length a = List.length b
    &&
    let sa = List.sort Size.compare a and sb = List.sort Size.compare b in
    List.for_all2 Size.equal sa sb

  let group_cost lhs rhs =
    if multiset_equal lhs rhs then Some 0
    else
      match (lhs, rhs) with
      | [], _ :: _ -> Some (List.length rhs)
      | [], [] -> Some 0
      | _ :: _, _ -> (
          match div_exact (Size.product lhs) (Size.product rhs) with
          | None -> None
          | Some ratio ->
              let elim = if Size.is_one ratio then 0 else 1 in
              let reshapes =
                match rhs with
                | [] -> max 0 (List.length lhs - 1)
                | _ :: _ -> max 0 (List.length lhs + List.length rhs - 2)
              in
              Some (max reshapes elim))

  let primary_vars size = List.filter Var.is_primary (Size.vars size)

  let units_of dims =
    let with_primary, coeff_only =
      List.partition (fun (_, s) -> primary_vars s <> []) dims
    in
    let parent = Hashtbl.create 16 in
    let rec find v =
      match Hashtbl.find_opt parent v with
      | None -> v
      | Some p ->
          let root = find p in
          if root <> p then Hashtbl.replace parent v root;
          root
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    List.iter
      (fun (_, s) ->
        match List.map Var.name (primary_vars s) with
        | [] -> ()
        | first :: rest -> List.iter (union first) rest)
      with_primary;
    let buckets = Hashtbl.create 16 in
    List.iter
      (fun ((_, s) as dim) ->
        let root = find (Var.name (List.hd (primary_vars s))) in
        let existing = try Hashtbl.find buckets root with Not_found -> [] in
        Hashtbl.replace buckets root (dim :: existing))
      with_primary;
    let units = Hashtbl.fold (fun _ dims acc -> dims :: acc) buckets [] in
    (units, coeff_only)

  let rec partitions items =
    match items with
    | [] -> [ [] ]
    | x :: rest ->
        List.concat_map
          (fun parts ->
            let joined =
              List.mapi
                (fun i _ -> List.mapi (fun j b -> if i = j then x :: b else b) parts)
                parts
            in
            ([ x ] :: parts) :: joined)
          (partitions rest)

  let rec attachments coeff_dims blocks =
    match coeff_dims with
    | [] -> [ blocks ]
    | ((side, _) as dim) :: rest ->
        let with_join =
          List.concat_map
            (fun blocks' ->
              List.mapi
                (fun i _ -> List.mapi (fun j b -> if i = j then dim :: b else b) blocks')
                blocks')
            (attachments rest blocks)
        in
        let with_own =
          match side with
          | Current -> List.map (fun blocks' -> [ dim ] :: blocks') (attachments rest blocks)
          | Desired -> []
        in
        with_own @ with_join

  let max_schemes = 20_000

  let schemes ~current ~desired =
    let dims =
      List.map (fun s -> (Current, s)) current @ List.map (fun s -> (Desired, s)) desired
    in
    let units, coeff_only = units_of dims in
    List.concat_map
      (fun unit_part -> attachments coeff_only (List.map List.concat unit_part))
      (partitions units)

  let scheme_cost blocks =
    List.fold_left
      (fun acc block ->
        match acc with
        | None -> None
        | Some acc ->
            let side_sizes side =
              List.filter_map (fun (sd, s) -> if sd = side then Some s else None) block
            in
            Option.map (fun c -> acc + c) (group_cost (side_sizes Current) (side_sizes Desired)))
      (Some 0) blocks

  (* Minimum over the first [cap] schemes. *)
  let min_cost ?(cap = max_schemes) ~current ~desired () =
    if multiset_equal current desired then Some 0
    else
      List.fold_left
        (fun best (i, blocks) ->
          if i >= cap then best
          else
            match (scheme_cost blocks, best) with
            | None, _ -> best
            | Some c, Some b when b <= c -> best
            | Some c, (Some _ | None) -> Some c)
        None
        (List.mapi (fun i b -> (i, b)) (schemes ~current ~desired))

  let raw_distance ~current ~desired = min_cost ~current ~desired ()

  let create () : (string, int option) Hashtbl.t = Hashtbl.create 1024

  let distance t ~current ~desired =
    let part dims = String.concat ";" (List.map Size.to_string (List.sort Size.compare dims)) in
    let k = part current ^ "|" ^ part desired in
    match Hashtbl.find_opt t k with
    | Some d -> d
    | None ->
        let d = raw_distance ~current ~desired in
        Hashtbl.add t k d;
        d
end

let pp_sizes dims = "[" ^ String.concat ", " (List.map Size.to_string dims) ^ "]"

(* One input checked three ways: a fresh calculator against the
   oracle's enumeration of this order, and two long-lived memos in
   lockstep. *)
let agrees ~memo ~oracle ~current ~desired =
  let expect = Oracle.raw_distance ~current ~desired in
  let fresh = Pgraph.Distance.distance (Pgraph.Distance.create ()) ~current ~desired in
  let memoized = Pgraph.Distance.distance memo ~current ~desired in
  let oracle_memoized = Oracle.distance oracle ~current ~desired in
  let show = Option.fold ~none:"None" ~some:string_of_int in
  if fresh <> expect || memoized <> oracle_memoized then
    QCheck.Test.fail_reportf "current %s desired %s: distance %s, oracle %s; memoized %s and %s"
      (pp_sizes current) (pp_sizes desired) (show fresh) (show expect) (show memoized)
      (show oracle_memoized);
  true

(* The space of [syno search] over the convolution: [N, C_out, H, W] ->
   [N, C_in, H, W], max_prims 8, coefficients k/s/g and the five
   reduce candidates. *)
let search_space =
  lazy
    (let open Syno.Zoo.Vars in
     let base =
       Search.Enumerate.default_config ~output_shape:[ sz n; sz c_out; sz h; sz w ]
         ~desired_shape:[ sz n; sz c_in; sz h; sz w ]
         ~valuations:Syno.Api.default_search_valuations ()
     in
     {
       base with
       Search.Enumerate.max_prims = 8;
       coefficient_candidates = [ sz k; sz s; sz g ];
       reduce_candidates =
         Size.
           [
             sz c_in;
             mul (var_pow g (-1)) (sz c_in);
             mul (var_pow g (-1)) (mul (var_pow s (-1)) (sz c_out));
             mul (var_pow s (-1)) (sz c_out);
             sz k;
           ];
       frozen_sizes = [ sz n ];
     })

(* (a) Every successor frontier along one guided synthesis path. *)
let test_distance_oracle_paths =
  QCheck.Test.make ~name:"distance = oracle along guided synthesis paths" ~count:12
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = Lazy.force search_space in
      let desired = cfg.Search.Enumerate.desired_shape in
      let memo = Pgraph.Distance.create () and oracle = Oracle.create () in
      let rng = Nd.Rng.create ~seed in
      let rec walk depth g =
        if depth < cfg.Search.Enumerate.max_prims then
          let options =
            List.filter_map
              (fun (prim, g') ->
                let current = Graph.frontier_sizes g' in
                ignore (agrees ~memo ~oracle ~current ~desired);
                match Oracle.distance oracle ~current ~desired with
                | Some d when d <= cfg.Search.Enumerate.max_prims - depth - 1 -> Some (prim, g', d)
                | Some _ | None -> None)
              (Search.Enumerate.children cfg g)
          in
          match options with
          | [] -> ()
          | _ -> walk (depth + 1) (Search.Enumerate.pick_guided rng options)
      in
      walk 0 (Graph.init cfg.Search.Enumerate.output_shape);
      true)

(* (b) Random multisets over the zoo variables, up to 8 current dims
   (as many as 5 units and 4 coefficient-only dims), and permutations
   of each. *)
let zoo_dims =
  let open Syno.Zoo.Vars in
  let per v = Size.var_pow v (-1) in
  Size.
    [|
      sz n; sz c_in; sz c_out; sz h; sz w;
      mul (per s) (sz h); mul (sz s) (sz w); mul (sz h) (sz w); mul (per g) (sz c_in);
      mul (per g) (mul (per s) (sz c_out)); mul (sz k) (sz c_in); mul (sz g) (sz c_out);
      sz k; sz s; sz g; mul (sz k) (sz s); mul (per g) (sz k); var_pow k 2;
    |]

let gen_distance_input =
  let open QCheck.Gen in
  let dim = map (fun i -> zoo_dims.(i)) (int_bound (Array.length zoo_dims - 1)) in
  let* current = list_size (int_range 1 8) dim in
  let* desired = list_size (int_range 1 4) dim in
  let* perms =
    list_repeat 3 (pair (shuffle_l current) (shuffle_l desired))
  in
  return (current, desired, perms)

let arb_distance_input =
  QCheck.make
    ~print:(fun (c, d, _) -> Printf.sprintf "current %s desired %s" (pp_sizes c) (pp_sizes d))
    gen_distance_input

let test_distance_oracle_multisets =
  let memo = Pgraph.Distance.create () and oracle = Oracle.create () in
  QCheck.Test.make ~name:"distance = oracle on random multisets and permutations" ~count:150
    arb_distance_input (fun (current, desired, perms) ->
      List.for_all
        (fun (current, desired) -> agrees ~memo ~oracle ~current ~desired)
        ((current, desired) :: perms))

(* (c) Inputs with more than [max_schemes] schemes.  Only the first
   [max_schemes] in enumeration order are costed, so a capped result can
   exceed the true minimum, or be [None] although a feasible scheme
   exists: (current, desired, #schemes, true minimum, capped result). *)
let capped_inputs =
  let open Syno.Zoo.Vars in
  let per v = Size.var_pow v (-1) in
  let k2 = Size.var_pow k 2 in
  Size.
    [
      ( [
          mul (sz w) (sz s); k2; k2; k2; sz k; mul (per s) (sz h);
          mul (per g) (mul (per s) (sz c_out)); sz n;
        ],
        [ k2; mul (per s) (sz h); sz w; mul (per g) (sz k) ],
        37_152, Some 5, Some 6 );
      ( [ mul (sz w) (sz s); sz k; sz c_out; sz s; sz k; mul (per g) (sz k); sz g; sz g ],
        [ k2; mul (sz w) (sz s); mul (sz k) (sz s); sz g ],
        26_981, Some 6, None );
      (* The schemes are the set partitions of the 9 dims.  Only the
         coarsenings of {4,5} {0,1,3,7} {2,6,8} (dims by position) are
         feasible, and that partition, the unique best, is the
         20 000th scheme: the last one the cap lets through. *)
      (let p = Var.coefficient "p" and q = Var.coefficient "q" and r = Var.coefficient "r" in
       ( [ var_pow q (-3); of_var q; var_pow r (-2); of_var q; var_pow p (-1); of_var p;
           of_var r; of_var q; of_var r ],
         [],
         21_147, Some 6, Some 6 ));
    ]

let test_distance_oracle_capped () =
  List.iter
    (fun (current, desired, schemes, uncapped, capped) ->
      let name = pp_sizes current ^ " -> " ^ pp_sizes desired in
      Alcotest.(check int) (name ^ ": schemes") schemes
        (List.length (Oracle.schemes ~current ~desired));
      Alcotest.(check (option int))
        (name ^ ": true minimum") uncapped
        (Oracle.min_cost ~cap:max_int ~current ~desired ());
      Alcotest.(check (option int))
        (name ^ ": oracle") capped (Oracle.raw_distance ~current ~desired);
      Alcotest.(check (option int))
        (name ^ ": distance") capped
        (Pgraph.Distance.distance (Pgraph.Distance.create ()) ~current ~desired))
    capped_inputs

(* The memo is keyed by multisets: a capped call keeps the result of
   the first order seen, and a key never mixes up the two sides. *)
let test_distance_memo_keys () =
  let memo = Pgraph.Distance.create () in
  let current, desired, _, _, capped = List.hd capped_inputs in
  let reversed = List.rev current in
  Alcotest.(check (option int)) "reversed order, fresh" None
    (Pgraph.Distance.distance (Pgraph.Distance.create ()) ~current:reversed ~desired);
  Alcotest.(check (option int)) "first order" capped
    (Pgraph.Distance.distance memo ~current ~desired);
  Alcotest.(check (option int)) "reversed order, memoized" capped
    (Pgraph.Distance.distance memo ~current:reversed ~desired);
  Alcotest.(check (option int)) "[H, H] -> [H]" (Some 1)
    (Pgraph.Distance.distance memo ~current:[ sz h; sz h ] ~desired:[ sz h ]);
  Alcotest.(check (option int)) "[H] -> [H, H]" None
    (Pgraph.Distance.distance memo ~current:[ sz h ] ~desired:[ sz h; sz h ])

(* --- Canonicalizer oracle ------------------------------------------------- *)

(* The canonicalizer as it was before typed rejection reasons and
   per-state staging: every rule reads the graph afresh and every
   rejection formats its message.  [Canon.check] and [Canon.successors]
   must accept exactly the actions it accepts, with equal successors,
   and [Canon.reason_to_string] must print its messages.  It calls
   [List.nth] before [Graph.apply] checks positions, so it is only fed
   in-range actions. *)
module Canon_oracle = struct
  let ( let* ) r f = Result.bind r f
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt

  let size_le ctx a b =
    match Simplify.valuations ctx with
    | [] -> false
    | vs ->
        List.for_all
          (fun v ->
            match (Valuation.size_opt v a, Valuation.size_opt v b) with
            | Some x, Some y -> x <= y
            | _, _ -> false)
          vs

  let check_budgets (cfg : Canon.config) g prim =
    let over kind limit name =
      if Graph.counts g ~kind + 1 > limit then fail "%s budget exceeded" name else Ok ()
    in
    match Prim.kind prim with
    | Prim.K_expand -> over Prim.K_expand cfg.Canon.max_expand "Expand"
    | Prim.K_stride -> over Prim.K_stride cfg.Canon.max_stride "Stride"
    | Prim.K_shift -> over Prim.K_shift cfg.Canon.max_shift "Shift"
    | Prim.K_reduce -> over Prim.K_reduce cfg.Canon.max_reduce "Reduce"
    | Prim.K_split | Prim.K_merge | Prim.K_unfold | Prim.K_share | Prim.K_match -> Ok ()

  let dim_has_reduction (d : Graph.dim) =
    List.exists (fun it -> it.Ast.role = Ast.Reduction) (Ast.iters d.Graph.expr)

  let check_contraction_rules (cfg : Canon.config) g prim =
    let dim p = List.nth (Graph.frontier g) p in
    match prim with
    | Prim.Expand p ->
        if (dim p).Graph.origin = Some Prim.K_reduce then
          fail "Expand of a Reduce dim only scales the result"
        else if dim_has_reduction (dim p) then fail "Expand of a reduced coordinate"
        else Ok ()
    | Prim.Unfold (p, w) ->
        if dim_has_reduction (dim p) && dim_has_reduction (dim w) then
          fail "Unfold allows at most one reduced coordinate"
        else if not (size_le cfg.Canon.simplify_ctx (dim w).Graph.size (dim p).Graph.size) then
          fail "Unfold window exceeds the main dimension"
        else Ok ()
    | Prim.Reduce n -> if Size.is_constant n && Size.constant n = 1 then fail "Reduce(1)" else Ok ()
    | Prim.Match p -> (
        let d = dim p in
        match d.Graph.expr with
        | Ast.Iter it when it.Ast.role = Ast.Reduction ->
            let in_groups =
              List.length
                (List.filter (List.exists (fun j -> j.Ast.id = it.Ast.id)) (Graph.weights g))
            in
            let elsewhere_in_frontier =
              List.exists
                (fun (d' : Graph.dim) ->
                  d' != d && List.exists (fun j -> j.Ast.id = it.Ast.id) (Ast.iters d'.Graph.expr))
                (Graph.frontier g)
            in
            if in_groups >= 1 || elsewhere_in_frontier then Ok ()
            else fail "Match would strand a reduction iterator in one weight group"
        | Ast.Iter _ -> Ok ()
        | Ast.Const _ | Ast.Size_const _ | Ast.Add _ | Ast.Sub _ | Ast.Mul _ | Ast.Div _
        | Ast.Mod _ ->
            Ok ())
    | Prim.Split _ | Prim.Merge _ | Prim.Shift _ | Prim.Stride _ | Prim.Share _ -> Ok ()

  let check_expr_normal_form (cfg : Canon.config) g g' prim =
    if not (Prim.is_view (Prim.kind prim)) then Ok ()
    else
      let before = Graph.frontier g and after = Graph.frontier g' in
      let fresh = List.filter (fun (d : Graph.dim) -> not (List.memq d before)) after in
      let bad (d : Graph.dim) =
        let simplified = Simplify.simplify cfg.Canon.simplify_ctx d.Graph.expr in
        if not (Ast.equal simplified d.Graph.expr) then
          Some
            (Format.asprintf "%a is not in normal form (= %a)" Ast.pp d.Graph.expr Ast.pp
               simplified)
        else None
      in
      match List.filter_map bad fresh with [] -> Ok () | msg :: _ -> Error msg

  let kind_rank = function
    | Prim.K_shift -> 0
    | Prim.K_stride -> 1
    | Prim.K_merge -> 2
    | Prim.K_split -> 3
    | Prim.K_unfold -> 4
    | Prim.K_expand -> 5
    | Prim.K_reduce -> 6
    | Prim.K_share -> 7
    | Prim.K_match -> 8

  let written_positions frontier_len = function
    | Prim.Split (p, q) -> [ min p q ]
    | Prim.Merge (p, _) -> [ p; p + 1 ]
    | Prim.Shift p | Prim.Stride (p, _) | Prim.Share (p, _) -> [ p ]
    | Prim.Unfold (p, w) -> [ (if w < p then p - 1 else p) ]
    | Prim.Expand _ | Prim.Match _ -> []
    | Prim.Reduce _ -> [ frontier_len - 1 ]

  let action_key prim =
    let pos = match Prim.positions prim with [] -> max_int | p :: _ -> p in
    (kind_rank (Prim.kind prim), pos, prim)

  let key_le (r1, p1, a1) (r2, p2, a2) =
    r1 < r2 || (r1 = r2 && (p1 < p2 || (p1 = p2 && Prim.compare a1 a2 <= 0)))

  let check_ordering g prim =
    match Graph.last_prim g with
    | None -> Ok ()
    | Some last ->
        let written = written_positions (List.length (Graph.frontier g)) last in
        let read = Prim.positions prim in
        let weight_action p =
          match Prim.kind p with
          | Prim.K_share | Prim.K_match -> true
          | Prim.K_split | Prim.K_merge | Prim.K_shift | Prim.K_unfold | Prim.K_expand
          | Prim.K_stride | Prim.K_reduce ->
              false
        in
        let commute =
          (not (List.exists (fun p -> List.mem p read) written))
          && not (weight_action last && weight_action prim)
        in
        if (not commute) || key_le (action_key last) (action_key prim) then Ok ()
        else fail "uncanonical ordering: %s then %s" (Prim.to_string last) (Prim.to_string prim)

  let check_concrete_sizes (cfg : Canon.config) g' =
    let ok size =
      match Simplify.valuations cfg.Canon.simplify_ctx with
      | [] -> true
      | vs -> List.for_all (fun v -> Valuation.size_opt v size <> None) vs
    in
    if List.for_all (fun (d : Graph.dim) -> ok d.Graph.size) (Graph.frontier g') then Ok ()
    else fail "a dimension size is not integral under some valuation"

  let check (cfg : Canon.config) g prim =
    let* () = check_budgets cfg g prim in
    let* () = check_contraction_rules cfg g prim in
    let* () = check_ordering g prim in
    let* g' = Graph.apply g prim in
    if List.length (Graph.frontier g') > cfg.Canon.max_frontier then fail "frontier too wide"
    else
      let* () = check_concrete_sizes cfg g' in
      let* () = check_expr_normal_form cfg g g' prim in
      Ok g'
end

(* Every candidate action on [g] gets the oracle's verdict from
   [Canon.check] (message included), and [Canon.successors] returns the
   oracle's accepted list.  Returns the accepted list. *)
let canon_agrees (cfg : Search.Enumerate.config) g =
  let failf fmt = Printf.ksprintf failwith fmt in
  let ccfg = cfg.Search.Enumerate.canon in
  let actions = Search.Enumerate.candidate_actions cfg g in
  let expect =
    List.filter_map
      (fun prim ->
        let oracle = Canon_oracle.check ccfg g prim in
        (match (oracle, Canon.check ccfg g prim) with
        | Ok g1, Ok g2 when g1 = g2 -> ()
        | Ok _, Ok _ -> failf "%s: successors differ" (Prim.to_string prim)
        | Error m1, Error r when m1 = Canon.reason_to_string r -> ()
        | Error m1, Error r ->
            failf "%s: message %S, oracle %S" (Prim.to_string prim)
              (Canon.reason_to_string r) m1
        | Ok _, Error r ->
            failf "%s: rejected (%s), oracle accepts" (Prim.to_string prim)
              (Canon.reason_to_string r)
        | Error m1, Ok _ ->
            failf "%s: accepted, oracle rejects (%s)" (Prim.to_string prim) m1);
        Result.to_option (Result.map (fun g' -> (prim, g')) oracle))
      actions
  in
  let got = Canon.successors ccfg g actions in
  if got <> expect then
    failf "successors: %d accepted, oracle %d (or a different order)"
      (List.length got) (List.length expect);
  got

let test_canon_oracle_paths =
  QCheck.Test.make ~name:"canon = oracle along guided synthesis paths" ~count:10
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let cfg = Lazy.force search_space in
      let desired = cfg.Search.Enumerate.desired_shape in
      let dist = Pgraph.Distance.create () in
      let rng = Nd.Rng.create ~seed in
      let rec walk depth g =
        let accepted = canon_agrees cfg g in
        if depth < cfg.Search.Enumerate.max_prims then
          let options =
            List.filter_map
              (fun (prim, g') ->
                match Pgraph.Distance.distance dist ~current:(Graph.frontier_sizes g') ~desired with
                | Some d when d <= cfg.Search.Enumerate.max_prims - depth - 1 -> Some (prim, g', d)
                | Some _ | None -> None)
              accepted
          in
          match options with
          | [] -> ()
          | _ -> walk (depth + 1) (Search.Enumerate.pick_guided rng options)
      in
      walk 0 (Graph.init cfg.Search.Enumerate.output_shape);
      true)

(* A parent whose frontier holds k/g (3/2 under the search valuations):
   a successor that keeps the dim is rejected, and [Expand] of it is
   accepted, by both. *)
let test_canon_oracle_non_integral_parent () =
  let cfg = Lazy.force search_space in
  let open Syno.Zoo.Vars in
  let bad = Size.mul (sz k) (Size.var_pow g (-1)) in
  let g0 = Graph.init [ sz n; bad; sz h; sz w ] in
  let accepted = canon_agrees cfg g0 in
  Alcotest.(check bool) "Expand of the non-integral dim accepted" true
    (List.mem_assoc (Prim.Expand 1) accepted);
  Alcotest.(check bool) "Shift of another dim rejected" false
    (List.mem_assoc (Prim.Shift 2) accepted);
  (* One step further: the staged verdicts carry over to a state that
     still holds the dim. *)
  let g1 = Graph.apply_exn g0 (Prim.Reduce (sz k)) in
  ignore (canon_agrees cfg g1)

(* Positions outside the frontier are a typed rejection, never an
   exception, whichever rule reads them first. *)
let test_canon_out_of_range () =
  let cfg = Lazy.force search_space in
  let root = Graph.init cfg.Search.Enumerate.output_shape in
  List.iter
    (fun prim ->
      match Canon.check cfg.Search.Enumerate.canon root prim with
      | Error Canon.Position_out_of_range -> ()
      | Error r -> Alcotest.failf "%s: %s" (Prim.to_string prim) (Canon.reason_to_string r)
      | Ok _ -> Alcotest.failf "%s accepted" (Prim.to_string prim))
    Prim.
      [
        Expand 9; Unfold (9, 1); Unfold (1, 9); Match 9; Expand (-1); Split (9, 1); Shift 9;
      ];
  Alcotest.(check int) "successors skip them" 0
    (List.length (Canon.successors cfg.Search.Enumerate.canon root Prim.[ Expand 9; Match 9 ]))

(* --- FLOPs ---------------------------------------------------------------- *)

let test_flops_matmul () =
  let op = build_matmul () in
  (* M=8, N=8, K=8: 2*M*N*K = 1024 *)
  Alcotest.(check int) "matmul flops" 1024 (Pgraph.Flops.naive_flops op conv_valuation);
  Alcotest.(check int) "matmul params" 64 (Pgraph.Flops.params op conv_valuation);
  Alcotest.(check int) "in elems" 64 (Pgraph.Flops.input_elems op conv_valuation);
  Alcotest.(check int) "out elems" 64 (Pgraph.Flops.output_elems op conv_valuation)

let test_flops_conv () =
  let op = build_conv () in
  (* 2 * (N*C_out*H*W) * (C_in*k*k) *)
  let expected = 2 * (2 * 16 * 16 * 16) * (8 * 3 * 3) in
  Alcotest.(check int) "conv flops" expected (Pgraph.Flops.naive_flops op conv_valuation);
  Alcotest.(check int) "conv params" (16 * 8 * 3 * 3) (Pgraph.Flops.params op conv_valuation)

let test_budgets_flops () =
  let op = build_matmul () in
  Alcotest.(check bool) "within" true
    (Pgraph.Flops.within_budgets ~max_flops:2000 op [ conv_valuation ]);
  Alcotest.(check bool) "exceeded" false
    (Pgraph.Flops.within_budgets ~max_flops:1000 op [ conv_valuation ])

let () =
  Alcotest.run "pgraph"
    [
      ( "operators",
        [
          Alcotest.test_case "matmul" `Quick test_matmul;
          Alcotest.test_case "avgpool" `Quick test_avgpool;
          Alcotest.test_case "conv2d" `Quick test_conv;
          Alcotest.test_case "conv canonical" `Quick test_conv_is_canonical;
        ] );
      ( "structure",
        [
          Alcotest.test_case "merge divisibility" `Quick test_merge_requires_divisibility;
          Alcotest.test_case "share bare iter" `Quick test_share_requires_bare_iter;
          Alcotest.test_case "match needs group" `Quick test_match_needs_group;
          Alcotest.test_case "pending stride" `Quick test_pending_stride;
          Alcotest.test_case "incomplete rejected" `Quick test_incomplete_rejected;
          Alcotest.test_case "unused spatial" `Quick test_unused_spatial_rejected;
          Alcotest.test_case "futile reduce" `Quick test_futile_reduce_rejected;
        ] );
      ( "canon",
        [
          Alcotest.test_case "merge above split" `Quick test_merge_above_split_uncanonical;
          Alcotest.test_case "split above merge" `Quick test_split_above_merge_uncanonical;
          Alcotest.test_case "expand of reduce" `Quick test_expand_of_reduce_uncanonical;
          Alcotest.test_case "ordering" `Quick test_ordering_views_before_contractions;
          Alcotest.test_case "budgets" `Quick test_budgets;
          Alcotest.test_case "reduce(1)" `Quick test_reduce_one_rejected;
          Alcotest.test_case "unfold window size" `Quick test_unfold_window_size;
          Alcotest.test_case "out-of-range positions" `Quick test_canon_out_of_range;
          QCheck_alcotest.to_alcotest test_canon_oracle_paths;
          Alcotest.test_case "oracle, non-integral parent" `Quick
            test_canon_oracle_non_integral_parent;
        ] );
      ( "distance",
        [
          Alcotest.test_case "zero when matched" `Quick test_distance_zero_when_matched;
          Alcotest.test_case "paper example" `Quick test_distance_paper_example;
          Alcotest.test_case "regroup" `Quick test_distance_regroup;
          Alcotest.test_case "window elimination" `Quick test_distance_window_elimination;
          Alcotest.test_case "unreachable" `Quick test_distance_unreachable;
          Alcotest.test_case "conv prefix" `Quick test_distance_conv_prefix;
          QCheck_alcotest.to_alcotest test_distance_oracle_paths;
          QCheck_alcotest.to_alcotest test_distance_oracle_multisets;
          Alcotest.test_case "capped = oracle" `Quick test_distance_oracle_capped;
          Alcotest.test_case "memo keys" `Quick test_distance_memo_keys;
        ] );
      ( "flops",
        [
          Alcotest.test_case "matmul" `Quick test_flops_matmul;
          Alcotest.test_case "conv" `Quick test_flops_conv;
          Alcotest.test_case "budgets" `Quick test_budgets_flops;
        ] );
    ]
