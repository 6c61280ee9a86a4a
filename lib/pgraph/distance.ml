module Size = Shape.Size
module Var = Shape.Var

type side =
  | Current
  | Desired

(* Exact divisibility without introducing denominators. *)
let div_exact a b =
  match Size.div a b with
  | Some q when not (Size.has_negative_exponent q) -> Some q
  | Some _ | None -> None

let multiset_equal a b =
  List.length a = List.length b
  &&
  let sa = List.sort Size.compare a and sb = List.sort Size.compare b in
  List.for_all2 Size.equal sa sb

(* Cost of one reshape group.  [None] = infeasible group. *)
let group_cost lhs rhs =
  if multiset_equal lhs rhs then Some 0
  else
    match (lhs, rhs) with
    (* Desired dims with no current counterpart need a Reduce to
       introduce the missing variables, then regrouping: one step for
       the Reduce plus (1 + #rhs - 2) reshapes. *)
    | [], _ :: _ -> Some (List.length rhs)
    | [], [] -> Some 0
    | _ :: _, _ -> (
        match div_exact (Size.product lhs) (Size.product rhs) with
        | None -> None
        | Some ratio ->
            (* When the group's product shrinks, at least one
               eliminating primitive (Unfold window, Expand, Match) is
               required.  A single Unfold both regroups and eliminates,
               so the two requirements overlap: the bound is their
               maximum, not their sum. *)
            let elim = if Size.is_one ratio then 0 else 1 in
            let reshapes =
              match rhs with
              | [] -> max 0 (List.length lhs - 1)
              | _ :: _ -> max 0 (List.length lhs + List.length rhs - 2)
            in
            Some (max reshapes elim))

(* --- Grouping enumeration ---------------------------------------------- *)

(* Dimensions sharing a primary variable must live in the same group;
   we union-find primary variables, turning the dims into "units", then
   enumerate set partitions of the units and attachments of the
   coefficient-only dims. *)

let primary_vars size = List.filter Var.is_primary (Size.vars size)

let units_of dims =
  (* dims : (side * Size.t) list.  Returns unit list, each a list of
     (side * Size.t), plus the coefficient-only dims.  The order of the
     units (that of [Hashtbl.fold] over [buckets]) is part of the
     scheme order, which decides capped distances. *)
  let with_primary, coeff_only =
    List.partition (fun (_, s) -> primary_vars s <> []) dims
  in
  (* Union-find over primary variable names. *)
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

(* --- Scheme enumeration over bitmasks ------------------------------------ *)

(* A call's {e items} are its units followed by its coefficient-only
   dims; a block is an int mask over item indices.  A block's cost
   depends only on the multiset of its dims ([multiset_equal],
   [Size.product] and the list lengths ignore order), so it is computed
   once per mask and call.  [costs.(m)] holds it when
   [stamps.(m) = generation] ([-1] = infeasible); bumping [generation]
   invalidates the whole table at the start of a call. *)
type blocks = {
  mutable costs : int array;
  mutable stamps : int array;
  mutable generation : int;
}

let infeasible = -1

(* Masks below [2^max_table_bits] are memoized; wider ones are costed
   on every use. *)
let max_table_bits = 16

(* Schemes come in a fixed order, and only the first [max_schemes] are
   costed, so the order decides a capped result.  The units' set
   partitions come first: the last unit is the outermost loop, and each
   unit in turn starts a new block, then joins each existing block, the
   newest first.  Then, for each partition, each coefficient-only dim
   is attached: a current dim first gets its own (elimination) block,
   over all attachments of the later dims; then every dim joins each
   block, with the attachments of the later dims as the outer loop and
   the blocks, newest first, as the inner one. *)
let max_schemes = 20_000

let raw_distance tbl ~current ~desired =
  if multiset_equal current desired then Some 0
  else
    let dims =
      List.map (fun s -> (Current, s)) current @ List.map (fun s -> (Desired, s)) desired
    in
    let units, coeff_only = units_of dims in
    let coeffs = Array.of_list coeff_only in
    let items = Array.of_list (units @ List.map (fun dim -> [ dim ]) coeff_only) in
    let n_items = Array.length items and n_units = List.length units in
    if n_items > Sys.int_size - 2 then invalid_arg "Distance: too many independent dims";
    let side_sizes side =
      Array.map (List.filter_map (fun (sd, s) -> if sd = side then Some s else None)) items
    in
    let lhs = side_sizes Current and rhs = side_sizes Desired in
    let table_size = 1 lsl min n_items max_table_bits in
    if Array.length tbl.costs < table_size then begin
      tbl.costs <- Array.make table_size 0;
      tbl.stamps <- Array.make table_size 0
    end;
    tbl.generation <- tbl.generation + 1;
    let generation = tbl.generation in
    let compute mask =
      let l = ref [] and r = ref [] in
      for i = n_items - 1 downto 0 do
        if mask land (1 lsl i) <> 0 then begin
          l := lhs.(i) @ !l;
          r := rhs.(i) @ !r
        end
      done;
      match group_cost !l !r with Some c -> c | None -> infeasible
    in
    let cost mask =
      if mask >= table_size then compute mask
      else if tbl.stamps.(mask) = generation then tbl.costs.(mask)
      else begin
        let c = compute mask in
        tbl.costs.(mask) <- c;
        tbl.stamps.(mask) <- generation;
        c
      end
    in
    (* The blocks of the scheme being built, oldest first. *)
    let stack = Array.make n_items 0 and depth = ref 0 in
    let best = ref max_int and count = ref 0 in
    (* Branch and bound: costs are >= 0, so a partial sum reaching
       [best] cannot improve it. *)
    let rec sum i acc =
      if i < 0 then best := acc
      else
        let c = cost stack.(i) in
        if c <> infeasible && acc + c < !best then sum (i - 1) (acc + c)
    in
    let exception Capped in
    let score () =
      incr count;
      if !count > max_schemes then raise Capped;
      sum (!depth - 1) 0
    in
    (* [join bit k] runs [k] once per block with [bit] added, newest
       block first; [push bit k] runs [k] with [bit] as a new block. *)
    let join bit k =
      for i = !depth - 1 downto 0 do
        let b = stack.(i) in
        stack.(i) <- b lor bit;
        k ();
        stack.(i) <- b
      done
    in
    let push bit k =
      stack.(!depth) <- bit;
      incr depth;
      k ();
      decr depth
    in
    let rec attach j k =
      if j = Array.length coeffs then k
      else
        let bit = 1 lsl (n_units + j) in
        let joined = attach (j + 1) (fun () -> join bit k) in
        match fst coeffs.(j) with
        | Current ->
            let own = attach (j + 1) (fun () -> push bit k) in
            fun () ->
              own ();
              joined ()
        | Desired -> joined
    in
    let attachments = attach 0 score in
    let rec place u =
      if u < 0 then attachments ()
      else
        let bit = 1 lsl u in
        push bit (fun () -> place (u - 1));
        join bit (fun () -> place (u - 1))
    in
    (try place (n_units - 1) with Capped -> ());
    if !best = max_int then None else Some !best

(* --- Memoization -------------------------------------------------------- *)

(* The memo key is structural: each distinct size gets a small id, and
   a call is keyed by [|#current; sorted current ids; sorted desired
   ids|].  The ids keep the key as compact as the sizes' printed form
   without printing them.  The result stored is the one computed for
   the first order of the dims seen. *)
module Sizes = Hashtbl.Make (Size)

module Memo = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = a = b
  let hash a = Array.fold_left (fun h x -> (h * 65_599) + x) 0 a
end)

type t = {
  ids : int Sizes.t;
  memo : int option Memo.t;
  blocks : blocks;
}

let create () =
  {
    ids = Sizes.create 64;
    memo = Memo.create 1024;
    blocks = { costs = [||]; stamps = [||]; generation = 0 };
  }

let key t ~current ~desired =
  let id s =
    match Sizes.find_opt t.ids s with
    | Some i -> i
    | None ->
        let i = Sizes.length t.ids in
        Sizes.add t.ids s i;
        i
  in
  let sorted_ids dims =
    let a = Array.of_list (List.map id dims) in
    Array.sort Int.compare a;
    a
  in
  Array.concat [ [| List.length current |]; sorted_ids current; sorted_ids desired ]

let distance t ~current ~desired =
  let k = key t ~current ~desired in
  match Memo.find_opt t.memo k with
  | Some d -> d
  | None ->
      let d = raw_distance t.blocks ~current ~desired in
      Memo.add t.memo k d;
      d

let within t ~current ~desired ~budget =
  match distance t ~current ~desired with Some d -> d <= budget | None -> false
