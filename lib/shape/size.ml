(* A size is kept in normal form: the constant is a positive integer and
   the exponent list is sorted by variable with no zero exponents.  The
   constant may carry a denominator transiently during [div]; we reject
   any result whose constant is not integral, so externally the
   constant is always a positive int. *)

type t = { const : int; pows : (Var.t * int) list }

let well_formed s =
  s.const > 0
  && List.for_all (fun (v, e) -> e <> 0 && (Var.is_coefficient v || e > 0)) s.pows

let one = { const = 1; pows = [] }

let of_int c =
  if c <= 0 then invalid_arg "Size.of_int: non-positive constant";
  { const = c; pows = [] }

let var_pow v e =
  if e = 0 then one
  else if e < 0 && Var.is_primary v then
    invalid_arg "Size.var_pow: negative power of a primary variable"
  else { const = 1; pows = [ (v, e) ] }

let of_var v = var_pow v 1

let rec merge_pows xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | (vx, ex) :: xs', (vy, ey) :: ys' -> (
      match Var.compare vx vy with
      | 0 ->
          let e = ex + ey in
          if e = 0 then merge_pows xs' ys' else (vx, e) :: merge_pows xs' ys'
      | c when c < 0 -> (vx, ex) :: merge_pows xs' ys
      | _ -> (vy, ey) :: merge_pows xs ys')

let mul a b = { const = a.const * b.const; pows = merge_pows a.pows b.pows }

let negate_pows pows = List.map (fun (v, e) -> (v, -e)) pows

let check s = if well_formed s then Some s else None

let div a b =
  if a.const mod b.const <> 0 then None
  else
    check { const = a.const / b.const; pows = merge_pows a.pows (negate_pows b.pows) }

let inv s = if s.const = 1 then check { const = 1; pows = negate_pows s.pows } else None

let rec int_pow base = function
  | 0 -> 1
  | k -> base * int_pow base (k - 1)

let pow s k =
  if k = 0 then Some one
  else if k > 0 then
    Some { const = int_pow s.const k; pows = List.map (fun (v, e) -> (v, e * k)) s.pows }
  else
    match inv s with
    | None -> None
    | Some s' -> Some { s' with pows = List.map (fun (v, e) -> (v, e * -k)) s'.pows }

let constant s = s.const
let exponent s v = try List.assoc v s.pows with Not_found -> 0
let vars s = List.map fst s.pows
let is_one s = s.const = 1 && s.pows = []
let is_constant s = s.pows = []
let has_negative_exponent s = List.exists (fun (_, e) -> e < 0) s.pows

let primary_part s =
  { const = 1; pows = List.filter (fun (v, _) -> Var.is_primary v) s.pows }

let coefficient_part s =
  { const = s.const; pows = List.filter (fun (v, _) -> Var.is_coefficient v) s.pows }

let eval_opt s valuation =
  (* Accumulate numerator and denominator separately so intermediate
     results stay integral. *)
  let num, den =
    List.fold_left
      (fun (num, den) (v, e) ->
        let base = valuation v in
        if base <= 0 then failwith "Size.eval: non-positive valuation"
        else if e > 0 then (num * int_pow base e, den)
        else (num, den * int_pow base (-e)))
      (s.const, 1) s.pows
  in
  if den <> 0 && num mod den = 0 && num / den > 0 then Some (num / den) else None

let eval s valuation =
  match eval_opt s valuation with
  | Some n -> n
  | None -> failwith "Size.eval: not a positive integer under this valuation"

let compare a b =
  match Int.compare a.const b.const with
  | 0 ->
      List.compare
        (fun (v1, e1) (v2, e2) ->
          match Var.compare v1 v2 with 0 -> Int.compare e1 e2 | c -> c)
        a.pows b.pows
  | c -> c

let equal a b = compare a b = 0
let hash s =
  List.fold_left
    (fun h (v, e) -> (((h * 65_599) + Hashtbl.hash (Var.name v)) * 31) + e)
    s.const s.pows

let pp ppf s =
  let pp_pow ppf (v, e) =
    if e = 1 then Var.pp ppf v else Format.fprintf ppf "%a^%d" Var.pp v e
  in
  match (s.const, s.pows) with
  | c, [] -> Format.pp_print_int ppf c
  | 1, pows ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '*')
        pp_pow ppf pows
  | c, pows ->
      Format.fprintf ppf "%d*%a" c
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf '*')
           pp_pow)
        pows

let to_string s = Format.asprintf "%a" pp s
let product sizes = List.fold_left mul one sizes

let rec int_gcd a b = if b = 0 then a else int_gcd b (a mod b)

let gcd a b =
  let pows =
    List.filter_map
      (fun (v, ea) ->
        let eb = exponent b v in
        let e = min ea eb in
        if e > 0 then Some (v, e) else None)
      a.pows
  in
  { const = int_gcd a.const b.const; pows }
