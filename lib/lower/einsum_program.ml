module Size = Shape.Size
module Valuation = Shape.Valuation
module Ast = Coord.Ast
module Graph = Pgraph.Graph
module Tensor = Nd.Tensor

type t = {
  gather : input:Tensor.t -> Tensor.t;  (* the reference's loop nest, one cell per point *)
  op : Graph.operator;
  gather_shape : int array;
  spec : string;
  plan : Nd.Einsum.plan Lazy.t;
  weight_shapes : int array list;
}

(* Letters for iterators: spatial and reduction iterators get stable
   labels by id. *)
let letter_of_id id =
  if id < 26 then Char.chr (Char.code 'a' + id)
  else invalid_arg "Einsum_program: too many iterators"

let compile (op : Graph.operator) valuation =
  let reference = Reference.compile op valuation in
  let lookup = Valuation.lookup valuation in
  let out_shape = Reference.output_shape reference in
  let red_doms =
    List.map (fun it -> Size.eval it.Ast.dom lookup) op.Graph.op_reductions
  in
  let gather_shape = Array.append out_shape (Array.of_list red_doms) in
  let labels its = String.init (List.length its) (fun i -> letter_of_id (List.nth its i).Ast.id) in
  let g_labels = labels (op.Graph.op_output_iters @ op.Graph.op_reductions) in
  let w_labels = List.map labels op.Graph.op_weights in
  let out_labels = labels op.Graph.op_output_iters in
  let spec = String.concat "," (g_labels :: w_labels) ^ "->" ^ out_labels in
  let weight_shapes = Reference.weight_shapes reference in
  let plan =
    lazy (Nd.Einsum.plan spec (gather_shape :: weight_shapes))
  in
  { gather = Reference.gatherer reference; op; gather_shape; spec; plan; weight_shapes }

let spec t = t.spec
let gather_shape t = Array.copy t.gather_shape

let forward t ~input ~weights =
  List.iter2
    (fun w sh -> if Tensor.shape w <> sh then invalid_arg "Einsum_program: weight shape")
    weights t.weight_shapes;
  let g = t.gather ~input in
  Nd.Einsum.run (Lazy.force t.plan) (g :: weights)

(* --- Textual code generation ------------------------------------------- *)

let pp_shape ppf sizes =
  Format.fprintf ppf "[%s]" (String.concat ", " (List.map Size.to_string sizes))

let to_pytorch t =
  let op = t.op in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "def forward(self, x):\n";
  add "    # x: %s\n" (Format.asprintf "%a" pp_shape op.Graph.op_input_shape);
  add "    g = syno_gather(x, index_exprs=[%s],\n"
    (String.concat ", "
       (List.map (fun e -> Printf.sprintf "%S" (Ast.to_string e)) op.Graph.op_input_exprs));
  add "                    out_dims=%s)\n"
    (Format.asprintf "%a" pp_shape
       (op.Graph.op_output_shape @ List.map (fun it -> it.Ast.dom) op.Graph.op_reductions));
  let ws = List.mapi (fun i _ -> Printf.sprintf "self.w%d" i) op.Graph.op_weights in
  add "    return torch.einsum(%S, g%s)\n" t.spec
    (String.concat "" (List.map (fun w -> ", " ^ w) ws));
  Buffer.contents buf

let to_te t =
  let op = t.op in
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let reductions = op.Graph.op_reductions in
  if reductions <> [] then
    add "auto [%s] = RDom(%s);\n"
      (String.concat ", " (List.map (fun it -> Printf.sprintf "r%d" it.Ast.id) reductions))
      (String.concat ", "
         (List.map (fun it -> Printf.sprintf "0, %s" (Size.to_string it.Ast.dom)) reductions));
  let out_args =
    String.concat ", "
      (List.map (fun it -> Printf.sprintf "i%d" it.Ast.id) op.Graph.op_output_iters)
  in
  let in_args = String.concat ", " (List.map Ast.to_string op.Graph.op_input_exprs) in
  let weight_accesses =
    List.mapi
      (fun i grp ->
        Printf.sprintf " * w%d(%s)" i
          (String.concat ", "
             (List.map
                (fun it ->
                  Printf.sprintf "%s%d"
                    (match it.Ast.role with Ast.Spatial -> "i" | Ast.Reduction -> "r")
                    it.Ast.id)
                grp)))
      op.Graph.op_weights
  in
  add "out(%s) %s= input(%s)%s;\n" out_args
    (if reductions = [] && op.Graph.op_weights = [] then "" else "+")
    in_args
    (String.concat "" weight_accesses);
  Buffer.contents buf
