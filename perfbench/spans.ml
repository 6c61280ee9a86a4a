type span = {
  id : int;
  name : string;
  parent : int option;
  request : int option;
  start : float;
  stop : float;
}

type t = {
  clock : unit -> float;
  mutable rev : span list;
  mutable next : int;
  mutable open_ : int list;
}

let create ?(clock = Unix.gettimeofday) () = { clock; rev = []; next = 0; open_ = [] }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let with_span t ?request name f =
  let id = fresh t in
  let parent = match t.open_ with p :: _ -> Some p | [] -> None in
  t.open_ <- id :: t.open_;
  let start = t.clock () in
  Fun.protect
    ~finally:(fun () ->
      let stop = t.clock () in
      t.open_ <- List.tl t.open_;
      t.rev <- { id; name; parent; request; start; stop } :: t.rev)
    f

let spans t = List.sort (fun a b -> compare a.id b.id) t.rev

type total = { calls : int; total_s : float; self_s : float }

(* Children nest inside their parent, so a span's self time is its
   duration minus the sum of its children's. *)
let totals t =
  let all = spans t in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace children p
            (s.stop -. s.start +. Option.value (Hashtbl.find_opt children p) ~default:0.0))
        s.parent)
    all;
  let table = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev =
        Option.value (Hashtbl.find_opt table s.name)
          ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }
      in
      let d = s.stop -. s.start in
      Hashtbl.replace table s.name
        {
          calls = prev.calls + 1;
          total_s = prev.total_s +. d;
          self_s = prev.self_s +. d -. Option.value (Hashtbl.find_opt children s.id) ~default:0.0;
        })
    all;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [] |> List.sort compare

let total totals name =
  Option.value (List.assoc_opt name totals) ~default:{ calls = 0; total_s = 0.0; self_s = 0.0 }

let write_chrome t path =
  let all = spans t in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity all in
  let event s =
    let args =
      List.filter_map Fun.id
        [
          Some ("id", Json.Int s.id);
          Option.map (fun p -> ("parent", Json.Int p)) s.parent;
          Option.map (fun r -> ("request", Json.Int r)) s.request;
        ]
    in
    Json.Obj
      [
        ("name", Json.String s.name);
        ("ph", Json.String "X");
        ("pid", Json.Int 1);
        ("tid", Json.Int (match s.request with Some _ -> 2 | None -> 1));
        ("ts", Json.Float ((s.start -. t0) *. 1e6));
        ("dur", Json.Float ((s.stop -. s.start) *. 1e6));
        ("args", Json.Obj args);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.List (List.map event all)) ]));
      output_char oc '\n')
