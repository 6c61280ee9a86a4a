let mix a b = Random.State.bits (Random.State.make [| a; b |])

let zipf_weights ~n ~s =
  let w = Array.init n (fun r -> 1.0 /. (float_of_int (r + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

let apportion weights total =
  let quotas = Array.map (fun w -> w *. float_of_int total) weights in
  let counts = Array.map truncate quotas in
  let left = total - Array.fold_left ( + ) 0 counts in
  let order = Array.init (Array.length weights) Fun.id in
  let rem i = quotas.(i) -. float_of_int counts.(i) in
  Array.stable_sort (fun a b -> compare (rem b) (rem a)) order;
  for j = 0 to left - 1 do
    counts.(order.(j)) <- counts.(order.(j)) + 1
  done;
  counts

let shuffle ~seed a =
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let arrivals ~seed ~rate ~duration =
  let st = Random.State.make [| seed |] in
  let n = int_of_float (Float.round (rate *. duration)) in
  let a = Array.init n (fun _ -> Random.State.float st duration) in
  Array.sort Float.compare a;
  a

type outcome = {
  latency : float array;
  sent_at : float array;
  late_max : float;
  missing : int;
}

let run ~now ~send ~poll ?(tick = ignore) ?(cadence = Float.infinity) ~start ~due
    ~drain_timeout () =
  let n = Array.length due in
  let sent_at = Array.make n Float.nan and recv_at = Array.make n Float.nan in
  let received = ref 0 and late = ref 0.0 in
  let next_tick = ref start in
  let take =
    List.iter (fun (i, at) ->
        if Float.is_nan recv_at.(i) then begin
          recv_at.(i) <- at;
          incr received
        end)
  in
  let maybe_tick t =
    if t >= !next_tick then begin
      tick ();
      next_tick := t +. cadence
    end
  in
  let i = ref 0 in
  while !i < n do
    let t = now () in
    maybe_tick t;
    let due_i = start +. due.(!i) in
    if t >= due_i then begin
      late := Float.max !late (t -. due_i);
      sent_at.(!i) <- t;
      send !i;
      incr i
    end
    else take (poll ~timeout:(Float.min (due_i -. t) (Float.max 0.0 (!next_tick -. t))))
  done;
  let give_up = now () +. drain_timeout in
  let rec drain () =
    let t = now () in
    if !received < n && t < give_up then begin
      maybe_tick t;
      take (poll ~timeout:(Float.min 0.05 (give_up -. t)));
      drain ()
    end
  in
  drain ();
  let latency =
    Array.mapi (fun i r -> if Float.is_nan r then Float.nan else r -. (start +. due.(i))) recv_at
  in
  { latency; sent_at; late_max = !late; missing = n - !received }
