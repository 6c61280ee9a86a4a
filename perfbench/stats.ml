(* Order statistics over latency and duration samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Percentiles in tenths, so the nearest rank is integer arithmetic:
   no float rounding can move a sample across a rank boundary. *)
let tail_percentiles = [ 990; 950; 900; 750; 500 ]

let rank ~n p10 = max 1 (((p10 * n) + 999) / 1000)

(* A tail percentile needs this many samples ranked after it. *)
let min_beyond = 10

let percentile xs p10 =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan else a.(rank ~n p10 - 1)

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p10 ->
      let r = rank ~n p10 in
      if n - r >= min_beyond then Some (float_of_int p10 /. 10.0, a.(r - 1)) else None)
    tail_percentiles

let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = sum xs /. float_of_int (List.length xs)

