let sum = List.fold_left ( +. ) 0.
let sum_int = List.fold_left ( + ) 0

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
    let logs = List.map log xs in
    exp (mean logs)

let stddev = function
  | [] -> 0.
  | xs ->
    let m = mean xs in
    let sq = List.map (fun x -> (x -. m) ** 2.) xs in
    sqrt (mean sq)

(* Nearest-rank: the smallest order statistic with at least
   ceil(p/100 * n) of the sample at or below it; p = 0 is the
   minimum.  Always returns an element of the sample.  Hoare's
   selection (Wirth's variant, middle pivot) finds it in O(n) on average;
   the loops stay monomorphic over [float array], so no element is
   boxed and no comparator closure runs. *)
let percentile_in_place p (a : float array) =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile_in_place: empty array";
  if p < 0. || p > 100. then
    invalid_arg "Stats.percentile_in_place: p outside [0,100]";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let k = max 0 (min (n - 1) (rank - 1)) in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while pivot < a.(!j) do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    (* [lo, j] <= pivot <= [i, hi], and every slot between equals it *)
    if !j < k then lo := !i;
    if k < !i then hi := !j
  done;
  a.(k)

let percentile p = function
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    if p < 0. || p > 100. then
      invalid_arg "Stats.percentile: p outside [0,100]";
    percentile_in_place p (Array.of_list xs)

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: xs -> List.fold_left Float.min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: xs -> List.fold_left Float.max x xs

let ratio num den =
  if den = 0. then if num = 0. then 0. else infinity else num /. den

let clamp ~lo ~hi x = Float.max lo (Float.min hi x)

let divide_round_up a b =
  if b <= 0 then invalid_arg "Stats.divide_round_up: non-positive divisor";
  if a < 0 then invalid_arg "Stats.divide_round_up: negative dividend";
  (a + b - 1) / b
