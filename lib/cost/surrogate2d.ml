type t = {
  (* sorted by cache length, distinct, every row of one width >= 1;
     invariant established by [fit] *)
  rows : (int * Calibration.entry array) array;
}

let anchor_lens ~max_len =
  if max_len < 1 then invalid_arg "Surrogate2d.anchor_lens: max_len < 1";
  let rec powers l acc = if l > max_len then acc else powers (2 * l) (l :: acc) in
  List.sort_uniq compare (max_len :: powers 1 [])

let probe_lens ~max_len =
  (* the anchor schedule plus the midpoint of every bracket: the
     validation grid the calibration drives the exact oracle over *)
  let anchors = anchor_lens ~max_len in
  let rec mids = function
    | a :: (b :: _ as rest) ->
      let m = (a + b) / 2 in
      if m > a && m < b then m :: mids rest else mids rest
    | _ -> []
  in
  List.sort_uniq compare (anchors @ mids anchors)

let fit ~rows =
  match rows with
  | [] -> Error "Surrogate2d.fit: no cache-length rows"
  | (_, first) :: _ ->
    let rows =
      Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) rows)
    in
    let width = Array.length first in
    let dup = ref false in
    Array.iteri
      (fun i (l, _) -> if i > 0 && fst rows.(i - 1) = l then dup := true)
      rows;
    if Array.exists (fun (l, _) -> l < 1) rows then
      Error "Surrogate2d.fit: cache length < 1"
    else if !dup then Error "Surrogate2d.fit: duplicate cache length"
    else if
      width = 0 || Array.exists (fun (_, r) -> Array.length r <> width) rows
    then Error "Surrogate2d.fit: empty or ragged rows"
    else Ok { rows }

let lens t = Array.to_list (Array.map fst t.rows)

(* largest index whose length is <= [cache_len]; caller checked range *)
let bracket t cache_len =
  let lo = ref 0 and hi = ref (Array.length t.rows - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if fst t.rows.(mid) <= cache_len then lo := mid else hi := mid
  done;
  if fst t.rows.(!hi) <= cache_len then !hi else !lo

let lookup t ~batch ~cache_len =
  if batch < 1 then invalid_arg "Surrogate2d.lookup: batch < 1";
  if cache_len < 1 then invalid_arg "Surrogate2d.lookup: cache_len < 1";
  let last = Array.length t.rows - 1 in
  if
    cache_len < fst t.rows.(0)
    || cache_len > fst t.rows.(last)
    || batch > Array.length (snd t.rows.(0))
  then None
  else
    let i = bracket t cache_len in
    let l0, r0 = t.rows.(i) in
    let e0 = r0.(batch - 1) in
    if l0 = cache_len then Some e0
    else
      let l1, r1 = t.rows.(i + 1) in
      let e1 = r1.(batch - 1) in
      let w = float_of_int (cache_len - l0) /. float_of_int (l1 - l0) in
      let lerp a b = a +. ((b -. a) *. w) in
      Some
        {
          Calibration.cycles =
            (let c =
               lerp
                 (float_of_int e0.Calibration.cycles)
                 (float_of_int e1.Calibration.cycles)
             in
             max 1 (int_of_float (Float.round c)));
          latency_s = lerp e0.Calibration.latency_s e1.Calibration.latency_s;
          energy_j = lerp e0.Calibration.energy_j e1.Calibration.energy_j;
        }
