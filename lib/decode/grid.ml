module Oracle = Ascend_serving.Cost

type t = {
  (* sorted by cache length, distinct, every row of one width >= 1;
     invariant established by [fit] *)
  rows : (int * Oracle.entry array) array;
}

let fit ~rows =
  match rows with
  | [] -> Error "Grid.fit: no cache-length rows"
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
      Error "Grid.fit: cache length < 1"
    else if !dup then Error "Grid.fit: duplicate cache length"
    else if
      width = 0 || Array.exists (fun (_, r) -> Array.length r <> width) rows
    then Error "Grid.fit: empty or ragged rows"
    else Ok { rows }

(* 1, the powers of two and [max_len], plus the midpoint of every
   bracket they leave *)
let schedule ~max_len =
  let rec powers l acc =
    if l > max_len then acc else powers (2 * l) (l :: acc)
  in
  let anchors = List.sort_uniq compare (max_len :: powers 1 []) in
  let rec mids = function
    | a :: (b :: _ as rest) ->
      let m = (a + b) / 2 in
      if m > a then m :: mids rest else mids rest
    | _ -> []
  in
  List.sort_uniq compare (anchors @ mids anchors)

let build ~price ~max_batch ~max_len =
  if max_batch < 1 then invalid_arg "Grid.build: max_batch < 1";
  if max_len < 1 then invalid_arg "Grid.build: max_len < 1";
  (* rows in length order, each in batch order: the first failure aborts *)
  let rec row len batch acc =
    if batch > max_batch then Ok (len, Array.of_list (List.rev acc))
    else
      match price ~batch ~cache_len:len with
      | Error _ as e -> e
      | Ok e -> row len (batch + 1) (e :: acc)
  in
  let rec rows acc = function
    | [] -> fit ~rows:(List.rev acc)
    | len :: lens -> (
      match row len 1 [] with
      | Error _ as e -> e
      | Ok r -> rows (r :: acc) lens)
  in
  rows [] (schedule ~max_len)

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
  if batch < 1 then invalid_arg "Grid.lookup: batch < 1";
  if cache_len < 1 then invalid_arg "Grid.lookup: cache_len < 1";
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
          Oracle.cycles =
            (let c =
               lerp
                 (float_of_int e0.Oracle.cycles)
                 (float_of_int e1.Oracle.cycles)
             in
             max 1 (int_of_float (Float.round c)));
          latency_s = lerp e0.Oracle.latency_s e1.Oracle.latency_s;
          energy_j = lerp e0.Oracle.energy_j e1.Oracle.energy_j;
        }
