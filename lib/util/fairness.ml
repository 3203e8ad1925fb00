let check_inputs ~capacity ~demands =
  if capacity < 0. then invalid_arg "Fairness: negative capacity";
  Array.iter
    (fun d -> if d < 0. then invalid_arg "Fairness: negative demand")
    demands

let weighted_max_min_fair ~capacity ~demands ~weights =
  check_inputs ~capacity ~demands;
  if Array.length weights <> Array.length demands then
    invalid_arg "Fairness: weights length mismatch";
  Array.iter (fun w -> if w <= 0. then invalid_arg "Fairness: non-positive weight") weights;
  let n = Array.length demands in
  let alloc = Array.make n 0. in
  let satisfied = Array.make n false in
  let remaining = ref capacity in
  let continue_ = ref true in
  while !continue_ do
    let active_weight = ref 0. in
    for i = 0 to n - 1 do
      if not satisfied.(i) then active_weight := !active_weight +. weights.(i)
    done;
    if !active_weight = 0. || !remaining <= 1e-12 then continue_ := false
    else begin
      let progressed = ref false in
      let share_per_weight = !remaining /. !active_weight in
      (* first satisfy everyone whose residual demand is below their share *)
      for i = 0 to n - 1 do
        if (not satisfied.(i))
           && demands.(i) -. alloc.(i) <= share_per_weight *. weights.(i) +. 1e-12
        then begin
          remaining := !remaining -. (demands.(i) -. alloc.(i));
          alloc.(i) <- demands.(i);
          satisfied.(i) <- true;
          progressed := true
        end
      done;
      if not !progressed then begin
        (* everyone is bottlenecked: hand out the equal shares and stop *)
        for i = 0 to n - 1 do
          if not satisfied.(i) then
            alloc.(i) <- alloc.(i) +. (share_per_weight *. weights.(i))
        done;
        continue_ := false
      end
    end
  done;
  alloc

let max_min_fair ~capacity ~demands =
  let weights = Array.make (Array.length demands) 1. in
  if Array.length demands = 0 then [||]
  else weighted_max_min_fair ~capacity ~demands ~weights
