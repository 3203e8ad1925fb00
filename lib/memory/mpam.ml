type class_spec = {
  class_name : string;
  min_share : float;
  max_share : float;
  priority : int;
}

type allocation = { spec : class_spec; demand : float; granted : float }

let validate specs =
  let min_sum = ref 0. in
  List.iter
    (fun (s, demand) ->
      if demand < 0. then invalid_arg "Mpam.partition: negative demand";
      if s.min_share < 0. || s.min_share > 1. || s.max_share < s.min_share
         || s.max_share > 1.
      then
        invalid_arg
          (Printf.sprintf "Mpam.partition: malformed shares for %s" s.class_name);
      min_sum := !min_sum +. s.min_share)
    specs;
  if !min_sum > 1. +. 1e-9 then
    invalid_arg "Mpam.partition: minimum shares exceed the total"

let partition ~total_bandwidth specs =
  if total_bandwidth < 0. then invalid_arg "Mpam.partition: negative bandwidth";
  validate specs;
  let allocs =
    Array.of_list
      (List.map (fun (s, d) -> ref { spec = s; demand = d; granted = 0. }) specs)
  in
  let remaining = ref total_bandwidth in
  (* phase 1: guaranteed minimums *)
  Array.iter
    (fun a ->
      let g = Float.min !a.demand (!a.spec.min_share *. total_bandwidth) in
      a := { !a with granted = g };
      remaining := !remaining -. g)
    allocs;
  (* phase 2: leftover by strict priority up to the cap *)
  let by_priority =
    List.sort
      (fun a b -> compare !b.spec.priority !a.spec.priority)
      (Array.to_list allocs)
  in
  List.iter
    (fun a ->
      let cap = !a.spec.max_share *. total_bandwidth in
      let want = Float.min !a.demand cap -. !a.granted in
      if want > 0. && !remaining > 0. then begin
        let g = Float.min want !remaining in
        a := { !a with granted = !a.granted +. g };
        remaining := !remaining -. g
      end)
    by_priority;
  (* phase 3: work conservation past the caps *)
  if !remaining > 1e-9 then begin
    let residual =
      Array.map (fun a -> Float.max 0. (!a.demand -. !a.granted)) allocs
    in
    let extra =
      Ascend_util.Fairness.max_min_fair ~capacity:!remaining ~demands:residual
    in
    Array.iteri
      (fun i a -> a := { !a with granted = !a.granted +. extra.(i) })
      allocs
  end;
  Array.to_list (Array.map (fun a -> !a) allocs)

let latency_factor ~utilization =
  let u = Ascend_util.Stats.clamp ~lo:0. ~hi:0.999 utilization in
  Float.min 50. (1. +. (u /. (2. *. (1. -. u))))
