(* [perf.exe --compare BASE CHANGE ...]: each later set against the first,
   per (workload, end-to-end metric).  A set is one result file or
   several joined by commas, whose per-rep samples are pooled.  Verdicts
   follow the gain and regression rules of the benchmark's README. *)

module Json = Ascend.Util.Json

let field name = function
  | Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let int_field name doc =
  match field name doc with Some (Json.Int i) -> i | _ -> 0

(* a BENCH_perf.json holds a "workloads" list; a single workload's file
   is its own one-element list *)
let load_file file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Json.of_string text with
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)
  | Ok doc -> (
    let named w =
      match field "workload" w with
      | Some (Json.String n) -> Some (n, w)
      | _ -> None
    in
    match field "workloads" doc with
    | Some (Json.List ws) -> List.filter_map named ws
    | _ -> Option.to_list (named doc))

(* per workload, in order of first appearance: its entries in every file
   of the set *)
let load set =
  let entries = List.concat_map load_file (String.split_on_char ',' set) in
  let names =
    List.fold_left
      (fun acc (n, _) -> if List.mem n acc then acc else acc @ [ n ])
      [] entries
  in
  List.map
    (fun n -> (n, List.filter_map (fun (m, w) -> if m = n then Some w else None) entries))
    names

let samples ws name =
  List.concat_map
    (fun w ->
      match Option.bind (field "samples" w) (field name) with
      | Some (Json.List xs) -> List.filter_map number xs
      | _ -> [])
    ws

type verdict = Better | Worse | Within | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "WORSE"
  | Within -> "within bound"
  | Unresolved -> "unresolved"

let judge (m : Metrics.metric) base change =
  let med_a = Metrics.median base and med_b = Metrics.median change in
  let q1, _, q3 = Metrics.quartiles base in
  let spread = (q3 -. q1) /. med_a in
  let delta = (med_b -. med_a) /. med_a in
  let worse_by = match m.better with Metrics.Lower -> delta | Higher -> -.delta in
  let beats a b = match m.better with Metrics.Lower -> a < b | Higher -> a > b in
  let every_change p = List.for_all (fun b -> List.for_all (fun a -> p b a) base) change in
  (* a verdict needs a few samples a side: one each proves nothing *)
  let enough = List.length base >= 3 && List.length change >= 3 in
  (* over a noisy baseline, only a change that beats, or loses to, every
     baseline sample is resolved *)
  let v =
    if spread > m.bound then
      if enough && every_change beats then Better
      else if enough && worse_by > m.bound && every_change (fun b a -> beats a b) then Worse
      else Unresolved
    else if worse_by > m.bound then Worse
    else if enough && -.worse_by > spread then Better
    else Within
  in
  (delta, v)

(* The verdict rule on synthetic samples; [--smoke] runs these.  Returns
   the cases that fail. *)
let self_check () =
  let wall = List.find (fun (m : Metrics.metric) -> m.name = "wall_s") Metrics.end_to_end in
  let quiet = [ 1.00; 1.01; 0.99; 1.00; 1.02; 0.98 ] in
  let noisy = [ 1.0; 1.6; 1.1; 1.5; 1.0; 1.7 ] in
  let scaled k = List.map (fun x -> k *. x) in
  List.filter_map
    (fun (what, base, change, want) ->
      let _, got = judge wall base change in
      if got = want then None
      else
        Some
          (Printf.sprintf "%s: %s, expected %s" what (verdict_name got)
             (verdict_name want)))
    [
      ("quiet baseline, same change", quiet, quiet, Within);
      ("quiet baseline, change 1.5x slower", quiet, scaled 1.5 quiet, Worse);
      ("quiet baseline, change 2x faster", quiet, scaled 0.5 quiet, Better);
      ("noisy baseline, same change", noisy, noisy, Unresolved);
      ("noisy baseline, change 2x slower", noisy, scaled 2. noisy, Worse);
      ("noisy baseline, change 2x faster", noisy, scaled 0.5 noisy, Better);
    ]

let error_rate ws =
  let sum f = List.fold_left (fun a w -> a + int_field f w) 0 ws in
  float_of_int (sum "failed") /. float_of_int (max 1 (sum "attempted"))

(* returns whether every comparison is acceptable *)
let run files =
  match List.map (fun f -> (f, load f)) files with
  | [] | [ _ ] -> failwith "--compare needs a baseline set and at least one more"
  | (base_file, base) :: changes ->
    let ok = ref true in
    let quart xs =
      let q1, q2, q3 = Metrics.quartiles xs in
      Printf.sprintf "%.4g [%.4g, %.4g] n=%d" q2 q1 q3 (List.length xs)
    in
    List.iter
      (fun (file, change) ->
        Printf.printf "%s (baseline) vs %s\n" base_file file;
        Printf.printf "%-22s %-16s %-38s %-38s %8s  %s\n" "workload" "metric"
          "baseline median [q1, q3]" "change median [q1, q3]" "delta" "verdict";
        List.iter
          (fun (name, bw) ->
            match List.assoc_opt name change with
            | None -> Printf.printf "%-22s missing from %s\n" name file
            | Some cw ->
              List.iter
                (fun (m : Metrics.metric) ->
                  let a = samples bw m.name and b = samples cw m.name in
                  if a <> [] && b <> [] then begin
                    let delta, v = judge m a b in
                    if v = Worse then ok := false;
                    Printf.printf "%-22s %-16s %-38s %-38s %+7.1f%%  %s (bound %.0f%%)\n"
                      name m.name (quart a) (quart b) (100. *. delta)
                      (verdict_name v) (100. *. m.bound)
                  end)
                Metrics.end_to_end;
              let ea = error_rate bw and eb = error_rate cw in
              if eb > ea then ok := false;
              Printf.printf "%-22s %-16s %-38.4f %-38.4f %8s  %s\n" name
                "error_rate" ea eb ""
                (if eb > ea then "WORSE (any increase)" else "within bound"))
          base)
      changes;
    !ok
