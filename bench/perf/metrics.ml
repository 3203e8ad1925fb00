(* Metric definitions (mirrored by BENCHMARK.json), the statistics the
   benchmark reports, and the per-layer derivation from a traced pass. *)

module Json = Ascend.Util.Json
module Summary = Ascend.Obs.Summary

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** share of the baseline median it may worsen by *)
}

(* The time bounds are wide because the shared 2-CPU hosts this runs on
   drift by tens of percent over minutes: a narrower bound would fail
   unchanged code.  [peak_rss_mb] moves with the seed's inputs and the
   GC's pacing only. *)
let end_to_end =
  [
    { name = "setup_s"; unit = "s"; better = Lower; bound = 0.25 };
    { name = "wall_s"; unit = "s"; better = Lower; bound = 0.25 };
    { name = "work_per_host_s"; unit = "1/s"; better = Higher; bound = 0.25 };
    { name = "peak_rss_mb"; unit = "MiB"; better = Lower; bound = 0.20 };
  ]

(* Time metrics here are measured on every workload (a layer only one
   workload runs is in the full layer table instead); counts are
   deterministic and repeat exactly. *)
let per_layer =
  [
    ("nn.build_s", "s");
    ("nn.build_calls", "count");
    ("fusion.partition_s", "s");
    ("fusion.partition_calls", "count");
    ("exec.key_s", "s");
    ("exec.keys", "count");
    ("exec.cache_s", "s");
    ("exec.cache_hits", "count");
    ("exec.cache_misses", "count");
    ("exec.cache_hit_ratio", "ratio");
    ("exec.cache_entries", "count");
    ("exec.pool_jobs", "count");
    ("tiling.choose_s", "s");
    ("codegen.group_program_s", "s");
    ("codegen.programs", "count");
    ("core_sim.run_s", "s");
    ("core_sim.instructions", "count");
    ("core_sim.minstr_per_host_s", "Minstr/s");
    ("cost.s", "s");
    ("cost.lookups", "count");
    ("cost.lookup_us.p50", "us");
    ("cost.lookup_us.p99", "us");
    ("engine.self_s", "s");
    ("json.emit_s", "s");
    ("serving.batches", "count");
    ("fleet.arrivals", "count");
    ("fleet.batches", "count");
    ("fleet.page_ins", "count");
    ("decode.steps", "count");
    ("decode.prefills", "count");
    ("decode.cost_misses", "count");
    ("verify.programs", "count");
    ("verify.findings", "count");
    ("sanitizer.instructions", "count");
    ("verify.soc_findings", "count");
    ("trace.overhead_ratio", "ratio");
  ]

(* ------------------------------------------------------------------ *)
(* Statistics, with Python's [statistics] semantics so that numbers here
   match what an outside script computes from the same samples *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [statistics.quantiles(xs, n=4)], the default exclusive method *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let maximum xs = List.fold_left Float.max neg_infinity xs

(* nearest rank, like the library's own latency percentiles *)
let percentile p xs =
  if xs = [] then 0. else Ascend.Util.Stats.percentile p xs

(* ------------------------------------------------------------------ *)

(* MiB high-water mark of this process's resident set *)
let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> Some (float_of_int kb /. 1024.)
          | None -> scan ())
      in
      let r = scan () in
      close_in ic;
      r
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.

(* ------------------------------------------------------------------ *)

(* One traced pass's per-layer values, in [per_layer] order.  Leaf layers
   report their summed span time.  [lookups_s] holds the host time of
   every oracle call of the pass, timed in place or replayed;
   [replayed_s] those of them that were replayed.  [engine.self_s] is the
   entry point's wall minus the layer calls timed inside it (zoo-verify)
   or minus its replayed oracle calls (the others) — a difference of two
   measurements, so it can dip below zero where pricing is nearly all of
   the run.  [counts] are the pass's deterministic work counters. *)
let of_pass ~(summary : Summary.t) ~lookups_s ~replayed_s ~counts ~pass_s ~untraced_s =
  let sum = List.fold_left ( +. ) 0. in
  let row cat = List.find_opt (fun r -> r.Summary.cat = cat) summary.rows in
  let total cat = match row cat with Some r -> r.Summary.total *. 1e-6 | None -> 0. in
  let calls cat = match row cat with Some r -> r.Summary.span_count | None -> 0 in
  let count name = Option.value ~default:0 (List.assoc_opt name counts) in
  let hits = count "exec.cache_hits" and misses = count "exec.cache_misses" in
  let value = function
    | "nn.build_s" -> total "nn.build"
    | "nn.build_calls" -> float_of_int (calls "nn.build")
    | "fusion.partition_s" -> total "fusion.partition"
    | "fusion.partition_calls" -> float_of_int (calls "fusion.partition")
    | "exec.key_s" -> total "exec.key"
    | "exec.cache_s" -> total "exec.cache"
    | "exec.cache_hit_ratio" ->
      float_of_int hits /. float_of_int (max 1 (hits + misses))
    | "exec.pool_jobs" -> float_of_int (max 1 (count "exec.pool_jobs"))
    | "tiling.choose_s" -> total "tiling.choose"
    | "codegen.group_program_s" -> total "codegen.group_program"
    | "core_sim.run_s" -> total "core_sim.run"
    | "core_sim.minstr_per_host_s" ->
      float_of_int (count "core_sim.instructions") /. total "core_sim.run" /. 1e6
    | "cost.s" -> sum lookups_s
    | "cost.lookups" -> float_of_int (List.length lookups_s)
    | "cost.lookup_us.p50" -> 1e6 *. percentile 50. lookups_s
    | "cost.lookup_us.p99" -> 1e6 *. percentile 99. lookups_s
    | "engine.self_s" ->
      (match row "engine" with Some r -> r.Summary.self *. 1e-6 | None -> 0.)
      -. sum replayed_s
    | "json.emit_s" -> total "json.emit"
    | "trace.overhead_ratio" -> pass_s /. untraced_s
    | name -> float_of_int (count name)
  in
  List.map (fun (name, _) -> (name, value name)) per_layer

(* every category of a pass: the layers only one workload runs (the
   verifiers, the scheduler repack) are here and in the Chrome trace *)
let layer_table (summary : Summary.t) =
  Json.List
    (List.map
       (fun (r : Summary.row) ->
         Json.Obj
           [
             ("layer", Json.String r.cat);
             ("spans", Json.Int r.span_count);
             ("total_s", Json.Float (r.total *. 1e-6));
             ("self_s", Json.Float (r.self *. 1e-6));
           ])
       summary.rows)

(* ------------------------------------------------------------------ *)

(* The one-line result: floats with every digit they were measured to *)
let result_line ~correct ~attempted ~failed metrics =
  let number v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (number v)
              unit)
          metrics))
