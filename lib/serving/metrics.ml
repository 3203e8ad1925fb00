module Stats = Ascend_util.Stats
module Json = Ascend_util.Json
module Table = Ascend_util.Table

type model_summary = {
  model : string;
  priority : int;
  slo_ms : float;
  offered : int;
  completed : int;
  rejected : int;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  slo_attainment : float;
  goodput_per_s : float;
  throughput_per_s : float;
  rejection_rate : float;
  mean_batch : float;
}

type t = {
  duration_s : float;
  horizon_s : float;
  bucket_s : float;
  summaries : model_summary list;
  core_busy_s : float array;
  core_utilization : float array;
  occupancy : float array;
}

let summarize ~duration_s ~model ~priority ~slo_ms records =
  let mine =
    List.filter (fun r -> r.Request.request.Request.model = model) records
  in
  let done_, rej =
    List.partition (fun r -> r.Request.outcome = Request.Completed) mine
  in
  let lat_ms =
    List.map (fun r -> 1e3 *. Request.latency_s r) done_
  in
  let within = List.filter Request.met_slo done_ in
  (* one array serves every percentile below, the maximum (p100)
     included: each query selects in place, and any order of the
     sample selects the same rank *)
  let lat = Array.of_list lat_ms in
  let pct p =
    if lat_ms = [] then 0. else Stats.percentile_in_place p lat
  in
  {
    model;
    priority;
    slo_ms;
    offered = List.length mine;
    completed = List.length done_;
    rejected = List.length rej;
    mean_ms = Stats.mean lat_ms;
    p50_ms = pct 50.;
    p95_ms = pct 95.;
    p99_ms = pct 99.;
    max_ms = pct 100.;
    slo_attainment =
      (if done_ = [] then 0.
       else float_of_int (List.length within) /. float_of_int (List.length done_));
    goodput_per_s = float_of_int (List.length within) /. duration_s;
    throughput_per_s = float_of_int (List.length done_) /. duration_s;
    rejection_rate =
      (if mine = [] then 0.
       else float_of_int (List.length rej) /. float_of_int (List.length mine));
    mean_batch =
      Stats.mean (List.map (fun r -> float_of_int r.Request.batch) done_);
  }

let build ~duration_s ~bucket_s ~cores ~models ~busy records =
  if duration_s <= 0. then invalid_arg "Metrics.build: non-positive duration";
  if bucket_s <= 0. then invalid_arg "Metrics.build: non-positive bucket";
  if cores <= 0 then invalid_arg "Metrics.build: non-positive cores";
  let horizon_s =
    List.fold_left
      (fun acc (_, _, finish) -> Float.max acc finish)
      duration_s busy
  in
  let core_busy_s = Array.make cores 0. in
  List.iter
    (fun (core, start, finish) ->
      if core < 0 || core >= cores then
        invalid_arg "Metrics.build: busy span on unknown core";
      core_busy_s.(core) <- core_busy_s.(core) +. (finish -. start))
    busy;
  let n_buckets = max 1 (int_of_float (ceil (horizon_s /. bucket_s))) in
  let occupancy = Array.make n_buckets 0. in
  List.iter
    (fun (_, start, finish) ->
      let first = int_of_float (start /. bucket_s) in
      let last =
        min (n_buckets - 1) (int_of_float (finish /. bucket_s))
      in
      for b = first to last do
        let lo = Float.max start (float_of_int b *. bucket_s) in
        let hi = Float.min finish (float_of_int (b + 1) *. bucket_s) in
        if hi > lo then occupancy.(b) <- occupancy.(b) +. (hi -. lo)
      done)
    busy;
  Array.iteri
    (fun b acc -> occupancy.(b) <- acc /. (bucket_s *. float_of_int cores))
    occupancy;
  {
    duration_s;
    horizon_s;
    bucket_s;
    summaries =
      List.map
        (fun (model, priority, slo_ms) ->
          summarize ~duration_s ~model ~priority ~slo_ms records)
        models;
    core_busy_s;
    core_utilization =
      Array.map (fun b -> b /. horizon_s) core_busy_s;
    occupancy;
  }

let summary_to_json s =
  Json.Obj
    [
      ("model", Json.String s.model);
      ("priority", Json.Int s.priority);
      ("slo_ms", Json.Float s.slo_ms);
      ("offered", Json.Int s.offered);
      ("completed", Json.Int s.completed);
      ("rejected", Json.Int s.rejected);
      ("mean_ms", Json.Float s.mean_ms);
      ("p50_ms", Json.Float s.p50_ms);
      ("p95_ms", Json.Float s.p95_ms);
      ("p99_ms", Json.Float s.p99_ms);
      ("max_ms", Json.Float s.max_ms);
      ("slo_attainment", Json.Float s.slo_attainment);
      ("goodput_per_s", Json.Float s.goodput_per_s);
      ("throughput_per_s", Json.Float s.throughput_per_s);
      ("rejection_rate", Json.Float s.rejection_rate);
      ("mean_batch", Json.Float s.mean_batch);
    ]

let to_json t =
  Json.Obj
    [
      ("duration_s", Json.Float t.duration_s);
      ("horizon_s", Json.Float t.horizon_s);
      ("bucket_s", Json.Float t.bucket_s);
      ("models", Json.List (List.map summary_to_json t.summaries));
      ( "core_utilization",
        Json.List
          (Array.to_list (Array.map (fun u -> Json.Float u) t.core_utilization))
      );
      ( "occupancy",
        Json.List
          (Array.to_list (Array.map (fun u -> Json.Float u) t.occupancy)) );
    ]

(* one char per bucket, deepening with occupancy *)
let occupancy_char u =
  let ramp = " .:-=+*#@" in
  let n = String.length ramp in
  let i =
    int_of_float (Stats.clamp ~lo:0. ~hi:(float_of_int (n - 1)) (u *. float_of_int n))
  in
  ramp.[i]

let pp ppf t =
  let table =
    Table.create
      ~header:
        [ "model"; "prio"; "slo ms"; "offered"; "done"; "rej"; "rej%";
          "p50 ms"; "p95 ms"; "p99 ms"; "slo%"; "goodput/s"; "batch" ]
      ()
  in
  List.iter
    (fun s ->
      Table.add_row table
        [
          s.model;
          string_of_int s.priority;
          Table.cell_float ~decimals:1 s.slo_ms;
          string_of_int s.offered;
          string_of_int s.completed;
          string_of_int s.rejected;
          Printf.sprintf "%.1f%%" (100. *. s.rejection_rate);
          Table.cell_float s.p50_ms;
          Table.cell_float s.p95_ms;
          Table.cell_float s.p99_ms;
          Printf.sprintf "%.1f%%" (100. *. s.slo_attainment);
          Table.cell_float ~decimals:1 s.goodput_per_s;
          Table.cell_float ~decimals:1 s.mean_batch;
        ])
    t.summaries;
  Format.fprintf ppf "%s@." (Table.render table);
  Array.iteri
    (fun i u ->
      let filled = int_of_float (u *. 40.) in
      Format.fprintf ppf "core%-2d %5.1f%% |%s%s|@." i (100. *. u)
        (String.make filled '=')
        (String.make (40 - filled) ' '))
    t.core_utilization;
  Format.fprintf ppf "occupancy (%.0f ms buckets): [%s]@."
    (1e3 *. t.bucket_s)
    (String.init (Array.length t.occupancy) (fun i ->
         occupancy_char t.occupancy.(i)))
