module Scheduler = Ascend_runtime.Scheduler
module Json = Ascend_util.Json

type workload = Loop.workload =
  | Open_loop of Load_gen.t
  | Closed_loop of { clients : int; think_s : float; seed : int }

type model_spec = Loop.model_spec = {
  name : string;
  build : batch:int -> Ascend_nn.Graph.t;
  priority : int;
  slo_ms : float;
  workload : workload;
}

type config = {
  core : Ascend_arch.Config.t;
  cores : int;
  max_batch : int;
  max_delay_s : float;
  queue_depth : int;
  duration_s : float;
  bucket_s : float;
  costing : Cost.costing;
}

let default_config ~core ~cores =
  {
    core;
    cores;
    max_batch = 8;
    max_delay_s = 2e-3;
    queue_depth = 64;
    duration_s = 1.;
    bucket_s = 50e-3;
    costing = `Exact;
  }

type batch_exec = {
  bx_model : string;
  bx_priority : int;
  bx_size : int;
  bx_core : int;
  bx_start_s : float;
  bx_finish_s : float;
  bx_cycles : int;
}

type result = {
  served_config : config;
  records : Request.record list;
  batches : batch_exec list;
  metrics : Metrics.t;
  offline_makespan_cycles : int;
  offline_utilization : float;
  cost_hits : int;
  cost_misses : int;
  cost_interpolated : int;
  cost_fallbacks : int;
  cost_stats : Ascend_exec.Cache.stats;
}

(* the dispatched batches as one closed §5.2 schedule input: one app per
   model that dispatched, in spec order, one single-block stream per
   batch *)
let offline_apps models batches =
  List.filter_map
    (fun (model, priority) ->
      match List.filter (fun b -> b.bx_model = model) batches with
      | [] -> None
      | mine ->
        Some
          (Scheduler.app ~priority ~name:model
             (List.mapi
                (fun j b ->
                  let tag = Printf.sprintf "%s.%d" model j in
                  {
                    Scheduler.stream_name = tag;
                    tasks =
                      [
                        {
                          Scheduler.task_name = tag;
                          blocks = 1;
                          cycles_per_block = max 1 b.bx_cycles;
                        };
                      ];
                  })
                mine)))
    models

let run config specs =
  if config.cores <= 0 then invalid_arg "Serve.run: non-positive cores";
  let loop_config =
    {
      Loop.core = config.core;
      nodes = 1;
      cores_per_node = config.cores;
      max_batch = config.max_batch;
      max_delay_s = config.max_delay_s;
      queue_depth = config.queue_depth;
      duration_s = config.duration_s;
      bucket_s = config.bucket_s;
      costing = config.costing;
    }
  in
  Loop.validate ~who:"Serve.run" loop_config specs;
  let obs_name _ = "serve:" ^ config.core.Ascend_arch.Config.name in
  match Loop.run ~obs_name loop_config specs with
  | Error _ as e -> e
  | Ok r ->
    let batches =
      List.map
        (fun (b : Loop.batch) ->
          let s = r.Loop.specs.(b.Loop.model) in
          {
            bx_model = s.name;
            bx_priority = s.priority;
            bx_size = b.Loop.size;
            bx_core = b.Loop.core;
            bx_start_s = b.Loop.start_s;
            bx_finish_s = b.Loop.finish_s;
            bx_cycles = b.Loop.cycles;
          })
        r.Loop.batches
    in
    (* offline cross-check: the same batches as one closed §5.2 schedule *)
    let offline =
      Scheduler.run ~cores:config.cores
        (offline_apps (List.map (fun s -> (s.name, s.priority)) specs) batches)
    in
    let cost = r.Loop.cost in
    Ok
      {
        served_config = config;
        records = List.map snd r.Loop.records;
        batches;
        metrics = Loop.metrics r;
        offline_makespan_cycles = offline.Scheduler.makespan_cycles;
        offline_utilization = Scheduler.utilization offline;
        cost_hits = Cost.hits cost;
        cost_misses = Cost.misses cost;
        cost_interpolated = Cost.interpolated cost;
        cost_fallbacks = Cost.fallbacks cost;
        cost_stats = Cost.stats cost;
      }

let scheduler_apps r =
  offline_apps
    (List.map
       (fun s -> (s.Metrics.model, s.Metrics.priority))
       r.metrics.Metrics.summaries)
    r.batches

let to_json r =
  let c = r.served_config in
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("core", Json.String c.core.Ascend_arch.Config.name);
            ("cores", Json.Int c.cores);
            ("max_batch", Json.Int c.max_batch);
            ("max_delay_ms", Json.Float (1e3 *. c.max_delay_s));
            ("queue_depth", Json.Int c.queue_depth);
            ("duration_s", Json.Float c.duration_s);
            ("costing", Json.String (Cost.costing_name c.costing));
          ] );
      ("metrics", Metrics.to_json r.metrics);
      ( "batches",
        Json.Obj
          [
            ("count", Json.Int (List.length r.batches));
            ("offline_makespan_cycles", Json.Int r.offline_makespan_cycles);
            ("offline_utilization", Json.Float r.offline_utilization);
          ] );
      ( "cost_cache",
        Cost.counters_json ~hits:r.cost_hits ~misses:r.cost_misses
          ~interpolated:r.cost_interpolated ~fallbacks:r.cost_fallbacks );
    ]

let pp ppf r =
  Format.fprintf ppf "%a" Metrics.pp r.metrics;
  Format.fprintf ppf
    "batches: %d dispatched; offline §5.2 repack: makespan %d cycles at \
     %.1f%% utilization@."
    (List.length r.batches) r.offline_makespan_cycles
    (100. *. r.offline_utilization);
  Format.fprintf ppf
    "latency cache: %d compile+simulate runs, %d cached lookups@."
    r.cost_misses r.cost_hits;
  if r.served_config.costing = `Surrogate then
    Format.fprintf ppf
      "surrogate: %d lookups answered from the table, %d priced on first \
       use@."
      r.cost_interpolated r.cost_fallbacks;
  Format.fprintf ppf "exec cache: %a@." Ascend_exec.Cache.pp_stats r.cost_stats
