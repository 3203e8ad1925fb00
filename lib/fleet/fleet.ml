module Stats = Ascend_util.Stats
module Json = Ascend_util.Json
module Table = Ascend_util.Table
module Obs = Ascend_obs
module Server = Ascend_cluster.Server
module Training = Ascend_cluster.Training
module Training_soc = Ascend_soc.Training_soc
module Fusion = Ascend_compiler.Fusion
module Serve = Ascend_serving.Serve
module Loop = Ascend_serving.Loop
module Request = Ascend_serving.Request
module Metrics = Ascend_serving.Metrics
module Cost = Ascend_serving.Cost

type model_spec = {
  name : string;
  build : batch:int -> Ascend_nn.Graph.t;
  priority : int;
  slo_ms : float;
  workload : Serve.workload;
  replicas : int;
  kv_bytes : int;
}

type train_job = {
  tj_model : string;
  tj_build : batch:int -> Ascend_nn.Graph.t;
  tj_batch : int;
  tj_nodes : int;
}

type config = {
  core : Ascend_arch.Config.t;
  server : Server.t;
  nodes : int;
  cores_per_node : int;
  max_batch : int;
  max_delay_s : float;
  queue_depth : int;
  duration_s : float;
  bucket_s : float;
  policy : Router.policy;
  costing : Cost.costing;
  hbm_bytes_per_node : int option;
}

let default_config ~core ~nodes =
  let server = Server.ascend910_server in
  {
    core;
    server;
    nodes;
    cores_per_node = server.Server.chips;
    max_batch = 8;
    max_delay_s = 2e-3;
    queue_depth = 64;
    duration_s = 1.;
    bucket_s = 50e-3;
    policy = Router.Least_loaded;
    costing = `Exact;
    hbm_bytes_per_node = None;
  }

type batch_exec = {
  bx_model : string;
  bx_priority : int;
  bx_size : int;
  bx_node : int;
  bx_core : int;
  bx_start_s : float;
  bx_finish_s : float;
  bx_cycles : int;
  bx_paged : bool;
}

type node_report = {
  node : int;
  colocated_training : bool;
  train_interconnect_util : float;
  routed : int;
  completed : int;
  rejected : int;
  page_ins : int;
  page_in_s : float;
  slo_attainment : float;
  node_metrics : Metrics.t;
}

type route_cell = {
  rc_node : int;
  rc_model : string;
  rc_routed : int;
  rc_completed : int;
  rc_rejected : int;
  rc_paged : bool;
  rc_p50_ms : float;
  rc_p95_ms : float;
  rc_p99_ms : float;
}

type train_report = {
  tr_model : string;
  tr_batch : int;
  tr_nodes : int;
  tr_step_s : float;
  tr_images_per_s : float;
  tr_interconnect_util : float;
}

type result = {
  fleet_config : config;
  placement : Placement.t;
  records : (int * Request.record) list;
  batches : batch_exec list;
  fleet_metrics : Metrics.t;
  node_reports : node_report list;
  routes : route_cell list;
  training : train_report option;
  slo_attainment : float;
  total_page_ins : int;
  cost_hits : int;
  cost_misses : int;
  cost_interpolated : int;
  cost_fallbacks : int;
  cost_stats : Ascend_exec.Cache.stats;
}

let loop_config config =
  {
    Loop.core = config.core;
    nodes = config.nodes;
    cores_per_node = config.cores_per_node;
    max_batch = config.max_batch;
    max_delay_s = config.max_delay_s;
    queue_depth = config.queue_depth;
    duration_s = config.duration_s;
    bucket_s = config.bucket_s;
    costing = config.costing;
  }

let validate ?train config specs =
  if config.nodes <= 0 then invalid_arg "Fleet.run: non-positive nodes";
  if config.cores_per_node <= 0 then
    invalid_arg "Fleet.run: non-positive cores per node";
  Loop.validate ~who:"Fleet.run" (loop_config config) specs;
  match train with
  | Some tj ->
    if tj.tj_nodes < 1 || tj.tj_nodes > config.nodes then
      invalid_arg "Fleet.run: train nodes outside [1, nodes]";
    if tj.tj_batch < 1 then invalid_arg "Fleet.run: train batch < 1"
  | None -> ()

(* resident weight footprint: the fused graph's weight bytes at batch 1
   (weights are batch-invariant; activations are not paged) *)
let model_weight_bytes build =
  List.fold_left
    (fun acc (g : Fusion.t) -> acc + g.Fusion.weight_bytes)
    0
    (Fusion.partition (build ~batch:1))

(* whole-plan residency: each node must hold every resident model's
   weights plus its reserved KV working set at t = 0 *)
let check_residency config (placement : Placement.t) =
  match config.hbm_bytes_per_node with
  | None -> Ok ()
  | Some cap ->
    let resident node =
      List.fold_left
        (fun acc (e : Placement.entry) ->
          if List.mem node e.Placement.replicas then
            acc + e.Placement.weight_bytes + e.Placement.kv_bytes
          else acc)
        0 placement.Placement.entries
    in
    let over =
      List.find_map
        (fun n ->
          let bytes = resident n in
          if bytes > cap then Some (n, bytes) else None)
        (List.init config.nodes Fun.id)
    in
    (match over with
    | None -> Ok ()
    | Some (node, bytes) ->
      Error
        (Printf.sprintf
           "placement overcommits node %d: %d B resident (weights + kv) of %d \
            B HBM"
           node bytes cap))

(* the colocated trainer: one Training_soc step on this node's cores,
   gradients all-reduced across the server's chips.  The returned
   utilization is the fraction of a training step the interconnect
   spends moving gradients — bandwidth inference page-ins don't get. *)
let train_contention config tj =
  let soc =
    {
      Training_soc.ascend910 with
      Training_soc.core = config.core;
      cores = config.cores_per_node;
    }
  in
  match Training_soc.run ~training:true soc ~build:tj.tj_build ~batch:tj.tj_batch with
  | Error e -> Error ("train job " ^ tj.tj_model ^ ": " ^ e)
  | Ok chip ->
    let param_bytes = float_of_int (model_weight_bytes tj.tj_build) in
    let cluster =
      {
        Training.cluster_name = "fleet-colocated";
        server = config.server;
        network = Ascend_noc.Fat_tree.ascend_cluster;
        servers = 1;
        overlap = 0.7;
      }
    in
    let step = Training.train_step cluster ~chip_result:chip ~param_bytes in
    let util =
      Stats.clamp ~lo:0. ~hi:0.95
        (step.Training.allreduce_seconds
        /. Float.max Request.eps step.Training.step_seconds)
    in
    let tr_step_s = step.Training.step_seconds in
    Ok
      {
        tr_model = tj.tj_model;
        tr_batch = tj.tj_batch;
        tr_nodes = tj.tj_nodes;
        tr_step_s;
        tr_images_per_s = float_of_int tj.tj_batch /. tr_step_s;
        tr_interconnect_util = util;
      }

let run ?train config specs_list =
  let loop_specs =
    List.map
      (fun s ->
        { Loop.name = s.name; build = s.build; priority = s.priority;
          slo_ms = s.slo_ms; workload = s.workload })
      specs_list
  in
  validate ?train config loop_specs;
  let specs = Array.of_list specs_list in
  let n_models = Array.length specs in
  let nodes = config.nodes in
  let freq_hz = config.core.Ascend_arch.Config.frequency_ghz *. 1e9 in
  let weight_bytes = Array.map (fun s -> model_weight_bytes s.build) specs in
  let placement =
    Placement.build ?hbm_bytes_per_node:config.hbm_bytes_per_node ~nodes
      (Array.to_list
         (Array.mapi
            (fun i s -> (s.name, weight_bytes.(i), s.kv_bytes, s.replicas))
            specs))
  in
  let ( let* ) = Result.bind in
  let* () = check_residency config placement in
  let* training =
    match train with
    | None -> Ok None
    | Some tj -> Result.map Option.some (train_contention config tj)
  in
  let train_util n =
    match training with
    | Some t when n < t.tr_nodes -> t.tr_interconnect_util
    | _ -> 0.
  in
  (* weights stream in over the server's inter-group bus; colocated
     training's all-reduce takes its share first *)
  let page_bandwidth n =
    Server.link_bandwidth config.server ~src:0
      ~dst:(config.server.Server.chips - 1)
    *. (1. -. train_util n)
  in
  (* obs lanes of the fleet's own process: tid 0 is the router, tid 1+n
     carries node n's page-ins; each node is a process of its own (see
     Loop).  Timestamps are simulated seconds scaled to microseconds. *)
  let obs_pid =
    if not (Obs.Hook.enabled ()) then -1
    else begin
      let pid =
        Obs.Hook.alloc_pid
          ~name:("fleet:" ^ config.core.Ascend_arch.Config.name)
      in
      Obs.Hook.name_thread ~pid ~tid:0 "router";
      for n = 0 to nodes - 1 do
        Obs.Hook.name_thread ~pid ~tid:(1 + n)
          (Printf.sprintf "page-in:node%d" n)
      done;
      pid
    end
  in
  let us t = t *. 1e6 in
  let router = Router.create ~policy:config.policy ~nodes () in
  let routed = Array.make nodes 0 in
  let route (r : Request.t) ~queued =
    let n =
      Router.route router ~placement ~model:r.Request.model
        ~depths:(Array.init nodes queued)
    in
    routed.(n) <- routed.(n) + 1;
    if obs_pid >= 0 then begin
      Obs.Hook.instant
        ~args:
          [
            ("id", Obs.Event.Int r.Request.id);
            ("model", Obs.Event.String r.Request.model);
            ("node", Obs.Event.Int n);
          ]
        ~cat:"fleet" ~name:"route" ~pid:obs_pid ~tid:0
        ~ts:(us r.Request.arrival_s) ();
      Obs.Hook.counter ~cat:"fleet"
        ~name:(Printf.sprintf "routed:node%d" n) ~pid:obs_pid ~tid:0
        ~ts:(us r.Request.arrival_s)
        ~value:(float_of_int routed.(n))
        ()
    end;
    n
  in
  let resident =
    Array.init nodes (fun n ->
        Array.init n_models (fun m ->
            Placement.resident placement ~model:specs.(m).name ~node:n))
  in
  let initially_resident = Array.map Array.copy resident in
  let page_ins = Array.make nodes 0 in
  let page_in_s = Array.make nodes 0. in
  (* a batch dispatched on a node without the weights pays the page-in
     stall as extra cycles on its core (the DMA of the weights) *)
  let page_in ~node:n ~model:m ~now =
    if resident.(n).(m) then None
    else begin
      resident.(n).(m) <- true;
      page_ins.(n) <- page_ins.(n) + 1;
      let pen =
        float_of_int weight_bytes.(m) /. Float.max 1. (page_bandwidth n)
      in
      page_in_s.(n) <- page_in_s.(n) +. pen;
      if obs_pid >= 0 then
        Obs.Hook.span
          ~args:
            [
              ("bytes", Obs.Event.Int weight_bytes.(m));
              ("bandwidth", Obs.Event.Float (page_bandwidth n));
            ]
          ~cat:"fleet" ~name:("page_in:" ^ specs.(m).name) ~pid:obs_pid
          ~tid:(1 + n) ~ts:(us now) ~dur:(us pen) ();
      Some (int_of_float (ceil (pen *. freq_hz)))
    end
  in
  let obs_name n =
    Printf.sprintf "fleet:%s:node%d" config.core.Ascend_arch.Config.name n
  in
  let* r =
    Loop.run ~route ~page_in ~obs_name (loop_config config) loop_specs
  in
  let records = r.Loop.records in
  let batches =
    List.map
      (fun (b : Loop.batch) ->
        let s = specs.(b.Loop.model) in
        {
          bx_model = s.name;
          bx_priority = s.priority;
          bx_size = b.Loop.size;
          bx_node = b.Loop.node;
          bx_core = b.Loop.core;
          bx_start_s = b.Loop.start_s;
          bx_finish_s = b.Loop.finish_s;
          bx_cycles = b.Loop.cycles;
          bx_paged = b.Loop.paged;
        })
      r.Loop.batches
  in
  let slo_of rs =
    let done_ =
      List.filter (fun r -> r.Request.outcome = Request.Completed) rs
    in
    if done_ = [] then 0.
    else
      float_of_int (List.length (List.filter Request.met_slo done_))
      /. float_of_int (List.length done_)
  in
  let node_reports =
    List.init nodes (fun n ->
        let rs = Loop.node_records r n in
        let completed =
          List.length
            (List.filter (fun r -> r.Request.outcome = Request.Completed) rs)
        in
        {
          node = n;
          colocated_training = train_util n > 0.;
          train_interconnect_util = train_util n;
          routed = routed.(n);
          completed;
          rejected = List.length rs - completed;
          page_ins = page_ins.(n);
          page_in_s = page_in_s.(n);
          slo_attainment = slo_of rs;
          node_metrics = Loop.node_metrics r n;
        })
  in
  (* a node's summaries follow the spec order, so [m] indexes [resident] *)
  let routes =
    List.concat_map
      (fun nr ->
        let n = nr.node in
        List.mapi
          (fun m (s : Metrics.model_summary) ->
            {
              rc_node = n;
              rc_model = s.Metrics.model;
              rc_routed = s.Metrics.offered;
              rc_completed = s.Metrics.completed;
              rc_rejected = s.Metrics.rejected;
              rc_paged = resident.(n).(m) && not initially_resident.(n).(m);
              rc_p50_ms = s.Metrics.p50_ms;
              rc_p95_ms = s.Metrics.p95_ms;
              rc_p99_ms = s.Metrics.p99_ms;
            })
          nr.node_metrics.Metrics.summaries)
      node_reports
  in
  let cost = r.Loop.cost in
  Ok
    {
      fleet_config = config;
      placement;
      records;
      batches;
      fleet_metrics = Loop.metrics r;
      node_reports;
      routes;
      training;
      slo_attainment = slo_of (List.map snd records);
      total_page_ins = Array.fold_left ( + ) 0 page_ins;
      cost_hits = Cost.hits cost;
      cost_misses = Cost.misses cost;
      cost_interpolated = Cost.interpolated cost;
      cost_fallbacks = Cost.fallbacks cost;
      cost_stats = Cost.stats cost;
    }

(* --- export -------------------------------------------------------- *)

let observed_page_ins r =
  Array.of_list (List.map (fun nr -> nr.page_ins) r.node_reports)

(* one document shape for both sides of the page-in differential gate:
   the static prediction (Verify.Cluster.predicted_page_ins) and the
   counts a run observes must serialise byte-identically *)
let pagein_json ~policy ~placement ~counts =
  Json.Obj
    [
      ("policy", Json.String (Router.policy_name policy));
      ("nodes", Json.Int placement.Placement.nodes);
      ("placement", Placement.to_json placement);
      ( "page_ins",
        Json.List (Array.to_list (Array.map (fun c -> Json.Int c) counts)) );
      ("total", Json.Int (Array.fold_left ( + ) 0 counts));
    ]

let to_json r =
  let c = r.fleet_config in
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("core", Json.String c.core.Ascend_arch.Config.name);
            ("server", Json.String c.server.Server.server_name);
            ("nodes", Json.Int c.nodes);
            ("cores_per_node", Json.Int c.cores_per_node);
            ("policy", Json.String (Router.policy_name c.policy));
            ("max_batch", Json.Int c.max_batch);
            ("max_delay_ms", Json.Float (1e3 *. c.max_delay_s));
            ("queue_depth", Json.Int c.queue_depth);
            ("duration_s", Json.Float c.duration_s);
            ("costing", Json.String (Cost.costing_name c.costing));
          ] );
      ("placement", Placement.to_json r.placement);
      ( "training",
        match r.training with
        | None -> Json.Null
        | Some t ->
          Json.Obj
            [
              ("model", Json.String t.tr_model);
              ("batch", Json.Int t.tr_batch);
              ("nodes", Json.Int t.tr_nodes);
              ("step_s", Json.Float t.tr_step_s);
              ("images_per_s", Json.Float t.tr_images_per_s);
              ("interconnect_util", Json.Float t.tr_interconnect_util);
            ] );
      ( "fleet",
        Json.Obj
          [
            ("slo_attainment", Json.Float r.slo_attainment);
            ("page_ins", Json.Int r.total_page_ins);
            ("metrics", Metrics.to_json r.fleet_metrics);
          ] );
      ( "nodes",
        Json.List
          (List.map
             (fun nr ->
               Json.Obj
                 [
                   ("node", Json.Int nr.node);
                   ("training", Json.Bool nr.colocated_training);
                   ( "train_interconnect_util",
                     Json.Float nr.train_interconnect_util );
                   ("routed", Json.Int nr.routed);
                   ("completed", Json.Int nr.completed);
                   ("rejected", Json.Int nr.rejected);
                   ("page_ins", Json.Int nr.page_ins);
                   ("page_in_ms", Json.Float (1e3 *. nr.page_in_s));
                   ("slo_attainment", Json.Float nr.slo_attainment);
                   ("metrics", Metrics.to_json nr.node_metrics);
                 ])
             r.node_reports) );
      ( "routing",
        Json.List
          (List.map
             (fun rc ->
               Json.Obj
                 [
                   ("node", Json.Int rc.rc_node);
                   ("model", Json.String rc.rc_model);
                   ("routed", Json.Int rc.rc_routed);
                   ("completed", Json.Int rc.rc_completed);
                   ("rejected", Json.Int rc.rc_rejected);
                   ("paged", Json.Bool rc.rc_paged);
                   ("p50_ms", Json.Float rc.rc_p50_ms);
                   ("p95_ms", Json.Float rc.rc_p95_ms);
                   ("p99_ms", Json.Float rc.rc_p99_ms);
                 ])
             r.routes) );
      ( "batches",
        Json.Obj
          [
            ("count", Json.Int (List.length r.batches));
            ( "paged",
              Json.Int
                (List.length (List.filter (fun b -> b.bx_paged) r.batches)) );
          ] );
      ( "cost_cache",
        Cost.counters_json ~hits:r.cost_hits ~misses:r.cost_misses
          ~interpolated:r.cost_interpolated ~fallbacks:r.cost_fallbacks );
    ]

let mean_utilization (m : Metrics.t) =
  let a = m.Metrics.core_utilization in
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let pp ppf r =
  let c = r.fleet_config in
  Format.fprintf ppf
    "fleet: %d nodes x %d cores (%s, %s), policy %s@."
    c.nodes c.cores_per_node c.server.Server.server_name
    c.core.Ascend_arch.Config.name
    (Router.policy_name c.policy);
  Format.fprintf ppf "%a" Metrics.pp r.fleet_metrics;
  let node_table =
    Table.create
      ~header:
        [ "node"; "train"; "util%"; "routed"; "done"; "rej"; "page-ins";
          "page-in ms"; "slo%" ]
      ()
  in
  List.iter
    (fun nr ->
      Table.add_row node_table
        [
          string_of_int nr.node;
          (if nr.colocated_training then
             Printf.sprintf "%.0f%%" (100. *. nr.train_interconnect_util)
           else "-");
          Printf.sprintf "%.1f" (100. *. mean_utilization nr.node_metrics);
          string_of_int nr.routed;
          string_of_int nr.completed;
          string_of_int nr.rejected;
          string_of_int nr.page_ins;
          Table.cell_float ~decimals:3 (1e3 *. nr.page_in_s);
          Printf.sprintf "%.1f%%" (100. *. nr.slo_attainment);
        ])
    r.node_reports;
  Format.fprintf ppf "%s@." (Table.render node_table);
  let route_table =
    Table.create
      ~header:
        [ "node"; "model"; "routed"; "done"; "rej"; "paged"; "p50 ms";
          "p95 ms"; "p99 ms" ]
      ()
  in
  List.iter
    (fun rc ->
      Table.add_row route_table
        [
          string_of_int rc.rc_node;
          rc.rc_model;
          string_of_int rc.rc_routed;
          string_of_int rc.rc_completed;
          string_of_int rc.rc_rejected;
          (if rc.rc_paged then "yes" else "-");
          Table.cell_float rc.rc_p50_ms;
          Table.cell_float rc.rc_p95_ms;
          Table.cell_float rc.rc_p99_ms;
        ])
    r.routes;
  Format.fprintf ppf "%s@." (Table.render route_table);
  (match r.training with
  | None -> ()
  | Some t ->
    Format.fprintf ppf
      "colocated training: %s batch %d on %d node(s), %.2f ms/step (%.1f \
       img/s/node), %.0f%% of interconnect in all-reduce@."
      t.tr_model t.tr_batch t.tr_nodes (1e3 *. t.tr_step_s)
      t.tr_images_per_s
      (100. *. t.tr_interconnect_util));
  Format.fprintf ppf
    "fleet SLO attainment %.1f%%; %d batches (%d page-ins); latency cache: \
     %d compile+simulate runs, %d cached lookups@."
    (100. *. r.slo_attainment)
    (List.length r.batches) r.total_page_ins r.cost_misses r.cost_hits;
  if r.fleet_config.costing = `Surrogate then
    Format.fprintf ppf
      "surrogate: %d lookups answered from the table, %d priced on first \
       use@."
      r.cost_interpolated r.cost_fallbacks;
  Format.fprintf ppf "exec cache: %a@." Ascend_exec.Cache.pp_stats r.cost_stats
