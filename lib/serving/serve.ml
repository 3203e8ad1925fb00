module Scheduler = Ascend_runtime.Scheduler
module Prng = Ascend_util.Prng
module Units = Ascend_util.Units
module Json = Ascend_util.Json
module Obs = Ascend_obs
module Arrivals = Request.Arrivals

type workload =
  | Open_loop of Load_gen.t
  | Closed_loop of { clients : int; think_s : float; seed : int }

type model_spec = {
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

let costing_name = function `Exact -> "exact" | `Surrogate -> "surrogate"

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

exception Cost_error of string

let eps = 1e-12

let validate config specs =
  if config.cores <= 0 then invalid_arg "Serve.run: non-positive cores";
  if config.duration_s <= 0. then
    invalid_arg "Serve.run: non-positive duration";
  if config.bucket_s <= 0. then invalid_arg "Serve.run: non-positive bucket";
  if specs = [] then invalid_arg "Serve.run: no models";
  let names = List.map (fun s -> s.name) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Serve.run: duplicate model names";
  List.iter
    (fun s ->
      match s.workload with
      | Closed_loop { clients; _ } when clients < 1 ->
        invalid_arg "Serve.run: closed loop needs at least one client"
      | _ -> ())
    specs

let run config specs =
  validate config specs;
  let specs = Array.of_list specs in
  let n_models = Array.length specs in
  let cost =
    Cost.create ~costing:config.costing ~max_batch:config.max_batch
      ~core:config.core ()
  in
  let s_of_cycles c =
    Units.seconds_of_cycles ~cycles:c
      ~frequency_ghz:config.core.Ascend_arch.Config.frequency_ghz
  in
  let queues =
    Array.map
      (fun s ->
        Batcher.create ~label:s.name ~max_batch:config.max_batch
          ~max_delay_s:config.max_delay_s ~queue_depth:config.queue_depth ())
      specs
  in
  (* obs lanes: one thread per model queue, then one per core.
     Timestamps are simulated seconds scaled to microseconds — virtual
     time, so a traced run stays byte-reproducible. *)
  let obs_pid =
    if not (Obs.Hook.enabled ()) then -1
    else begin
      let pid =
        Obs.Hook.alloc_pid
          ~name:("serve:" ^ config.core.Ascend_arch.Config.name)
      in
      Array.iteri
        (fun i s -> Obs.Hook.name_thread ~pid ~tid:i ("model:" ^ s.name))
        specs;
      for c = 0 to config.cores - 1 do
        Obs.Hook.name_thread ~pid ~tid:(n_models + c)
          (Printf.sprintf "core%d" c)
      done;
      pid
    end
  in
  let us t = t *. 1e6 in
  let think_rng =
    Array.map
      (fun s ->
        match s.workload with
        | Closed_loop { seed; _ } -> Some (Prng.create ~seed)
        | Open_loop _ -> None)
      specs
  in
  let next_id = ref 0 in
  let fresh_request spec_idx ~arrival_s =
    let s = specs.(spec_idx) in
    let r =
      {
        Request.id = !next_id;
        model = s.name;
        arrival_s;
        priority = s.priority;
        slo_s = s.slo_ms /. 1e3;
      }
    in
    incr next_id;
    r
  in
  let spec_index = Hashtbl.create n_models in
  Array.iteri (fun i s -> Hashtbl.replace spec_index s.name i) specs;
  (* seed the arrival heap: the whole open-loop trace, plus one request
     per closed-loop client at t=0 *)
  let pending = Arrivals.create () in
  Array.iteri
    (fun i s ->
      match s.workload with
      | Open_loop gen ->
        List.iter
          (fun t -> Arrivals.push pending (fresh_request i ~arrival_s:t))
          (Load_gen.arrivals gen)
      | Closed_loop { clients; _ } ->
        for _ = 1 to clients do
          Arrivals.push pending (fresh_request i ~arrival_s:0.)
        done)
    specs;
  let core_free = Array.make config.cores 0. in
  let busy_spans = ref [] in
  let records = ref [] in
  let batches = ref [] in
  let batch_seq = ref 0 in
  let reissue spec_idx ~finish_s =
    match (specs.(spec_idx).workload, think_rng.(spec_idx)) with
    | Closed_loop { think_s; _ }, Some rng ->
      let think =
        if think_s <= 0. then 0.
        else -.think_s *. log (1. -. Prng.float rng ~bound:1.)
      in
      let t = finish_s +. think in
      if t < config.duration_s then
        Arrivals.push pending (fresh_request spec_idx ~arrival_s:t)
    | _ -> ()
  in
  let price spec_idx ~batch =
    let s = specs.(spec_idx) in
    match Cost.lookup cost ~model:s.name ~build:s.build ~batch with
    | Ok e -> e
    | Error e -> raise (Cost_error (s.name ^ ": " ^ e))
  in
  let all_cores = List.init config.cores Fun.id in
  let dispatch now =
    let idle = List.filter (fun c -> core_free.(c) <= now +. eps) all_cores in
    if idle <> [] then begin
      (* drain every ready batch, spec order for determinism *)
      let ready = ref [] in
      Array.iteri
        (fun i q ->
          while Batcher.ready q ~now do
            let reqs = Batcher.take q in
            if obs_pid >= 0 then
              Obs.Hook.counter ~cat:"serving"
                ~name:("queue_depth:" ^ specs.(i).name) ~pid:obs_pid ~tid:i
                ~ts:(us now)
                ~value:(float_of_int (Batcher.length q))
                ();
            let entry = price i ~batch:(List.length reqs) in
            ready := (i, reqs, entry) :: !ready
          done)
        queues;
      let ready = List.rev !ready in
      if ready <> [] then begin
        let idle_arr = Array.of_list idle in
        (* one single-block task per batch; Scheduler.run packs them on
           the idle cores in QoS-priority order *)
        let tagged =
          List.map
            (fun (i, reqs, entry) ->
              let tag = Printf.sprintf "batch%d" !batch_seq in
              incr batch_seq;
              (tag, i, reqs, entry))
            ready
        in
        let apps =
          List.map
            (fun (tag, i, _reqs, (entry : Cost.entry)) ->
              Scheduler.app ~priority:specs.(i).priority ~name:tag
                [
                  {
                    Scheduler.stream_name = tag;
                    tasks =
                      [
                        {
                          Scheduler.task_name = tag;
                          blocks = 1;
                          cycles_per_block = max 1 entry.Cost.cycles;
                        };
                      ];
                  };
                ])
            tagged
        in
        let sched = Scheduler.run ~cores:(Array.length idle_arr) apps in
        List.iter
          (fun (p : Scheduler.placement) ->
            let _tag, i, reqs, (entry : Cost.entry) =
              List.find (fun (tag, _, _, _) -> tag = p.Scheduler.app) tagged
            in
            let core = idle_arr.(p.Scheduler.core) in
            let start_s = now +. s_of_cycles p.Scheduler.start_cycle in
            let finish_s = now +. s_of_cycles p.Scheduler.end_cycle in
            core_free.(core) <- Float.max core_free.(core) finish_s;
            busy_spans := (core, start_s, finish_s) :: !busy_spans;
            let size = List.length reqs in
            batches :=
              {
                bx_model = specs.(i).name;
                bx_priority = specs.(i).priority;
                bx_size = size;
                bx_core = core;
                bx_start_s = start_s;
                bx_finish_s = finish_s;
                bx_cycles = entry.Cost.cycles;
              }
              :: !batches;
            if obs_pid >= 0 then
              Obs.Hook.span
                ~args:
                  [
                    ("size", Obs.Event.Int size);
                    ("cycles", Obs.Event.Int entry.Cost.cycles);
                    ("priority", Obs.Event.Int specs.(i).priority);
                  ]
                ~cat:"batch" ~name:specs.(i).name ~pid:obs_pid
                ~tid:(n_models + core) ~ts:(us start_s)
                ~dur:(us (finish_s -. start_s))
                ();
            List.iter
              (fun r ->
                records :=
                  {
                    Request.request = r;
                    outcome = Request.Completed;
                    start_s;
                    finish_s;
                    batch = size;
                    core;
                  }
                  :: !records;
                (* request lifecycle on the model lane:
                   arrival -> (queued) -> dispatched -> (execute) -> done *)
                if obs_pid >= 0 then begin
                  let arr = r.Request.arrival_s in
                  Obs.Hook.span
                    ~args:
                      [
                        ("id", Obs.Event.Int r.Request.id);
                        ("batch", Obs.Event.Int size);
                        ("core", Obs.Event.Int core);
                      ]
                    ~cat:"request" ~name:specs.(i).name ~pid:obs_pid ~tid:i
                    ~ts:(us arr)
                    ~dur:(us (finish_s -. arr))
                    ();
                  Obs.Hook.span
                    ~cat:"request" ~name:"queued" ~pid:obs_pid ~tid:i
                    ~ts:(us arr)
                    ~dur:(us (start_s -. arr))
                    ();
                  Obs.Hook.span ~cat:"request" ~name:"execute" ~pid:obs_pid
                    ~tid:i ~ts:(us start_s)
                    ~dur:(us (finish_s -. start_s))
                    ();
                  Obs.Hook.instant
                    ~args:[ ("id", Obs.Event.Int r.Request.id) ]
                    ~cat:"request" ~name:"done" ~pid:obs_pid ~tid:i
                    ~ts:(us finish_s) ()
                end;
                reissue i ~finish_s)
              reqs)
          sched.Scheduler.placements
      end
    end
  in
  let admit now =
    let rec go () =
      match Arrivals.peek pending with
      | Some r when r.Request.arrival_s <= now +. eps ->
        ignore (Arrivals.pop pending);
        let i = Hashtbl.find spec_index r.Request.model in
        (match Batcher.offer queues.(i) r with
        | Batcher.Admitted ->
          if obs_pid >= 0 then
            Obs.Hook.counter ~cat:"serving"
              ~name:("queue_depth:" ^ r.Request.model) ~pid:obs_pid ~tid:i
              ~ts:(us r.Request.arrival_s)
              ~value:(float_of_int (Batcher.length queues.(i)))
              ()
        | Batcher.Shed ->
          records := Request.rejected r :: !records;
          if obs_pid >= 0 then begin
            Obs.Hook.instant
              ~args:[ ("id", Obs.Event.Int r.Request.id) ]
              ~cat:"request" ~name:"shed" ~pid:obs_pid ~tid:i
              ~ts:(us r.Request.arrival_s) ();
            Obs.Hook.counter ~cat:"serving"
              ~name:("sheds:" ^ r.Request.model) ~pid:obs_pid ~tid:i
              ~ts:(us r.Request.arrival_s)
              ~value:(float_of_int (Batcher.sheds queues.(i)))
              ()
          end);
        go ()
      | _ -> ()
    in
    go ()
  in
  let next_time now =
    let best = ref infinity in
    let consider t = if t > now +. eps && t < !best then best := t in
    (match Arrivals.peek pending with
    | Some r -> consider r.Request.arrival_s
    | None -> ());
    Array.iter
      (fun q -> match Batcher.deadline q with Some d -> consider d | None -> ())
      queues;
    let queued = Array.exists (fun q -> Batcher.length q > 0) queues in
    if queued then Array.iter consider core_free;
    if !best = infinity then None else Some !best
  in
  let rec step now =
    admit now;
    dispatch now;
    match next_time now with None -> () | Some t -> step t
  in
  match step 0. with
  | () ->
    let records =
      List.sort
        (fun a b ->
          compare a.Request.request.Request.id b.Request.request.Request.id)
        !records
    in
    let batches = List.rev !batches in
    let metrics =
      Metrics.build ~duration_s:config.duration_s ~bucket_s:config.bucket_s
        ~cores:config.cores
        ~models:
          (Array.to_list
             (Array.map (fun s -> (s.name, s.priority, s.slo_ms)) specs))
        ~busy:!busy_spans records
    in
    (* offline cross-check: the same batches as one closed §5.2 schedule *)
    let offline =
      let apps =
        Array.to_list specs
        |> List.map (fun s ->
               let streams =
                 List.filter (fun b -> b.bx_model = s.name) batches
                 |> List.mapi (fun j b ->
                        {
                          Scheduler.stream_name =
                            Printf.sprintf "%s.%d" s.name j;
                          tasks =
                            [
                              {
                                Scheduler.task_name =
                                  Printf.sprintf "%s.%d" s.name j;
                                blocks = 1;
                                cycles_per_block = max 1 b.bx_cycles;
                              };
                            ];
                        })
               in
               Scheduler.app ~priority:s.priority ~name:s.name streams)
        |> List.filter (fun (a : Scheduler.app) -> a.Scheduler.streams <> [])
      in
      Scheduler.run ~cores:config.cores apps
    in
    Ok
      {
        served_config = config;
        records;
        batches;
        metrics;
        offline_makespan_cycles = offline.Scheduler.makespan_cycles;
        offline_utilization = Scheduler.utilization offline;
        cost_hits = Cost.hits cost;
        cost_misses = Cost.misses cost;
        cost_interpolated = Cost.interpolated cost;
        cost_fallbacks = Cost.fallbacks cost;
        cost_stats = Cost.stats cost;
      }
  | exception Cost_error e -> Error e

let scheduler_apps result =
  let models =
    List.sort_uniq compare (List.map (fun b -> b.bx_model) result.batches)
  in
  List.filter_map
    (fun model ->
      let mine = List.filter (fun b -> b.bx_model = model) result.batches in
      match mine with
      | [] -> None
      | b :: _ ->
        Some
          (Scheduler.app ~priority:b.bx_priority ~name:model
             (List.mapi
                (fun j b ->
                  {
                    Scheduler.stream_name = Printf.sprintf "%s.%d" model j;
                    tasks =
                      [
                        {
                          Scheduler.task_name = Printf.sprintf "%s.%d" model j;
                          blocks = 1;
                          cycles_per_block = max 1 b.bx_cycles;
                        };
                      ];
                  })
                mine)))
    models

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
            ("costing", Json.String (costing_name c.costing));
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
        Json.Obj
          [
            ("hits", Json.Int r.cost_hits);
            ("misses", Json.Int r.cost_misses);
            ("interpolated", Json.Int r.cost_interpolated);
            ("fallbacks", Json.Int r.cost_fallbacks);
            ("disk_hits", Json.Int r.cost_stats.Ascend_exec.Cache.disk_hits);
            ( "disk_writes",
              Json.Int r.cost_stats.Ascend_exec.Cache.disk_writes );
            ( "disk_entries",
              Json.Int r.cost_stats.Ascend_exec.Cache.disk_entries );
          ] );
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
      "surrogate: %d interpolated lookups, %d out-of-range fallbacks@."
      r.cost_interpolated r.cost_fallbacks;
  Format.fprintf ppf "exec cache: %a@." Ascend_exec.Cache.pp_stats r.cost_stats
