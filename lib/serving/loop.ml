module Scheduler = Ascend_runtime.Scheduler
module Prng = Ascend_util.Prng
module Units = Ascend_util.Units
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
  nodes : int;
  cores_per_node : int;
  max_batch : int;
  max_delay_s : float;
  queue_depth : int;
  duration_s : float;
  bucket_s : float;
  costing : Cost.costing;
}

type batch = {
  model : int;
  node : int;
  core : int;
  size : int;
  start_s : float;
  finish_s : float;
  cycles : int;
  paged : bool;
}

type result = {
  config : config;
  specs : model_spec array;
  records : (int * Request.record) list;
  batches : batch list;
  busy : (int * float * float) list array;
  cost : Cost.t;
}

let validate ~who config specs =
  let fail what = invalid_arg (who ^ ": " ^ what) in
  if config.duration_s <= 0. then fail "non-positive duration";
  if config.bucket_s <= 0. then fail "non-positive bucket";
  if specs = [] then fail "no models";
  let names = List.map (fun s -> s.name) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    fail "duplicate model names";
  List.iter
    (fun s ->
      match s.workload with
      | Closed_loop { clients; _ } when clients < 1 ->
        fail "closed loop needs at least one client"
      | _ -> ())
    specs

let run ?(route = fun _ ~queued:_ -> 0)
    ?(page_in = fun ~node:_ ~model:_ ~now:_ -> None) ~obs_name config specs =
  let specs = Array.of_list specs in
  let n_models = Array.length specs in
  let nodes = config.nodes and cpn = config.cores_per_node in
  let cost =
    Cost.create ~costing:config.costing ~max_batch:config.max_batch
      ~core:config.core ()
  in
  let s_of_cycles c =
    Units.seconds_of_cycles ~cycles:c
      ~frequency_ghz:config.core.Ascend_arch.Config.frequency_ghz
  in
  let queues =
    Array.init nodes (fun _ ->
        Array.map
          (fun s ->
            Batcher.create ~label:s.name ~max_batch:config.max_batch
              ~max_delay_s:config.max_delay_s ~queue_depth:config.queue_depth
              ())
          specs)
  in
  (* obs lanes: one process per node, in it one thread per model queue,
     then one per core *)
  let pids =
    Array.init nodes (fun n ->
        if not (Obs.Hook.enabled ()) then -1
        else begin
          let pid = Obs.Hook.alloc_pid ~name:(obs_name n) in
          Array.iteri
            (fun m s -> Obs.Hook.name_thread ~pid ~tid:m ("model:" ^ s.name))
            specs;
          for c = 0 to cpn - 1 do
            Obs.Hook.name_thread ~pid ~tid:(n_models + c)
              (Printf.sprintf "core%d" c)
          done;
          pid
        end)
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
  let fresh_request m ~arrival_s =
    let s = specs.(m) and id = !next_id in
    incr next_id;
    { Request.id; model = s.name; arrival_s; priority = s.priority;
      slo_s = s.slo_ms /. 1e3 }
  in
  let spec_index = Hashtbl.create n_models in
  Array.iteri (fun m s -> Hashtbl.replace spec_index s.name m) specs;
  (* seed the arrival heap: the whole open-loop trace, plus one request
     per closed-loop client at t=0 *)
  let pending = Arrivals.create () in
  Array.iteri
    (fun m s ->
      match s.workload with
      | Open_loop gen ->
        List.iter
          (fun t -> Arrivals.push pending (fresh_request m ~arrival_s:t))
          (Load_gen.arrivals gen)
      | Closed_loop { clients; _ } ->
        for _ = 1 to clients do
          Arrivals.push pending (fresh_request m ~arrival_s:0.)
        done)
    specs;
  let reissue m ~finish_s =
    match (specs.(m).workload, think_rng.(m)) with
    | Closed_loop { think_s; _ }, Some rng ->
      let think =
        if think_s <= 0. then 0.
        else -.think_s *. log (1. -. Prng.float rng ~bound:1.)
      in
      let t = finish_s +. think in
      if t < config.duration_s then
        Arrivals.push pending (fresh_request m ~arrival_s:t)
    | _ -> ()
  in
  let core_free = Array.init nodes (fun _ -> Array.make cpn 0.) in
  let busy = Array.make nodes [] in
  let records = ref [] in
  let batches = ref [] in
  let batch_seq = ref 0 in
  let node_cores = List.init cpn Fun.id in
  (* a request's lifecycle on its model lane:
     arrival -> (queued) -> dispatched -> (execute) -> done *)
  let emit_completed ~pid ~m ~size ~core ~start_s ~finish_s r =
    let name = specs.(m).name and arr = r.Request.arrival_s in
    let id = ("id", Obs.Event.Int r.Request.id) in
    Obs.Hook.span
      ~args:[ id; ("batch", Obs.Event.Int size); ("core", Obs.Event.Int core) ]
      ~cat:"request" ~name ~pid ~tid:m ~ts:(us arr)
      ~dur:(us (finish_s -. arr)) ();
    Obs.Hook.span ~cat:"request" ~name:"queued" ~pid ~tid:m ~ts:(us arr)
      ~dur:(us (start_s -. arr)) ();
    Obs.Hook.span ~cat:"request" ~name:"execute" ~pid ~tid:m ~ts:(us start_s)
      ~dur:(us (finish_s -. start_s)) ();
    Obs.Hook.instant ~args:[ id ] ~cat:"request" ~name:"done" ~pid ~tid:m
      ~ts:(us finish_s) ()
  in
  let dispatch_node now n =
    let pid = pids.(n) in
    let idle =
      List.filter (fun c -> core_free.(n).(c) <= now +. Request.eps) node_cores
    in
    if idle <> [] then begin
      (* drain every ready batch, spec order for determinism; a paged
         batch carries its stall as extra cycles on its core *)
      let ready = ref [] in
      Array.iteri
        (fun m q ->
          while Batcher.ready q ~now do
            let reqs = Batcher.take q in
            if pid >= 0 then
              Obs.Hook.counter ~cat:"serving"
                ~name:("queue_depth:" ^ specs.(m).name) ~pid ~tid:m
                ~ts:(us now)
                ~value:(float_of_int (Batcher.length q))
                ();
            let s = specs.(m) in
            let entry =
              match
                Cost.lookup cost ~model:s.name ~build:s.build
                  ~batch:(List.length reqs)
              with
              | Ok e -> e
              | Error e -> raise (Cost.Unpriced (s.name ^ ": " ^ e))
            in
            let stall = page_in ~node:n ~model:m ~now in
            incr batch_seq;
            let tag = Printf.sprintf "batch%d" (!batch_seq - 1) in
            ready := (tag, (m, reqs, entry, stall)) :: !ready
          done)
        queues.(n);
      let ready = List.rev !ready in
      if ready <> [] then begin
        let idle = Array.of_list idle in
        (* one single-block task per batch; Scheduler.run packs them on
           the idle cores in QoS-priority order *)
        let app (tag, (m, _, (entry : Cost.entry), stall)) =
          let cycles = entry.Cost.cycles + Option.value stall ~default:0 in
          Scheduler.app ~priority:specs.(m).priority ~name:tag
            [
              {
                Scheduler.stream_name = tag;
                tasks =
                  [
                    {
                      Scheduler.task_name = tag;
                      blocks = 1;
                      cycles_per_block = max 1 cycles;
                    };
                  ];
              };
            ]
        in
        let sched =
          Scheduler.run ~cores:(Array.length idle) (List.map app ready)
        in
        List.iter
          (fun (p : Scheduler.placement) ->
            let m, reqs, (entry : Cost.entry), stall =
              List.assoc p.Scheduler.app ready
            in
            let core = idle.(p.Scheduler.core) in
            let start_s = now +. s_of_cycles p.Scheduler.start_cycle in
            let finish_s = now +. s_of_cycles p.Scheduler.end_cycle in
            core_free.(n).(core) <- Float.max core_free.(n).(core) finish_s;
            busy.(n) <- (core, start_s, finish_s) :: busy.(n);
            let size = List.length reqs and cycles = entry.Cost.cycles in
            batches :=
              { model = m; node = n; core; size; start_s; finish_s; cycles;
                paged = stall <> None }
              :: !batches;
            if pid >= 0 then
              Obs.Hook.span
                ~args:
                  [
                    ("size", Obs.Event.Int size);
                    ("cycles", Obs.Event.Int cycles);
                    ("priority", Obs.Event.Int specs.(m).priority);
                  ]
                ~cat:"batch" ~name:specs.(m).name ~pid ~tid:(n_models + core)
                ~ts:(us start_s)
                ~dur:(us (finish_s -. start_s))
                ();
            List.iter
              (fun r ->
                records :=
                  ( n,
                    { Request.request = r; outcome = Request.Completed;
                      start_s; finish_s; batch = size; core } )
                  :: !records;
                if pid >= 0 then
                  emit_completed ~pid ~m ~size ~core ~start_s ~finish_s r;
                reissue m ~finish_s)
              reqs)
          sched.Scheduler.placements
      end
    end
  in
  let queued n =
    Array.fold_left (fun acc q -> acc + Batcher.length q) 0 queues.(n)
  in
  let rec admit now =
    match Arrivals.peek pending with
    | Some r when r.Request.arrival_s <= now +. Request.eps ->
      ignore (Arrivals.pop pending);
      let m = Hashtbl.find spec_index r.Request.model in
      let n = route r ~queued in
      let pid = pids.(n) and q = queues.(n).(m) in
      let ts = us r.Request.arrival_s in
      (match Batcher.offer q r with
      | Batcher.Admitted ->
        if pid >= 0 then
          Obs.Hook.counter ~cat:"serving"
            ~name:("queue_depth:" ^ r.Request.model) ~pid ~tid:m ~ts
            ~value:(float_of_int (Batcher.length q))
            ()
      | Batcher.Shed ->
        records := (n, Request.rejected r) :: !records;
        if pid >= 0 then begin
          Obs.Hook.instant
            ~args:[ ("id", Obs.Event.Int r.Request.id) ]
            ~cat:"request" ~name:"shed" ~pid ~tid:m ~ts ();
          Obs.Hook.counter ~cat:"serving" ~name:("sheds:" ^ r.Request.model)
            ~pid ~tid:m ~ts
            ~value:(float_of_int (Batcher.sheds q))
            ()
        end);
      admit now
    | _ -> ()
  in
  (* the next decision point: an arrival, a batching deadline, or — with
     work queued — a core becoming free *)
  let next_time now =
    let best = ref infinity in
    let consider t = if t > now +. Request.eps && t < !best then best := t in
    Option.iter
      (fun r -> consider r.Request.arrival_s)
      (Arrivals.peek pending);
    Array.iter (Array.iter (fun q -> Option.iter consider (Batcher.deadline q)))
      queues;
    if Array.exists (Array.exists (fun q -> Batcher.length q > 0)) queues then
      Array.iter (Array.iter consider) core_free;
    if !best = infinity then None else Some !best
  in
  let rec step now =
    admit now;
    for n = 0 to nodes - 1 do
      dispatch_node now n
    done;
    match next_time now with None -> () | Some t -> step t
  in
  match step 0. with
  | () ->
    let by_id (_, a) (_, b) =
      compare a.Request.request.Request.id b.Request.request.Request.id
    in
    Ok
      {
        config;
        specs;
        records = List.sort by_id !records;
        batches = List.rev !batches;
        busy;
        cost;
      }
  | exception Cost.Unpriced e -> Error e

let build_metrics r ~cores ~busy records =
  Metrics.build ~duration_s:r.config.duration_s ~bucket_s:r.config.bucket_s
    ~cores
    ~models:
      (Array.to_list
         (Array.map (fun s -> (s.name, s.priority, s.slo_ms)) r.specs))
    ~busy records

(* node 0's cores are already 0 .. cores_per_node - 1 *)
let metrics r =
  let cpn = r.config.cores_per_node in
  let flat n core = (n * cpn) + core in
  build_metrics r ~cores:(r.config.nodes * cpn)
    ~busy:
      (List.concat
         (List.mapi
            (fun n spans ->
              if n = 0 then spans
              else List.map (fun (c, s, f) -> (flat n c, s, f)) spans)
            (Array.to_list r.busy)))
    (List.map
       (fun (n, x) ->
         if n = 0 || x.Request.outcome <> Request.Completed then x
         else { x with Request.core = flat n x.Request.core })
       r.records)

let node_records r n =
  List.filter_map (fun (n', x) -> if n' = n then Some x else None) r.records

let node_metrics r n =
  build_metrics r ~cores:r.config.cores_per_node ~busy:r.busy.(n)
    (node_records r n)
