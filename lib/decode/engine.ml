module Memory_planner = Ascend_compiler.Memory_planner
module Llm = Ascend_nn.Llm
module Stats = Ascend_util.Stats
module Json = Ascend_util.Json
module Obs = Ascend_obs
module Serving = Ascend_serving

type mode = Continuous | Static

let mode_name = function Continuous -> "continuous" | Static -> "static"

type config = {
  core : Ascend_arch.Config.t;
  llm : Llm.config;
  mode : mode;
  costing : Cost.costing;
  max_batch : int;
  hbm_bytes : int;
  max_cache_len : int;
}

let default_config ~core () =
  {
    core;
    llm = Llm.tiny_config;
    mode = Continuous;
    costing = `Exact;
    max_batch = 8;
    hbm_bytes = 1 lsl 30;
    max_cache_len = 64;
  }

type result = {
  run_config : config;
  records : Request.record list;
  steps : Metrics.step list;
  metrics : Metrics.t;
  weight_bytes : int;
  kv_peak_bytes : int;
  cost_hits : int;
  cost_misses : int;
  cost_interpolated : int;
  cost_fallbacks : int;
}

(* one sequence in flight: created at prefill, mutated once per decode
   step, retired at a token boundary *)
type slot = {
  sl_req : Request.t;
  sl_admit_s : float;
  sl_first_token_s : float;
  mutable sl_cache_len : int;
  mutable sl_generated : int;
  mutable sl_last_token_s : float;
  mutable sl_itl_rev : float list;
  (* static batching keeps finished sequences in the group (padding)
     until every member is done; continuous retires them immediately *)
  mutable sl_active : bool;
}

let validate config =
  if config.max_batch < 1 then invalid_arg "Decode.Engine.run: max_batch < 1";
  if config.hbm_bytes < 1 then invalid_arg "Decode.Engine.run: hbm_bytes < 1";
  if config.max_cache_len < 1 then
    invalid_arg "Decode.Engine.run: max_cache_len < 1"

let run config requests =
  validate config;
  List.iter Request.validate requests;
  let requests =
    List.sort
      (fun (a : Request.t) (b : Request.t) ->
        compare (a.arrival_s, a.id) (b.arrival_s, b.id))
      requests
  in
  let cost =
    Cost.create ~costing:config.costing ~max_batch:config.max_batch
      ~max_cache_len:config.max_cache_len ~core:config.core config.llm ()
  in
  let weight_bytes =
    (Memory_planner.plan (Llm.decode ~batch:1 ~cache_len:1 config.llm))
      .Memory_planner.weight_bytes
  in
  let kv_per_token = Llm.kv_bytes_per_token config.llm in
  (* worst-case cache positions a request ever holds: the prompt plus
     every decoded token but the last (appended by the final step) *)
  let reserve (r : Request.t) = r.prompt_len + r.output_len - 1 in
  let feasible (r : Request.t) =
    r.prompt_len + r.output_len <= config.llm.Llm.max_position
    && weight_bytes + (kv_per_token * reserve r) <= config.hbm_bytes
  in
  let obs_pid =
    if not (Obs.Hook.enabled ()) then -1
    else begin
      let pid =
        Obs.Hook.alloc_pid
          ~name:
            (Printf.sprintf "decode:%s:%s"
               config.core.Ascend_arch.Config.name (mode_name config.mode))
      in
      Obs.Hook.name_thread ~pid ~tid:0 "steps";
      Obs.Hook.name_thread ~pid ~tid:1 "requests";
      pid
    end
  in
  let us t = t *. 1e6 in
  let pending = ref requests in
  let waiting = Queue.create () in
  let running = ref [] in
  let now = ref 0. in
  let kv_reserved = ref 0 in
  let kv_peak = ref 0 in
  let records = ref [] in
  let steps = ref [] in
  let live_kv_bytes () =
    kv_per_token
    * List.fold_left (fun acc sl -> acc + sl.sl_cache_len) 0 !running
  in
  let note_kv () =
    let live = live_kv_bytes () in
    if live > !kv_peak then kv_peak := live;
    if obs_pid >= 0 then
      Obs.Hook.counter ~cat:"decode" ~name:"kv_bytes" ~pid:obs_pid ~tid:0
        ~ts:(us !now) ~value:(float_of_int live) ()
  in
  let admit () =
    let rec go () =
      match !pending with
      | r :: rest when r.Request.arrival_s <= !now +. Serving.Request.eps ->
        pending := rest;
        if feasible r then Queue.add r waiting
        else begin
          records := Request.shed r :: !records;
          if obs_pid >= 0 then
            Obs.Hook.instant
              ~args:[ ("id", Obs.Event.Int r.Request.id) ]
              ~cat:"request" ~name:"shed" ~pid:obs_pid ~tid:1
              ~ts:(us r.Request.arrival_s) ()
        end;
        go ()
      | _ -> ()
    in
    go ()
  in
  let fits (r : Request.t) =
    weight_bytes + (kv_per_token * (!kv_reserved + reserve r))
    <= config.hbm_bytes
  in
  let push_step kind ~batch ~tokens ~cache_len ~start_s ~finish_s ~cycles =
    steps :=
      {
        Metrics.st_kind = kind;
        st_batch = batch;
        st_tokens = tokens;
        st_cache_len = cache_len;
        st_start_s = start_s;
        st_finish_s = finish_s;
        st_cycles = cycles;
      }
      :: !steps;
    if obs_pid >= 0 then begin
      Obs.Hook.span
        ~args:
          [
            ("batch", Obs.Event.Int batch);
            ("tokens", Obs.Event.Int tokens);
            ("cache_len", Obs.Event.Int cache_len);
            ("cycles", Obs.Event.Int cycles);
          ]
        ~cat:"decode"
        ~name:(Metrics.step_kind_name kind)
        ~pid:obs_pid ~tid:0 ~ts:(us start_s)
        ~dur:(us (finish_s -. start_s))
        ();
      Obs.Hook.counter ~cat:"decode" ~name:"batch" ~pid:obs_pid ~tid:0
        ~ts:(us finish_s)
        ~value:(float_of_int (List.length !running))
        ()
    end
  in
  let retire sl =
    let r = sl.sl_req in
    records :=
      {
        Request.request = r;
        outcome = Request.Completed;
        admit_s = sl.sl_admit_s;
        first_token_s = sl.sl_first_token_s;
        finish_s = sl.sl_last_token_s;
        itl_s = List.rev sl.sl_itl_rev;
      }
      :: !records;
    kv_reserved := !kv_reserved - reserve r;
    if obs_pid >= 0 then begin
      Obs.Hook.span
        ~args:
          [
            ("id", Obs.Event.Int r.Request.id);
            ("prompt", Obs.Event.Int r.Request.prompt_len);
            ("output", Obs.Event.Int r.Request.output_len);
          ]
        ~cat:"request" ~name:"generate" ~pid:obs_pid ~tid:1
        ~ts:(us r.Request.arrival_s)
        ~dur:(us (sl.sl_last_token_s -. r.Request.arrival_s))
        ();
      Obs.Hook.instant
        ~args:[ ("id", Obs.Event.Int r.Request.id) ]
        ~cat:"request" ~name:"done" ~pid:obs_pid ~tid:1
        ~ts:(us sl.sl_last_token_s) ()
    end
  in
  let prefill_head () =
    let r = Queue.pop waiting in
    let entry =
      match Cost.prefill cost ~batch:1 ~prompt_len:r.Request.prompt_len with
      | Ok e -> e
      | Error e -> raise (Serving.Cost.Unpriced e)
    in
    let start_s = !now in
    let finish_s = start_s +. entry.Cost.latency_s in
    now := finish_s;
    let sl =
      {
        sl_req = r;
        sl_admit_s = start_s;
        sl_first_token_s = finish_s;
        sl_cache_len = r.Request.prompt_len;
        sl_generated = 1;
        sl_last_token_s = finish_s;
        sl_itl_rev = [];
        sl_active = r.Request.output_len > 1;
      }
    in
    running := !running @ [ sl ];
    kv_reserved := !kv_reserved + reserve r;
    push_step Metrics.Prefill ~batch:1 ~tokens:r.Request.prompt_len
      ~cache_len:0 ~start_s ~finish_s ~cycles:entry.Cost.cycles;
    note_kv ()
  in
  let decode_step () =
    let group = !running in
    let batch = List.length group in
    let cache_len =
      List.fold_left (fun acc sl -> max acc sl.sl_cache_len) 0 group
    in
    let active = List.filter (fun sl -> sl.sl_active) group in
    let entry =
      match Cost.decode_step cost ~batch ~cache_len with
      | Ok e -> e
      | Error e -> raise (Serving.Cost.Unpriced e)
    in
    let start_s = !now in
    let finish_s = start_s +. entry.Cost.latency_s in
    now := finish_s;
    List.iter
      (fun sl ->
        sl.sl_itl_rev <- (finish_s -. sl.sl_last_token_s) :: sl.sl_itl_rev;
        sl.sl_last_token_s <- finish_s;
        sl.sl_cache_len <- sl.sl_cache_len + 1;
        sl.sl_generated <- sl.sl_generated + 1;
        if sl.sl_generated >= sl.sl_req.Request.output_len then
          sl.sl_active <- false)
      active;
    push_step Metrics.Decode ~batch
      ~tokens:(List.length active)
      ~cache_len ~start_s ~finish_s ~cycles:entry.Cost.cycles;
    note_kv ()
  in
  let retire_finished () =
    let done_, live = List.partition (fun sl -> not sl.sl_active) !running in
    running := live;
    List.iter retire done_
  in
  let advance_to_next_arrival () =
    match !pending with
    | r :: _ ->
      now := Float.max !now r.Request.arrival_s;
      true
    | [] -> false
  in
  let rec continuous_loop () =
    admit ();
    let room = List.length !running < config.max_batch in
    let head_fits =
      (not (Queue.is_empty waiting)) && fits (Queue.peek waiting)
    in
    if room && head_fits then begin
      prefill_head ();
      retire_finished ();
      continuous_loop ()
    end
    else if !running <> [] then begin
      decode_step ();
      retire_finished ();
      continuous_loop ()
    end
    else if advance_to_next_arrival () then continuous_loop ()
  in
  (* static baseline: form a group from the queue, prefill every member,
     then decode the whole group — priced at the full group size, padding
     included — until the longest member finishes; nobody joins mid-run *)
  let rec static_loop () =
    admit ();
    if !running <> [] then begin
      if List.for_all (fun sl -> not sl.sl_active) !running then begin
        let group = !running in
        running := [];
        List.iter retire group
      end
      else decode_step ();
      static_loop ()
    end
    else if not (Queue.is_empty waiting) then begin
      while
        List.length !running < config.max_batch
        && (not (Queue.is_empty waiting))
        && fits (Queue.peek waiting)
      do
        prefill_head ()
      done;
      static_loop ()
    end
    else if advance_to_next_arrival () then static_loop ()
  in
  match
    match config.mode with
    | Continuous -> continuous_loop ()
    | Static -> static_loop ()
  with
  | () ->
    let records =
      List.sort
        (fun (a : Request.record) (b : Request.record) ->
          compare a.request.Request.id b.request.Request.id)
        !records
    in
    let steps = List.rev !steps in
    Ok
      {
        run_config = config;
        records;
        steps;
        metrics = Metrics.build ~records ~steps;
        weight_bytes;
        kv_peak_bytes = !kv_peak;
        cost_hits = Cost.hits cost;
        cost_misses = Cost.misses cost;
        cost_interpolated = Cost.interpolated cost;
        cost_fallbacks = Cost.fallbacks cost;
      }
  | exception Serving.Cost.Unpriced e -> Error e

let speedup ~continuous ~static =
  Stats.ratio continuous.metrics.Metrics.tokens_per_s
    static.metrics.Metrics.tokens_per_s

let to_json r =
  let c = r.run_config in
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("core", Json.String c.core.Ascend_arch.Config.name);
            ("mode", Json.String (mode_name c.mode));
            ("costing", Json.String (Serving.Cost.costing_name c.costing));
            ("max_batch", Json.Int c.max_batch);
            ("hbm_bytes", Json.Int c.hbm_bytes);
            ("max_cache_len", Json.Int c.max_cache_len);
            ( "llm",
              Json.Obj
                [
                  ("layers", Json.Int c.llm.Llm.layers);
                  ("hidden", Json.Int c.llm.Llm.hidden);
                  ("heads", Json.Int c.llm.Llm.heads);
                  ("max_position", Json.Int c.llm.Llm.max_position);
                ] );
          ] );
      ("metrics", Metrics.to_json r.metrics);
      ( "memory",
        Json.Obj
          [
            ("weight_bytes", Json.Int r.weight_bytes);
            ("kv_peak_bytes", Json.Int r.kv_peak_bytes);
          ] );
      ("steps", Json.Int (List.length r.steps));
      ( "cost_cache",
        Serving.Cost.counters_json ~hits:r.cost_hits ~misses:r.cost_misses
          ~interpolated:r.cost_interpolated ~fallbacks:r.cost_fallbacks );
    ]

let pp ppf r =
  Format.fprintf ppf "%s batching on %s (%s costing):@."
    (mode_name r.run_config.mode)
    r.run_config.core.Ascend_arch.Config.name
    (Serving.Cost.costing_name r.run_config.costing);
  Format.fprintf ppf "%a" Metrics.pp r.metrics;
  Format.fprintf ppf "memory: %a weights + %a KV peak of %a HBM; %d steps@."
    Ascend_util.Units.pp_bytes r.weight_bytes Ascend_util.Units.pp_bytes
    r.kv_peak_bytes Ascend_util.Units.pp_bytes r.run_config.hbm_bytes
    (List.length r.steps);
  Format.fprintf ppf
    "latency cache: %d compile+simulate runs, %d cached lookups@."
    r.cost_misses r.cost_hits;
  if r.run_config.costing = `Surrogate then
    Format.fprintf ppf
      "surrogate: %d interpolated steps, %d out-of-grid fallbacks@."
      r.cost_interpolated r.cost_fallbacks
