(* Command-line front end to the simulator.

     dune exec bin/ascend_cli.exe -- simulate resnet50 --core max
     dune exec bin/ascend_cli.exe -- profile bert-large --core max --training
     dune exec bin/ascend_cli.exe -- disasm mobilenet --core lite --layer 3
     dune exec bin/ascend_cli.exe -- streams siamese --core standard --cores 4
     dune exec bin/ascend_cli.exe -- trace gesture --core tiny -o trace.json
     dune exec bin/ascend_cli.exe -- list

   Run with no subcommand for the consolidated usage summary. *)

open Cmdliner
module Config = Ascend.Arch.Config
module Engine = Ascend.Compiler.Engine
module Graph = Ascend.Nn.Graph

let models : (string * (batch:int -> Graph.t)) list =
  [
    ("resnet50", fun ~batch -> Ascend.Nn.Resnet.v1_5 ~batch ());
    ("resnet18", fun ~batch -> Ascend.Nn.Resnet.v1_5_18 ~batch ());
    ("mobilenet", fun ~batch -> Ascend.Nn.Mobilenet.v2 ~batch ());
    ("vgg16", fun ~batch -> Ascend.Nn.Vgg.v16 ~batch ());
    ("bert-base", fun ~batch -> Ascend.Nn.Bert.base ~batch ~seq_len:128 ());
    ("bert-large", fun ~batch -> Ascend.Nn.Bert.large ~batch ~seq_len:128 ());
    ("gesture", fun ~batch -> Ascend.Nn.Gesture.build ~batch ());
    ("siamese", fun ~batch -> Ascend.Nn.Siamese.build ~batch ());
    ("wide-deep", fun ~batch -> Ascend.Nn.Wide_deep.default ~batch ());
    ("pointnet", fun ~batch -> Ascend.Nn.Pointnet.build ~batch ());
    ("face-detect", fun ~batch -> Ascend.Nn.Face_detect.build ~batch ());
    ("fpn-detector", fun ~batch -> Ascend.Nn.Fpn_detector.build ~batch ());
    ( "llm-prefill",
      fun ~batch ->
        Ascend.Nn.Llm.prefill ~batch ~seq_len:64 Ascend.Nn.Llm.tiny_config );
    ( "llm-decode",
      fun ~batch ->
        Ascend.Nn.Llm.decode ~batch ~cache_len:128 Ascend.Nn.Llm.tiny_config );
  ]

let cores =
  [
    ("tiny", Config.tiny);
    ("lite", Config.lite);
    ("mini", Config.mini);
    ("standard", Config.standard);
    ("max", Config.max);
  ]

let model_conv =
  let parse s =
    match List.assoc_opt s models with
    | Some f -> Ok f
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown model %s (try: %s)" s
             (String.concat ", " (List.map fst models))))
  in
  Arg.conv (parse, fun ppf _ -> Format.pp_print_string ppf "<model>")

let named_model_conv =
  let parse s =
    match List.assoc_opt s models with
    | Some f -> Ok (s, f)
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown model %s (try: %s)" s
             (String.concat ", " (List.map fst models))))
  in
  Arg.conv (parse, fun ppf (name, _) -> Format.pp_print_string ppf name)

let core_conv =
  let parse s =
    match List.assoc_opt s cores with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown core %s (try: %s)" s
             (String.concat ", " (List.map fst cores))))
  in
  Arg.conv (parse, fun ppf (c : Config.t) ->
      Format.pp_print_string ppf c.Config.name)

let model_arg =
  Arg.(required & pos 0 (some model_conv) None & info [] ~docv:"MODEL")

let core_arg =
  Arg.(value & opt core_conv Config.max & info [ "core" ] ~docv:"CORE"
         ~doc:"Core version: tiny, lite, mini, standard or max.")

let batch_arg =
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc:"Batch size.")

let training_arg =
  Arg.(value & flag & info [ "training" ] ~doc:"Simulate forward + backward.")

let run_model build config ~batch ~training =
  let graph = build ~batch in
  let run = if training then Engine.run_training else Engine.run_inference in
  run config graph

let exit_of = function
  | Ok () -> 0
  | Error e ->
    prerr_endline ("error: " ^ e);
    1

(* library entry points raise [Invalid_argument] on malformed input
   (non-positive rates, durations, cores or nodes; duplicate models):
   turn it into an [Error] so [exit_of] prints one line and exits 1 *)
let catching_invalid f = try f () with Invalid_argument msg -> Error msg

let ( let* ) = Result.bind

(* '-' is stdout *)
let write_json path doc =
  if path = "-" then print_endline (Ascend.Util.Json.to_string ~pretty:true doc)
  else Ascend.Util.Json.write_file path doc

(* --- simulate ----------------------------------------------------- *)

let simulate build config batch training =
  exit_of
    (match run_model build config ~batch ~training with
    | Error _ as e -> e
    | Ok r ->
      Format.printf
        "%s on %s (batch %d%s): %a, %.2f W average, %.3f mJ, %d layers@."
        r.Engine.graph_name config.Config.name batch
        (if training then ", training" else "")
        Ascend.Util.Units.pp_seconds (Engine.seconds r)
        (Engine.average_power_w r)
        (r.Engine.total_energy_j *. 1e3)
        (List.length r.Engine.layers);
      Format.printf "throughput: %.1f items/s@."
        (Engine.inferences_per_second r ~batch);
      Ok ())

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Compile and simulate a model on one core.")
    Term.(const simulate $ model_arg $ core_arg $ batch_arg $ training_arg)

(* --- profile ------------------------------------------------------ *)

let profile build config batch training =
  exit_of
    (match run_model build config ~batch ~training with
    | Error _ as e -> e
    | Ok r ->
      Format.printf "%a@." Engine.pp_layer_table r;
      Ok ())

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Per-layer cube/vector cycle profile (the paper's Figures 4-8).")
    Term.(const profile $ model_arg $ core_arg $ batch_arg $ training_arg)

(* --- disasm ------------------------------------------------------- *)

let layer_arg =
  Arg.(value & opt int 0 & info [ "layer" ] ~docv:"I" ~doc:"Layer index.")

let disasm build config batch layer =
  exit_of
    (match run_model build config ~batch ~training:false with
    | Error e -> Error e
    | Ok r -> (
      match List.nth_opt r.Engine.layers layer with
      | None ->
        Error (Printf.sprintf "layer %d out of range (0..%d)" layer
                 (List.length r.Engine.layers - 1))
      | Some l ->
        Format.printf "%a@." Ascend.Isa.Program.pp l.Engine.program;
        let instrs = l.Engine.program.Ascend.Isa.Program.instructions in
        Format.printf
          "instruction stream: %d instructions, %d B raw, compression ratio \
           %.2f@."
          (List.length instrs)
          (Bytes.length (Ascend.Isa.Encoding.encode instrs))
          (Ascend.Isa.Encoding.compression_ratio instrs);
        Ok ()))

let disasm_cmd =
  Cmd.v
    (Cmd.info "disasm"
       ~doc:"Disassemble the generated program of one fused layer.")
    Term.(const disasm $ model_arg $ core_arg $ batch_arg $ layer_arg)

(* --- streams ------------------------------------------------------ *)

let cores_arg =
  Arg.(value & opt int 2 & info [ "cores" ] ~docv:"N" ~doc:"SoC core count.")

let streams build config batch cores =
  exit_of
    (match
       Ascend.Compiler.Graph_engine.plan config (build ~batch)
     with
    | Error _ as e -> e
    | Ok p ->
      Format.printf "%a@." Ascend.Compiler.Graph_engine.pp p;
      Format.printf
        "serial %d cycles; makespan on %d cores: %d cycles (%.2fx speedup)@."
        (Ascend.Compiler.Graph_engine.serial_cycles p)
        cores
        (Ascend.Compiler.Graph_engine.makespan p ~cores)
        (float_of_int (Ascend.Compiler.Graph_engine.serial_cycles p)
        /. float_of_int (Ascend.Compiler.Graph_engine.makespan p ~cores));
      Ok ())

let streams_cmd =
  Cmd.v
    (Cmd.info "streams"
       ~doc:"Decompose a model into streams (the §5.1 graph engine) and \
             schedule them across cores.")
    Term.(const streams $ model_arg $ core_arg $ batch_arg $ cores_arg)

(* --- serve -------------------------------------------------------- *)

module Serve = Ascend.Serving.Serve
module Load_gen = Ascend.Serving.Load_gen
module Obs = Ascend.Obs

let serve_models_arg =
  Arg.(
    required
    & pos 0 (some (list named_model_conv)) None
    & info [] ~docv:"MODEL[,MODEL...]"
        ~doc:"Comma-separated list of models to serve concurrently.")

let rate_arg =
  Arg.(
    value
    & opt (list float) [ 100. ]
    & info [ "rate" ] ~docv:"R"
        ~doc:
          "Open-loop arrival rate in requests/s, one value per model (a \
           single value applies to all).")

let duration_arg =
  Arg.(
    value & opt float 1.0
    & info [ "duration" ] ~docv:"S" ~doc:"Load window in simulated seconds.")

let batch_max_arg =
  Arg.(
    value & opt int 8
    & info [ "batch-max" ] ~docv:"B" ~doc:"Dynamic batcher size bound.")

let batch_delay_arg =
  Arg.(
    value & opt float 2.0
    & info [ "batch-delay-ms" ] ~docv:"MS"
        ~doc:"Max time a request may wait for batch peers.")

let queue_depth_arg =
  Arg.(
    value & opt int 64
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:"Admission bound: requests arriving past this queue depth are \
              shed.")

let slo_arg =
  Arg.(
    value
    & opt (list float) [ 50. ]
    & info [ "slo-ms" ] ~docv:"MS"
        ~doc:"Latency SLO per model (a single value applies to all).")

let priority_arg =
  Arg.(
    value
    & opt (list int) [ 0 ]
    & info [ "priority" ] ~docv:"P"
        ~doc:"QoS priority per model, higher wins (a single value applies \
              to all).")

let process_arg =
  Arg.(
    value
    & opt (enum [ ("uniform", `Uniform); ("poisson", `Poisson);
                  ("bursty", `Bursty) ])
        `Poisson
    & info [ "process" ] ~docv:"P"
        ~doc:"Arrival process: uniform, poisson or bursty.")

let burst_factor_arg =
  Arg.(
    value & opt float 4.0
    & info [ "burst-factor" ] ~docv:"F"
        ~doc:"Bursty process: on-phase rate multiplier (mean rate is \
              preserved).")

let burst_period_arg =
  Arg.(
    value & opt float 100.0
    & info [ "burst-period-ms" ] ~docv:"MS"
        ~doc:"Bursty process: on/off window period.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"PRNG seed; the same seed reproduces the run bit-for-bit.")

let closed_arg =
  Arg.(
    value & opt int 0
    & info [ "closed" ] ~docv:"CLIENTS"
        ~doc:"Closed-loop mode with this many concurrent clients per model \
              (0: open loop at --rate).")

let think_arg =
  Arg.(
    value & opt float 0.
    & info [ "think-ms" ] ~docv:"MS"
        ~doc:"Closed-loop mean think time between a completion and the \
              client's next request.")

let bucket_arg =
  Arg.(
    value & opt float 50.
    & info [ "bucket-ms" ] ~docv:"MS" ~doc:"Occupancy-series bucket width.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the full metrics report as JSON ('-': stdout).")

let costing_arg =
  Arg.(
    value
    & opt (enum [ ("exact", `Exact); ("surrogate", `Surrogate) ]) `Exact
    & info [ "costing" ] ~docv:"TIER"
        ~doc:
          "Batch pricing tier: 'exact' prices every distinct (model, batch) \
           through the cycle-level compile+simulate path; 'surrogate' \
           interpolates a per-model piecewise-linear table calibrated on \
           anchor batch sizes (validate with the 'calibrate' command).")

let serve_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Also capture the run's observability trace (request lifecycle \
           spans, queue-depth and shed counters, batch spans, cost-oracle \
           compile+simulate pipe spans) as Chrome trace-event JSON.")

let broadcast ~what n = function
  | [ x ] -> Ok (List.init n (fun _ -> x))
  | l when List.length l = n -> Ok l
  | l ->
    Error
      (Printf.sprintf "%s: expected 1 or %d value(s), got %d" what n
         (List.length l))

(* --process and its two burst knobs as one arrival process *)
let process_term =
  let make process factor period_ms =
    match process with
    | `Uniform -> Load_gen.Uniform
    | `Poisson -> Load_gen.Poisson
    | `Bursty -> Load_gen.Bursty { factor; period_s = period_ms /. 1e3 }
  in
  Term.(const make $ process_arg $ burst_factor_arg $ burst_period_arg)

(* the traffic flags serve and fleet share *)
type traffic = {
  rates : float list;
  duration : float;
  batch_max : int;
  delay_ms : float;
  queue_depth : int;
  slos : float list;
  priorities : int list;
  process : Load_gen.process;
  seed : int;
  closed : int;
  think_ms : float;
  bucket_ms : float;
  costing : Ascend.Serving.Cost.costing;
}

let traffic_term =
  let make rates duration batch_max delay_ms queue_depth slos priorities
      process seed closed think_ms bucket_ms costing =
    { rates; duration; batch_max; delay_ms; queue_depth; slos; priorities;
      process; seed; closed; think_ms; bucket_ms; costing }
  in
  Term.(
    const make $ rate_arg $ duration_arg $ batch_max_arg $ batch_delay_arg
    $ queue_depth_arg $ slo_arg $ priority_arg $ process_term $ seed_arg
    $ closed_arg $ think_arg $ bucket_arg $ costing_arg)

(* one spec per model; model i draws from seed + 7919 i *)
let model_specs t models =
  let n = List.length models in
  let* rates = broadcast ~what:"--rate" n t.rates in
  let* slos = broadcast ~what:"--slo-ms" n t.slos in
  let* priorities = broadcast ~what:"--priority" n t.priorities in
  catching_invalid (fun () ->
      Ok
        (List.mapi
           (fun i ((name, build), (rate, (slo_ms, priority))) ->
             let seed = t.seed + (7919 * i) in
             let workload =
               if t.closed > 0 then
                 Serve.Closed_loop
                   { clients = t.closed; think_s = t.think_ms /. 1e3; seed }
               else
                 Serve.Open_loop
                   (Load_gen.create ~process:t.process ~rate_per_s:rate
                      ~duration_s:t.duration ~seed ())
             in
             { Serve.name; build; priority; slo_ms; workload })
           (List.combine models
              (List.combine rates (List.combine slos priorities)))))

(* serve, fleet and decode: run [f] under a trace collector when --trace
   is given; [f] prints its report and returns the JSON documents to
   write, each with its optional path; the trace is written last *)
let run_reported ~trace_path f =
  let collector =
    Option.map (fun _ -> Obs.Collector.create ~capacity:262144 ()) trace_path
  in
  let* docs =
    catching_invalid (fun () ->
        match collector with
        | None -> f ()
        | Some c -> Obs.Hook.with_collector c f)
  in
  List.iter (fun (path, doc) -> Option.iter (fun p -> write_json p doc) path)
    docs;
  (match (trace_path, collector) with
  | Some path, Some c ->
    Obs.Chrome_trace.write_file path c;
    Format.printf "trace: wrote %s (%d events, %d dropped)@." path
      (Obs.Collector.length c) (Obs.Collector.dropped c)
  | _ -> ());
  Ok ()

let serve models core cores t json_path trace_path =
  exit_of
    (let* specs = model_specs t models in
     let config =
       {
         Serve.core;
         cores;
         max_batch = t.batch_max;
         max_delay_s = t.delay_ms /. 1e3;
         queue_depth = t.queue_depth;
         duration_s = t.duration;
         bucket_s = t.bucket_ms /. 1e3;
         costing = t.costing;
       }
     in
     run_reported ~trace_path (fun () ->
         let* r = Serve.run config specs in
         Format.printf "%a" Serve.pp r;
         Ok [ (json_path, Serve.to_json r) ]))

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Simulate request-level serving: seeded load generation, dynamic \
          batching, QoS admission control and SLO metrics (p50/p95/p99, \
          goodput, rejection rate, per-core utilization) over the §5.2 \
          multi-core scheduler.")
    Term.(
      const serve $ serve_models_arg $ core_arg $ cores_arg $ traffic_term
      $ json_arg $ serve_trace_arg)

(* --- decode ------------------------------------------------------- *)

module Decode_engine = Ascend.Decode.Engine
module Decode_request = Ascend.Decode.Request

let decode_rate_arg =
  Arg.(
    value & opt float 40.
    & info [ "rate" ] ~docv:"R"
        ~doc:"Open-loop arrival rate in requests/s.")

let prompt_mean_arg =
  Arg.(
    value & opt float 16.
    & info [ "prompt-mean" ] ~docv:"TOK"
        ~doc:"Mean prompt length (geometric distribution).")

let prompt_max_arg =
  Arg.(
    value & opt int 48
    & info [ "prompt-max" ] ~docv:"TOK" ~doc:"Prompt length cap.")

let output_mean_arg =
  Arg.(
    value & opt float 8.
    & info [ "output-mean" ] ~docv:"TOK"
        ~doc:"Mean output length (geometric distribution).")

let output_max_arg =
  Arg.(
    value & opt int 32
    & info [ "output-max" ] ~docv:"TOK" ~doc:"Output length cap.")

let fixed_prompt_arg =
  Arg.(
    value & opt int 0
    & info [ "fixed-prompt" ] ~docv:"TOK"
        ~doc:"Use a fixed prompt length instead of the geometric draw \
              (0: geometric).")

let fixed_output_arg =
  Arg.(
    value & opt int 0
    & info [ "fixed-output" ] ~docv:"TOK"
        ~doc:"Use a fixed output length instead of the geometric draw \
              (0: geometric).")

let hbm_mb_arg =
  Arg.(
    value & opt int 1024
    & info [ "hbm-mb" ] ~docv:"MB"
        ~doc:"HBM budget for weights + live KV caches; requests whose cache \
              could never fit are shed.")

let max_cache_len_arg =
  Arg.(
    value & opt int 64
    & info [ "max-cache-len" ] ~docv:"TOK"
        ~doc:"Surrogate grid bound on the cache-length axis (decode steps \
              beyond it fall back to the exact tier).")

let decode_mode_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("continuous", `Continuous); ("static", `Static);
             ("compare", `Compare) ])
        `Continuous
    & info [ "mode" ] ~docv:"MODE"
        ~doc:
          "Batching discipline: 'continuous' (join/leave at token \
           boundaries), 'static' (lockstep groups, padding included) or \
           'compare' (run both on the same trace and report the goodput \
           speedup).")

let small_llm_arg =
  Arg.(
    value & flag
    & info [ "small-llm" ]
        ~doc:"Use the 4-layer small LLM config instead of the tiny one.")

let decode_requests ~rate ~duration ~seed ~process ~prompt_mean ~prompt_max
    ~output_mean ~output_max ~fixed_prompt ~fixed_output =
  let gen =
    Load_gen.create ~process ~rate_per_s:rate ~duration_s:duration ~seed ()
  in
  let prompt =
    if fixed_prompt > 0 then Load_gen.Fixed fixed_prompt
    else Load_gen.Geometric { mean = prompt_mean; max_len = prompt_max }
  in
  let output =
    if fixed_output > 0 then Load_gen.Fixed fixed_output
    else Load_gen.Geometric { mean = output_mean; max_len = output_max }
  in
  Decode_request.of_load_gen ~gen ~prompt ~output

let decode core rate duration seed process prompt_mean prompt_max
    output_mean output_max fixed_prompt fixed_output batch_max hbm_mb
    max_cache_len mode small_llm costing json_path trace_path =
  exit_of
    (let* requests =
       catching_invalid (fun () ->
           Ok
             (decode_requests ~rate ~duration ~seed ~process ~prompt_mean
                ~prompt_max ~output_mean ~output_max ~fixed_prompt
                ~fixed_output))
     in
     let config mode =
       {
         (Decode_engine.default_config ~core ()) with
         Decode_engine.llm =
           (if small_llm then Ascend.Nn.Llm.small_config
            else Ascend.Nn.Llm.tiny_config);
         mode;
         costing;
         max_batch = batch_max;
         hbm_bytes = hbm_mb * Ascend.Util.Units.mib;
         max_cache_len;
       }
     in
     run_reported ~trace_path (fun () ->
         match mode with
         | `Continuous | `Static ->
           let m = if mode = `Static then Decode_engine.Static
                   else Decode_engine.Continuous in
           let* r = Decode_engine.run (config m) requests in
           Format.printf "%a" Decode_engine.pp r;
           Ok [ (json_path, Decode_engine.to_json r) ]
         | `Compare ->
           let run m = Decode_engine.run (config m) requests in
           let* c = run Decode_engine.Continuous in
           let* s = run Decode_engine.Static in
           let speedup = Decode_engine.speedup ~continuous:c ~static:s in
           Format.printf "%a@.%a" Decode_engine.pp c Decode_engine.pp s;
           Format.printf
             "continuous over static: %.2fx goodput (%.1f vs %.1f tok/s)@."
             speedup c.Decode_engine.metrics.Ascend.Decode.Metrics.tokens_per_s
             s.Decode_engine.metrics.Ascend.Decode.Metrics.tokens_per_s;
           Ok
             [
               ( json_path,
                 Ascend.Util.Json.Obj
                   [
                     ("continuous", Decode_engine.to_json c);
                     ("static", Decode_engine.to_json s);
                     ("speedup", Ascend.Util.Json.Float speedup);
                   ] );
             ]))

let decode_cmd =
  Cmd.v
    (Cmd.info "decode"
       ~doc:
         "Simulate LLM decode serving: a seeded open-loop trace of \
          generation requests (geometric or fixed prompt/output lengths) \
          served by the continuous batcher — requests join and leave the \
          running batch at token boundaries, prefill interleaved with \
          in-flight decode steps, KV caches budgeted against HBM — with \
          per-token SLO metrics (TTFT p50/p95/p99, inter-token latency, \
          tokens/s goodput) and a static-batching baseline for comparison.")
    Term.(
      const decode $ core_arg $ decode_rate_arg $ duration_arg $ seed_arg
      $ process_term $ prompt_mean_arg
      $ prompt_max_arg $ output_mean_arg $ output_max_arg $ fixed_prompt_arg
      $ fixed_output_arg $ batch_max_arg $ hbm_mb_arg $ max_cache_len_arg
      $ decode_mode_arg $ small_llm_arg $ costing_arg $ json_arg
      $ serve_trace_arg)

(* --- fleet -------------------------------------------------------- *)

module Fleet = Ascend.Fleet.Fleet
module Router = Ascend.Fleet.Router

let fleet_models_arg =
  Arg.(
    required
    & pos 0 (some (list named_model_conv)) None
    & info [] ~docv:"MODEL[,MODEL...]"
        ~doc:"Comma-separated list of models the fleet serves.")

let nodes_arg =
  Arg.(
    value & opt int 4
    & info [ "nodes" ] ~docv:"N" ~doc:"Number of server nodes in the fleet.")

let cores_per_node_arg =
  Arg.(
    value & opt int 8
    & info [ "cores-per-node" ] ~docv:"N"
        ~doc:"Cores per server node (default: the 910 server's 8 chips).")

let policy_arg =
  Arg.(
    value
    & opt (enum Router.policies) Router.Least_loaded
    & info [ "policy" ] ~docv:"P"
        ~doc:"Routing policy: round-robin, least-loaded or affinity.")

let replicas_arg =
  Arg.(
    value
    & opt (list int) [ 0 ]
    & info [ "replicas" ] ~docv:"R"
        ~doc:
          "Resident replicas per model for the placement plan (a single \
           value applies to all): 0 replicates on every node (hot), 1 pins \
           to the home node (cold, pays a page-in when routed elsewhere).")

let pagein_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pagein-json" ] ~docv:"FILE"
        ~doc:
          "Write the page-in differential document ('-': stdout): on \
           $(b,fleet) the per-node page-in counts the run observed, on \
           $(b,lint --placement) the counts the static verifier predicts \
           for the plan — the two sides of the CI gate serialise through \
           one shape, so agreement is a byte comparison.")

let node_hbm_gb_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "node-hbm-gb" ] ~docv:"G"
        ~doc:
          "Per-node HBM capacity: every node must hold its resident \
           models' weights plus their reserved KV-cache working sets \
           (decode-class models); unservable models and overcommitted \
           plans fail fast.")

let train_nodes_arg =
  Arg.(
    value & opt int 0
    & info [ "train-nodes" ] ~docv:"K"
        ~doc:
          "Colocate a data-parallel training job on the first K nodes; its \
           gradient all-reduce competes with inference page-ins for \
           interconnect bandwidth (0: no training).")

let train_model_arg =
  Arg.(
    value
    & opt (some named_model_conv) None
    & info [ "train-model" ] ~docv:"MODEL"
        ~doc:"Model the colocated trainer runs (default: the first served \
              model).")

let train_batch_arg =
  Arg.(
    value & opt int 8
    & info [ "train-batch" ] ~docv:"N"
        ~doc:"Per-node batch of the colocated training job.")

(* decode-class models reserve KV-cache working set on every resident
   node: enough for a full batch of max-position sequences; stateless
   classes reserve nothing *)
let kv_bytes ~batch_max name =
  let llm = Ascend.Nn.Llm.tiny_config in
  if String.starts_with ~prefix:"llm" name then
    batch_max
    * Ascend.Nn.Llm.kv_cache_bytes llm ~tokens:llm.Ascend.Nn.Llm.max_position
  else 0

let fleet models core nodes cores_per_node policy replicas t train_nodes
    train_model train_batch node_hbm_gb json_path pagein_path trace_path =
  exit_of
    (let* specs = model_specs t models in
     let* replicas =
       broadcast ~what:"--replicas" (List.length models) replicas
     in
     let specs =
       List.map2
         (fun (s : Serve.model_spec) replicas ->
           { Fleet.name = s.name; build = s.build; priority = s.priority;
             slo_ms = s.slo_ms; workload = s.workload; replicas;
             kv_bytes = kv_bytes ~batch_max:t.batch_max s.name })
         specs replicas
     in
     let config =
       {
         (Fleet.default_config ~core ~nodes) with
         Fleet.cores_per_node;
         max_batch = t.batch_max;
         max_delay_s = t.delay_ms /. 1e3;
         queue_depth = t.queue_depth;
         duration_s = t.duration;
         bucket_s = t.bucket_ms /. 1e3;
         policy;
         costing = t.costing;
         hbm_bytes_per_node =
           Option.map (fun gb -> int_of_float (gb *. 1e9)) node_hbm_gb;
       }
     in
     let train =
       if train_nodes <= 0 then None
       else
         let tj_model, tj_build =
           match train_model with
           | Some (name, build) -> (name, build)
           | None -> List.hd models
         in
         Some
           { Fleet.tj_model; tj_build; tj_batch = train_batch;
             tj_nodes = train_nodes }
     in
     (* Placement.build also raises on unservable models (weights +
        reserved KV cache over a node's HBM) *)
     run_reported ~trace_path (fun () ->
         let* r = Fleet.run ?train config specs in
         Format.printf "%a" Fleet.pp r;
         Ok
           [
             (json_path, Fleet.to_json r);
             ( pagein_path,
               Fleet.pagein_json ~policy ~placement:r.Fleet.placement
                 ~counts:(Fleet.observed_page_ins r) );
           ]))

let fleet_cmd =
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Simulate a multi-node inference fleet: a router places requests \
          across N server nodes by policy against a replication/placement \
          plan (cold models pay an HBM page-in over the server \
          interconnect), optionally colocated with training jobs competing \
          for that bandwidth; reports per-node utilization, cross-node \
          tail latency and the breakdown by routing decision.")
    Term.(
      const fleet $ fleet_models_arg $ core_arg $ nodes_arg
      $ cores_per_node_arg $ policy_arg $ replicas_arg $ traffic_term
      $ train_nodes_arg $ train_model_arg $ train_batch_arg $ node_hbm_gb_arg
      $ json_arg $ pagein_json_arg $ serve_trace_arg)

(* --- lint / sanitize ---------------------------------------------- *)

module Codegen = Ascend.Compiler.Codegen
module Fusion = Ascend.Compiler.Fusion
module Soc_schedule = Ascend.Compiler.Soc_schedule
module Verify = Ascend.Verify
module Finding = Ascend.Verify.Finding
module Sanitizer = Ascend.Core_sim.Sanitizer

(* every codegen option combination: sync mode x double-buffering x
   weight sparsity — the axes of paper Figure 3's ablations *)
let lint_option_combos =
  List.concat_map
    (fun sync_mode ->
      List.concat_map
        (fun double_buffer ->
          List.map
            (fun weight_sparsity ->
              { Codegen.default_options with
                sync_mode; double_buffer; weight_sparsity })
            [ None; Some 0.5 ])
        [ true; false ])
    [ Codegen.Flags; Codegen.Coarse_barriers ]

let describe_options (o : Codegen.options) =
  Printf.sprintf "%s,db=%b,sparsity=%s"
    (match o.Codegen.sync_mode with
    | Codegen.Flags -> "flags"
    | Codegen.Coarse_barriers -> "barriers")
    o.Codegen.double_buffer
    (match o.Codegen.weight_sparsity with
    | None -> "none"
    | Some r -> Printf.sprintf "%.2f" r)

(* each combo renders its findings into its own buffer so combos can be
   verified on worker domains and the reports printed in submission
   order — `--jobs N` output is byte-identical to `--jobs 1` *)
type combo_report = {
  model : string;
  core : string;
  options : Codegen.options option;
      (* None for the per-(model, core) soc/sanitize sweeps, which run
         default codegen options only *)
  text : string;
  findings : Finding.t list;
}

let severity_counts findings =
  List.fold_left
    (fun (e, w) (f : Finding.t) ->
      match f.Finding.severity with
      | Finding.Error -> (e + 1, w)
      | Finding.Warning -> (e, w + 1))
    (0, 0) findings

let lint_one ~verbose config options name graph =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let findings = ref [] in
  let n_programs = ref 0 in
  (try
     List.iter
       (fun ((grp : Fusion.t), p) ->
         incr n_programs;
         match Verify.analyze config p with
         | [] -> ()
         | fs ->
           findings := !findings @ fs;
           Format.fprintf ppf "%s / %s / %s / %s:@." name config.Config.name
             (describe_options options) grp.Fusion.tag;
           Format.fprintf ppf "%a" Verify.pp_report fs)
       (Codegen.graph_programs ~options config graph)
   with Invalid_argument e ->
     findings :=
       !findings @ [ Finding.make Finding.Malformed ("codegen rejected: " ^ e) ];
     Format.fprintf ppf "%s / %s / %s: codegen rejected: %s@." name
       config.Config.name (describe_options options) e);
  if verbose && !findings = [] then
    Format.fprintf ppf "%s / %s / %s: %d program(s) clean@." name
      config.Config.name (describe_options options) !n_programs;
  Format.pp_print_flush ppf ();
  { model = name; core = config.Config.name; options = Some options;
    text = Buffer.contents buf; findings = !findings }

(* --soc: one combo per (model, core) at default codegen options — the
   per-program lint plus the whole-SoC schedule analysis (cross-core
   races, dependency cycles, optional LLC/HBM capacity) over the same
   compiled artifacts *)
let lint_soc_one ~verbose ?llc_bytes ?hbm_bytes ~cores:soc_cores config name
    graph =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let findings = ref [] in
  let n_programs = ref 0 in
  (try
     let plan, programs =
       Soc_schedule.build ~cores:soc_cores ?llc_bytes ?hbm_bytes config graph
     in
     List.iter
       (fun ((grp : Fusion.t), p) ->
         incr n_programs;
         match Verify.analyze config p with
         | [] -> ()
         | fs ->
           findings := !findings @ fs;
           Format.fprintf ppf "%s / %s / %s:@." name config.Config.name
             grp.Fusion.tag;
           Format.fprintf ppf "%a" Verify.pp_report fs)
       programs;
     match Verify.Soc.analyze plan with
     | [] -> ()
     | fs ->
       findings := !findings @ fs;
       Format.fprintf ppf "%s / %s / soc schedule (%d cores):@." name
         config.Config.name soc_cores;
       Format.fprintf ppf "%a" Verify.pp_report fs
   with Invalid_argument e ->
     findings :=
       !findings @ [ Finding.make Finding.Malformed ("codegen rejected: " ^ e) ];
     Format.fprintf ppf "%s / %s: codegen rejected: %s@." name
       config.Config.name e);
  if verbose && !findings = [] then
    Format.fprintf ppf "%s / %s: %d program(s) + soc schedule clean@." name
      config.Config.name !n_programs;
  Format.pp_print_flush ppf ();
  { model = name; core = config.Config.name; options = None;
    text = Buffer.contents buf; findings = !findings }

(* the dynamic half of the differential gate: replay every generated
   program (default codegen options, same combo iteration as
   `lint --soc`) through the shadow-state sanitizer *)
let sanitize_one ~verbose config name graph =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let findings = ref [] in
  let n_programs = ref 0 in
  let n_instrs = ref 0 in
  (try
     List.iter
       (fun ((grp : Fusion.t), p) ->
         incr n_programs;
         let r = Sanitizer.run config p in
         n_instrs := !n_instrs + r.Sanitizer.instructions_executed;
         match r.Sanitizer.findings with
         | [] -> ()
         | fs ->
           findings := !findings @ fs;
           Format.fprintf ppf "%s / %s / %s:@." name config.Config.name
             grp.Fusion.tag;
           Format.fprintf ppf "%a" Verify.pp_report fs)
       (Codegen.graph_programs config graph)
   with Invalid_argument e ->
     findings :=
       !findings @ [ Finding.make Finding.Malformed ("codegen rejected: " ^ e) ];
     Format.fprintf ppf "%s / %s: codegen rejected: %s@." name
       config.Config.name e);
  if verbose && !findings = [] then
    Format.fprintf ppf
      "%s / %s: %d program(s) clean (%d instruction(s) replayed)@." name
      config.Config.name !n_programs !n_instrs;
  Format.pp_print_flush ppf ();
  { model = name; core = config.Config.name; options = None;
    text = Buffer.contents buf; findings = !findings }

(* the differential-gate document: `lint --soc --json` and
   `sanitize --json` emit the same combo iteration and field order, so
   two sweeps that agree are byte-identical and CI can `cmp` them *)
let sweep_json results =
  let module J = Ascend.Util.Json in
  let combo r =
    J.Obj
      ([ ("model", J.String r.model); ("core", J.String r.core) ]
      @ (match r.options with
        | None -> []
        | Some o -> [ ("options", J.String (describe_options o)) ])
      @ [
          ("verdict", J.String (if r.findings = [] then "clean" else "dirty"));
          ("findings",
           J.List
             (List.map Finding.to_json (List.sort Finding.compare r.findings)));
        ])
  in
  J.Obj
    [
      ("combos", J.List (List.map combo results));
      ("combinations", J.Int (List.length results));
      ("dirty",
       J.Int (List.length (List.filter (fun r -> r.findings <> []) results)));
    ]

let write_sweep_json path results =
  Option.iter (fun p -> write_json p (sweep_json results)) path

let select_models model_opt all =
  match (model_opt, all) with
  | Some (name, build), _ -> [ (name, build) ]
  | None, true -> models
  | None, false ->
    prerr_endline "error: pass a MODEL or --all";
    exit 2

let select_cores core_opt =
  match core_opt with Some c -> [ c ] | None -> List.map snd cores

(* the per-(model, core) combo list shared by `lint --soc` and
   `sanitize`: same model order, same dtype gating — agreement here is
   what makes the two JSON sweeps comparable *)
let model_core_combos selected_models selected_cores =
  List.concat_map
    (fun (name, build) ->
      let graph = build ~batch:1 in
      List.filter_map
        (fun config ->
          if Config.supports config (Graph.dtype graph) then
            Some (name, graph, config)
          else None)
        selected_cores)
    selected_models

(* combos fan out over the execution service's worker pool; results
   come back in submission order, so reports and JSON stay
   byte-identical across --jobs *)
let run_combos ~jobs f combo_list =
  let service =
    Ascend.Exec.Service.create
      ?jobs:(if jobs <= 0 then None else Some jobs)
      ()
  in
  let results = Ascend.Exec.Service.map service f combo_list in
  Ascend.Exec.Service.shutdown service;
  results

let finish ~what ~strict ~json_path results =
  List.iter (fun r -> print_string r.text) results;
  write_sweep_json json_path results;
  let all = List.concat_map (fun r -> r.findings) results in
  let errors, warnings = severity_counts all in
  let combos = List.length results in
  if combos = 0 then begin
    prerr_endline
      (Printf.sprintf
         "error: nothing to %s (selected core does not support the model's \
          dtype)"
         what);
    2
  end
  else if all = [] then begin
    Format.printf "%s: %d combination(s) clean@." what combos;
    0
  end
  else begin
    Format.printf
      "%s: %d finding(s) (%d error(s), %d warning(s)) across %d \
       combination(s)@."
      what (List.length all) errors warnings combos;
    if errors > 0 || strict then 1 else 0
  end

(* --- lint --cluster / --placement ---------------------------------- *)

module Vcluster = Ascend.Verify.Cluster
module Collective = Ascend.Cluster.Collective
module Coll_sched = Ascend.Cluster.Collective_schedule
module Cserver = Ascend.Cluster.Server
module Fat_tree = Ascend.Noc.Fat_tree
module Placement = Ascend.Fleet.Placement

(* one cluster combination: a closed-form time and the thunk expanding
   the same (algorithm, topology, bytes) point into an explicit
   schedule — [lint_cluster_one] analyzes the schedule and holds the
   two times within 1e-6 relative (the differential gate) *)
type cluster_combo = {
  cc_algorithm : string;
  cc_peers : int;
  cc_bytes : float;
  cc_closed : float;
  cc_build : unit -> Vcluster.schedule;
}

type cluster_report = {
  cl_name : string;  (** the schedule's own name, e.g. "ring(n=4)" *)
  cl_algorithm : string;
  cl_peers : int;
  cl_bytes : float;
  cl_closed : float;
  cl_derived : float;
  cl_rel_err : float;
  cl_gate_ok : bool;
  cl_text : string;
  cl_findings : Finding.t list;
}

let cluster_gate_rel = 1e-6

(* the sweep: every collective builder at several node counts
   (power-of-two and not) and message sizes, over the real topologies —
   flat algorithms on the fat-tree NIC rate, the intra-server hierarchy
   on the 910 board, and the full hierarchical cluster collective *)
let cluster_combos =
  let nic = Fat_tree.server_bandwidth Fat_tree.ascend_cluster in
  let server = Cserver.ascend910_server in
  let bytes_axis = [ 1e6; 1e8 ] in
  let flat =
    List.concat_map
      (fun nodes ->
        List.concat_map
          (fun bytes ->
            [
              { cc_algorithm = "ring"; cc_peers = nodes; cc_bytes = bytes;
                cc_closed =
                  Collective.ring_allreduce_seconds ~bytes ~nodes
                    ~bandwidth:nic ();
                cc_build =
                  (fun () ->
                    Coll_sched.ring ~bytes ~nodes ~bandwidth:nic ()) };
              { cc_algorithm = "halving-doubling"; cc_peers = nodes;
                cc_bytes = bytes;
                cc_closed =
                  Collective.halving_doubling_seconds ~bytes ~nodes
                    ~bandwidth:nic ();
                cc_build =
                  (fun () ->
                    Coll_sched.halving_doubling ~bytes ~nodes ~bandwidth:nic
                      ()) };
            ])
          bytes_axis)
      [ 2; 3; 4; 5; 8; 16; 17 ]
  in
  let intra =
    List.map
      (fun bytes ->
        { cc_algorithm = "intra-server"; cc_peers = server.Cserver.chips;
          cc_bytes = bytes;
          cc_closed = Cserver.intra_server_allreduce_seconds server ~bytes;
          cc_build = (fun () -> Coll_sched.intra_server ~server ~bytes) })
      bytes_axis
  in
  let hier =
    List.concat_map
      (fun servers ->
        let network = Fat_tree.create ~servers () in
        List.map
          (fun bytes ->
            { cc_algorithm = "hierarchical"; cc_peers = servers;
              cc_bytes = bytes;
              cc_closed =
                Collective.hierarchical_allreduce_seconds ~server ~network
                  ~servers ~bytes;
              cc_build =
                (fun () ->
                  Coll_sched.hierarchical ~server ~network ~servers ~bytes) })
          bytes_axis)
      [ 1; 2; 3; 4; 8; 16 ]
  in
  flat @ intra @ hier

let lint_cluster_one ~verbose combo =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let sched = combo.cc_build () in
  let findings = Vcluster.analyze sched in
  let derived = Vcluster.schedule_seconds sched in
  let closed = combo.cc_closed in
  let rel_err =
    Float.abs (derived -. closed) /. Float.max (Float.abs closed) 1e-300
  in
  let gate_ok = rel_err <= cluster_gate_rel in
  let label =
    Printf.sprintf "%s / %.1e B" sched.Vcluster.sched_name combo.cc_bytes
  in
  if findings <> [] then begin
    Format.fprintf ppf "%s:@." label;
    Format.fprintf ppf "%a" Verify.pp_report findings
  end;
  if not gate_ok then
    Format.fprintf ppf
      "%s: differential gate FAILED: closed-form %.9e s vs schedule-derived \
       %.9e s (rel err %.3e > %.0e)@."
      label closed derived rel_err cluster_gate_rel;
  if verbose && findings = [] && gate_ok then
    Format.fprintf ppf "%s: clean (closed %.9e s, schedule %.9e s)@." label
      closed derived;
  Format.pp_print_flush ppf ();
  { cl_name = sched.Vcluster.sched_name; cl_algorithm = combo.cc_algorithm;
    cl_peers = combo.cc_peers; cl_bytes = combo.cc_bytes; cl_closed = closed;
    cl_derived = derived; cl_rel_err = rel_err; cl_gate_ok = gate_ok;
    cl_text = Buffer.contents buf; cl_findings = findings }

let cluster_sweep_json results =
  let module J = Ascend.Util.Json in
  let combo r =
    J.Obj
      [
        ("schedule", J.String r.cl_name);
        ("algorithm", J.String r.cl_algorithm);
        ("peers", J.Int r.cl_peers);
        ("bytes", J.Float r.cl_bytes);
        ("closed_form_s", J.Float r.cl_closed);
        ("schedule_s", J.Float r.cl_derived);
        ("rel_err", J.String (Printf.sprintf "%.3e" r.cl_rel_err));
        ("gate", J.String (if r.cl_gate_ok then "ok" else "failed"));
        ("verdict",
         J.String (if r.cl_findings = [] then "clean" else "dirty"));
        ("findings",
         J.List
           (List.map Finding.to_json (List.sort Finding.compare r.cl_findings)));
      ]
  in
  J.Obj
    [
      ("combos", J.List (List.map combo results));
      ("combinations", J.Int (List.length results));
      ("dirty",
       J.Int
         (List.length (List.filter (fun r -> r.cl_findings <> []) results)));
      ("gate_failures",
       J.Int (List.length (List.filter (fun r -> not r.cl_gate_ok) results)));
    ]

(* the closed-vs-schedule differential document: `--times closed` and
   `--times schedule` print the same combos, labels and field order
   with the selected side's seconds rounded to %.3e — when the gate
   holds the two files are byte-identical, so CI can `cmp` them *)
let cluster_times_json which results =
  let module J = Ascend.Util.Json in
  let row r =
    J.Obj
      [
        ("schedule", J.String r.cl_name);
        ("bytes", J.String (Printf.sprintf "%.1e" r.cl_bytes));
        ("seconds",
         J.String
           (Printf.sprintf "%.3e"
              (match which with
              | `Closed -> r.cl_closed
              | `Schedule -> r.cl_derived)));
      ]
  in
  J.Obj
    [
      ("times", J.List (List.map row results));
      ("combinations", J.Int (List.length results));
    ]

let lint_cluster ~verbose ~strict ~json_path ~times ~jobs =
  let results = run_combos ~jobs (lint_cluster_one ~verbose) cluster_combos in
  List.iter (fun r -> print_string r.cl_text) results;
  (let doc =
     match times with
     | Some which -> Some (cluster_times_json which results)
     | None when json_path <> None -> Some (cluster_sweep_json results)
     | None -> None
   in
   Option.iter (write_json (Option.value json_path ~default:"-")) doc);
  let all = List.concat_map (fun r -> r.cl_findings) results in
  let errors, warnings = severity_counts all in
  let gate_failures =
    List.length (List.filter (fun r -> not r.cl_gate_ok) results)
  in
  let combos = List.length results in
  if all = [] && gate_failures = 0 then begin
    Format.printf
      "lint --cluster: %d combination(s) clean, closed-form and \
       schedule-derived times within %.0e relative@."
      combos cluster_gate_rel;
    0
  end
  else begin
    Format.printf
      "lint --cluster: %d finding(s) (%d error(s), %d warning(s)), %d gate \
       failure(s) across %d combination(s)@."
      (List.length all) errors warnings gate_failures combos;
    if errors > 0 || gate_failures > 0 || strict then 1 else 0
  end

(* --placement: lint a fleet placement plan statically — per-node HBM
   overcommit against the policy-reachable resident set, plus the
   predicted page-in counts the CI gate compares against `fleet
   --pagein-json` *)
let lint_placement_mode models ~nodes ~policy ~replicas ~hbm_gb ~pagein_path
    ~strict ~json_path =
  let n = List.length models in
  match broadcast ~what:"--replicas" n replicas with
  | Error e ->
    prerr_endline ("error: " ^ e);
    2
  | Ok replicas -> (
    let hbm_bytes_per_node =
      Option.map (fun gb -> int_of_float (gb *. 1e9)) hbm_gb
    in
    let policy_name = Router.policy_name policy in
    try
      (* capacity goes to the verifier, not to [build]: the lint mode
         reports HBM overflow as a finding instead of raising *)
      let placement =
        Placement.build ~nodes
          (List.map2
             (fun (name, build) r ->
               (name, Fleet.model_weight_bytes build, 0, r))
             models replicas)
      in
      let plan =
        Placement.verify_plan ?hbm_bytes_per_node ~policy:policy_name
          placement
      in
      let findings = Vcluster.lint_placement plan in
      let predicted = Vcluster.predicted_page_ins plan in
      let pagein_doc =
        Fleet.pagein_json ~policy ~placement ~counts:predicted
      in
      Option.iter (fun p -> write_json p pagein_doc) pagein_path;
      (match json_path with
      | None -> ()
      | Some path ->
        let module J = Ascend.Util.Json in
        let doc =
          J.Obj
            [
              ("plan", J.String plan.Vcluster.plan_name);
              ("policy", J.String policy_name);
              ("nodes", J.Int nodes);
              ("placement", Placement.to_json placement);
              ("predicted_page_ins",
               J.List
                 (Array.to_list (Array.map (fun c -> J.Int c) predicted)));
              ("verdict",
               J.String (if findings = [] then "clean" else "dirty"));
              ("findings",
               J.List
                 (List.map Finding.to_json (List.sort Finding.compare findings)));
            ]
        in
        write_json path doc);
      if findings <> [] then begin
        Format.printf "%s (%s):@." plan.Vcluster.plan_name policy_name;
        Format.printf "%a" Verify.pp_report findings
      end;
      let errors, warnings = severity_counts findings in
      Format.printf
        "lint --placement: %s, %s routing: predicted page-ins per node [%s] \
         (total %d)@."
        plan.Vcluster.plan_name policy_name
        (String.concat "; "
           (Array.to_list (Array.map string_of_int predicted)))
        (Array.fold_left ( + ) 0 predicted);
      if findings = [] then begin
        Format.printf "lint --placement: plan clean@.";
        0
      end
      else begin
        Format.printf "lint --placement: %d finding(s) (%d error(s), %d \
                       warning(s))@."
          (List.length findings) errors warnings;
        if errors > 0 || strict then 1 else 0
      end
    with Invalid_argument e ->
      prerr_endline ("error: " ^ e);
      1)

let lint model_opt all core_opt soc soc_cores llc_mb hbm_mb cluster times
    placement_models nodes policy replicas hbm_gb pagein_path verbose strict
    json_path jobs =
  match placement_models with
  | Some models ->
    lint_placement_mode models ~nodes ~policy ~replicas ~hbm_gb ~pagein_path
      ~strict ~json_path
  | None when cluster -> lint_cluster ~verbose ~strict ~json_path ~times ~jobs
  | None when times <> None ->
    prerr_endline "error: --times requires --cluster";
    2
  | None ->
  let selected_models = select_models model_opt all in
  let selected_cores = select_cores core_opt in
  let results =
    if soc then
      let llc_bytes = Option.map (fun mb -> mb * 1024 * 1024) llc_mb in
      let hbm_bytes = Option.map (fun mb -> mb * 1024 * 1024) hbm_mb in
      run_combos ~jobs
        (fun (name, graph, config) ->
          lint_soc_one ~verbose ?llc_bytes ?hbm_bytes ~cores:soc_cores config
            name graph)
        (model_core_combos selected_models selected_cores)
    else
      run_combos ~jobs
        (fun (name, graph, config, options) ->
          lint_one ~verbose config options name graph)
        (List.concat_map
           (fun (name, graph, config) ->
             List.map
               (fun options -> (name, graph, config, options))
               lint_option_combos)
           (model_core_combos selected_models selected_cores))
  in
  finish ~what:"lint" ~strict ~json_path results

let sanitize model_opt all core_opt verbose strict json_path jobs =
  let results =
    run_combos ~jobs
      (fun (name, graph, config) -> sanitize_one ~verbose config name graph)
      (model_core_combos (select_models model_opt all) (select_cores core_opt))
  in
  finish ~what:"sanitize" ~strict ~json_path results

let lint_model_arg =
  Arg.(value & pos 0 (some named_model_conv) None & info [] ~docv:"MODEL")

let lint_all_arg =
  Arg.(value & flag
       & info [ "all" ] ~doc:"Lint every model in the zoo (default cores: all).")

let lint_core_arg =
  Arg.(value & opt (some core_conv) None
       & info [ "core" ] ~docv:"CORE"
           ~doc:"Restrict to one core version (default: all Table-5 cores).")

let lint_soc_arg =
  Arg.(value & flag
       & info [ "soc" ]
           ~doc:"Lift the analysis to the whole-SoC fused-group schedule: one \
                 combination per model/core at default codegen options, \
                 checking cross-core races and dependency cycles (plus \
                 LLC/HBM overcommit with --llc-mb/--hbm-mb) on top of the \
                 per-program lint.")

let lint_soc_cores_arg =
  Arg.(value & opt int Soc_schedule.default_cores
       & info [ "cores" ] ~docv:"N"
           ~doc:"SoC core count for the --soc schedule.")

let lint_llc_arg =
  Arg.(value & opt (some int) None
       & info [ "llc-mb" ] ~docv:"MB"
           ~doc:"Enable the --soc LLC concurrent-working-set check with this \
                 capacity (MiB).")

let lint_hbm_arg =
  Arg.(value & opt (some int) None
       & info [ "hbm-mb" ] ~docv:"MB"
           ~doc:"Enable the --soc HBM residency check with this capacity \
                 (MiB).")

let lint_cluster_arg =
  Arg.(value & flag
       & info [ "cluster" ]
           ~doc:"Lift the analysis to cluster-level collective schedules: \
                 expand ring, halving/doubling, intra-server and \
                 hierarchical all-reduce into explicit per-chip step \
                 schedules over the real HCCS/PCI-E/NIC links at several \
                 node counts and message sizes, check matching, deadlock \
                 freedom, link-capacity overcommit and reduction \
                 completeness, and hold the schedule-derived time within \
                 1e-6 relative of the closed-form cost model (the \
                 differential gate).")

let lint_times_arg =
  Arg.(value
       & opt (some (enum [ ("closed", `Closed); ("schedule", `Schedule) ]))
           None
       & info [ "times" ] ~docv:"SIDE"
           ~doc:"With --cluster: emit the per-combo times of one side of \
                 the differential gate ($(docv) is 'closed' or 'schedule') \
                 as the --json document, seconds rounded to three \
                 significant digits — the two sides compare byte-equal \
                 when the gate holds, so CI can cmp them.")

let lint_placement_arg =
  Arg.(value
       & opt (some (list named_model_conv)) None
       & info [ "placement" ] ~docv:"MODEL[,MODEL...]"
           ~doc:"Lint a fleet placement plan instead of generated programs: \
                 build the plan for these models (weights from the fused \
                 graphs, replica counts from --replicas, node count from \
                 --nodes), check per-node HBM overcommit of the \
                 policy-reachable resident set against --hbm-gb, and \
                 predict per-node page-in counts (--pagein-json) for the \
                 --policy routing.")

let lint_hbm_gb_arg =
  Arg.(value & opt (some float) None
       & info [ "hbm-gb" ] ~docv:"GB"
           ~doc:"Per-node HBM capacity for the --placement overcommit \
                 check (GB; omit to skip the capacity check).")

let lint_verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Report clean combinations too.")

let strict_arg =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Exit non-zero on warnings too, not just errors.")

let findings_json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the findings as deterministic JSON ('-': stdout); \
                 lint --soc and sanitize emit the same document shape, so \
                 sweeps that agree compare byte-equal.")

let lint_jobs_arg =
  Arg.(value & opt int 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Verify combinations on $(docv) worker domains of the \
                 execution service (0 = one per recommended domain). Output \
                 is byte-identical regardless of $(docv).")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify generated programs (happens-before deadlock \
          analysis, RAW/WAR/WAW buffer hazards, buffer-peak cross-checks, \
          flag leaks) across codegen option combinations; --soc lifts the \
          analysis to the whole-SoC fused-group schedule (cross-core races, \
          schedule deadlock cycles, LLC/HBM capacity overcommit); --cluster \
          to collective schedules over the server/fat-tree links \
          (unmatched transfers, deadlock, link overcommit, reduction \
          completeness, plus the closed-form differential gate); \
          --placement lints a fleet placement plan (HBM overcommit, \
          predicted page-ins). Exits non-zero on errors (--strict: on any \
          finding).")
    Term.(const lint $ lint_model_arg $ lint_all_arg $ lint_core_arg
          $ lint_soc_arg $ lint_soc_cores_arg $ lint_llc_arg $ lint_hbm_arg
          $ lint_cluster_arg $ lint_times_arg $ lint_placement_arg
          $ nodes_arg $ policy_arg $ replicas_arg $ lint_hbm_gb_arg
          $ pagein_json_arg $ lint_verbose_arg $ strict_arg
          $ findings_json_arg $ lint_jobs_arg)

let sanitize_all_arg =
  Arg.(value & flag
       & info [ "all" ]
           ~doc:"Sanitize every model in the zoo (default cores: all).")

let sanitize_cmd =
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:
         "Replay each generated program through the dynamic shadow-state \
          sanitizer: uninitialized reads, footprint overflows, \
          unsynchronised cross-pipe accesses, runtime buffer capacity, flag \
          leaks and replay deadlocks, tracked per (buffer, slot) with \
          vector clocks — the dynamic half of the differential \
          lint-vs-sanitize gate. Exits non-zero on errors (--strict: on any \
          finding).")
    Term.(const sanitize $ lint_model_arg $ sanitize_all_arg $ lint_core_arg
          $ lint_verbose_arg $ strict_arg $ findings_json_arg $ lint_jobs_arg)

(* --- trace -------------------------------------------------------- *)

module Exec_trace = Ascend.Exec.Trace

let trace_model_pos =
  Arg.(value & pos 0 (some named_model_conv) None & info [] ~docv:"MODEL")

let trace_model_opt =
  Arg.(
    value
    & opt (some named_model_conv) None
    & info [ "model" ] ~docv:"MODEL"
        ~doc:"Model to trace (alternative to the positional argument).")

let trace_output_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Chrome trace-event JSON output path.")

let trace model_pos model_opt core batch output =
  let chosen =
    match (model_pos, model_opt) with
    | Some m, None | None, Some m -> Ok m
    | Some _, Some _ ->
      Error "pass MODEL either positionally or via --model, not both"
    | None, None -> Error "pass a MODEL (positionally or via --model)"
  in
  match chosen with
  | Error e ->
    prerr_endline ("error: " ^ e);
    2
  | Ok (name, build) ->
    exit_of
      (match Exec_trace.model core (build ~batch) with
      | Error _ as e -> e
      | Ok c ->
        Ascend.Util.Json.write_file output c.Exec_trace.json;
        print_string (Obs.Summary.render c.Exec_trace.summary);
        Format.printf "%s on %s (batch %d): %d simulated cycles@." name
          core.Config.name batch c.Exec_trace.total_cycles;
        (* the capture itself is deliberately serial (never the pooled
           service), so these counters are the process-wide default
           service's — all zero unless ASCEND_CACHE_DIR points at a
           populated persistent tier *)
        Format.printf "exec cache: %a@." Ascend.Exec.Cache.pp_stats
          (Ascend.Exec.Service.stats (Ascend.Exec.Service.default ()));
        Format.printf "wrote %s (load in Perfetto or chrome://tracing)@."
          output;
        Ok ())

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Compile a model and capture its simulation as deterministic Chrome \
          trace-event JSON (Perfetto / chrome://tracing loadable): \
          per-instruction pipe spans and barrier instants on one process \
          lane per fused group, stamped with simulated cycles — the same \
          bytes on every run and under any --jobs/ASCEND_JOBS setting. Also \
          prints a per-category self-time summary.")
    Term.(
      const trace $ trace_model_pos $ trace_model_opt $ core_arg $ batch_arg
      $ trace_output_arg)

(* --- calibrate ---------------------------------------------------- *)

module Calibration = Ascend.Cost.Calibration

(* same model order and dtype gating as [model_core_combos], but keeps
   the graph builder (calibration prices many batch sizes, not one
   batch-1 graph) *)
let calibrate_combos selected_models selected_cores =
  List.concat_map
    (fun (name, build) ->
      let dtype = Graph.dtype (build ~batch:1) in
      List.filter_map
        (fun config ->
          if Config.supports config dtype then Some (name, build, config)
          else None)
        selected_cores)
    selected_models

module Calibration2d = Ascend.Cost.Calibration2d

(* --decode: the 2-D (batch x cache-length) protocol over the LLM
   decode step, one report per fp16-capable selected core *)
let calibrate_decode core_opt max_batch max_len fail_above verbose json_path
    jobs =
  let llm = Ascend.Nn.Llm.tiny_config in
  let selected_cores =
    List.filter
      (fun config -> Config.supports config Ascend.Arch.Precision.Fp16)
      (select_cores core_opt)
  in
  if selected_cores = [] then begin
    prerr_endline
      "error: nothing to calibrate (selected core does not support fp16)";
    2
  end
  else begin
    let service =
      Ascend.Exec.Service.create
        ?jobs:(if jobs <= 0 then None else Some jobs)
        ()
    in
    let results =
      List.map
        (fun config ->
          ( config,
            Calibration2d.run ~budget_pct:fail_above ~service ~core:config
              ~model:"llm-decode"
              ~build:(fun ~batch ~cache_len ->
                Ascend.Nn.Llm.decode ~batch ~cache_len llm)
              ~max_batch ~max_len () ))
        selected_cores
    in
    Ascend.Exec.Service.shutdown service;
    match
      List.filter_map
        (fun ((config : Config.t), r) ->
          match r with
          | Error e -> Some (config.Config.name ^ ": " ^ e)
          | Ok _ -> None)
        results
    with
    | e :: _ ->
      prerr_endline ("error: " ^ e);
      1
    | [] ->
      let reports =
        List.filter_map (fun (_, r) -> Result.to_option r) results
      in
      List.iter
        (fun r -> Format.printf "%a" (Calibration2d.pp ~verbose ()) r)
        reports;
      let worst =
        List.fold_left
          (fun acc (r : Calibration2d.report) ->
            Float.max acc r.Calibration2d.max_abs_pct_error)
          0. reports
      in
      (match json_path with
      | None -> ()
      | Some path ->
        let doc =
          Ascend.Util.Json.Obj
            [
              ("max_batch", Ascend.Util.Json.Int max_batch);
              ("max_len", Ascend.Util.Json.Int max_len);
              ("fail_above_pct", Ascend.Util.Json.Float fail_above);
              ("worst_max_abs_pct_error", Ascend.Util.Json.Float worst);
              ( "combos",
                Ascend.Util.Json.List
                  (List.map Calibration2d.to_json reports) );
            ]
        in
        write_json path doc);
      Format.printf
        "calibrate --decode: %d core(s), worst max |err| %.2f%% (budget \
         %.2f%%)@."
        (List.length reports) worst fail_above;
      let over =
        List.filter
          (fun (r : Calibration2d.report) ->
            r.Calibration2d.max_abs_pct_error > fail_above)
          reports
      in
      if over = [] then 0
      else begin
        List.iter
          (fun (r : Calibration2d.report) ->
            Format.printf "over budget: %s on %s (max |err| %.2f%%)@."
              r.Calibration2d.model r.Calibration2d.core
              r.Calibration2d.max_abs_pct_error)
          over;
        1
      end
  end

let calibrate_1d model_opt all core_opt max_batch fail_above verbose json_path
    jobs =
  let selected_models = select_models model_opt all in
  let selected_cores = select_cores core_opt in
  let combos = calibrate_combos selected_models selected_cores in
  if combos = [] then begin
    prerr_endline
      "error: nothing to calibrate (selected core does not support the \
       model's dtype)";
    2
  end
  else begin
    let service =
      Ascend.Exec.Service.create
        ?jobs:(if jobs <= 0 then None else Some jobs)
        ()
    in
    let results =
      List.map
        (fun (name, build, config) ->
          ( name,
            config,
            Calibration.run ~budget_pct:fail_above ~service ~core:config
              ~model:name ~build ~max_batch () ))
        combos
    in
    Ascend.Exec.Service.shutdown service;
    let errors =
      List.filter_map
        (fun (name, (config : Config.t), r) ->
          match r with
          | Error e -> Some (name ^ " on " ^ config.Config.name ^ ": " ^ e)
          | Ok _ -> None)
        results
    in
    match errors with
    | e :: _ ->
      prerr_endline ("error: " ^ e);
      1
    | [] ->
      let reports =
        List.filter_map
          (fun (_, _, r) -> Result.to_option r)
          results
      in
      List.iter
        (fun r -> Format.printf "%a" (Calibration.pp ~verbose ()) r)
        reports;
      let worst =
        List.fold_left
          (fun acc (r : Calibration.report) ->
            Float.max acc r.Calibration.max_abs_pct_error)
          0. reports
      in
      let over =
        List.filter
          (fun (r : Calibration.report) ->
            r.Calibration.max_abs_pct_error > fail_above)
          reports
      in
      (match json_path with
      | None -> ()
      | Some path ->
        let doc =
          Ascend.Util.Json.Obj
            [
              ("max_batch", Ascend.Util.Json.Int max_batch);
              ("fail_above_pct", Ascend.Util.Json.Float fail_above);
              ("worst_max_abs_pct_error", Ascend.Util.Json.Float worst);
              ( "combos",
                Ascend.Util.Json.List (List.map Calibration.to_json reports)
              );
            ]
        in
        write_json path doc);
      Format.printf
        "calibrate: %d combination(s), worst max |err| %.2f%% (budget \
         %.2f%%)@."
        (List.length reports) worst fail_above;
      if over = [] then 0
      else begin
        List.iter
          (fun (r : Calibration.report) ->
            Format.printf "over budget: %s on %s (max |err| %.2f%%)@."
              r.Calibration.model r.Calibration.core
              r.Calibration.max_abs_pct_error)
          over;
        1
      end
  end

let calibrate model_opt all core_opt max_batch max_len decode_flag fail_above
    verbose json_path jobs =
  if decode_flag then
    calibrate_decode core_opt max_batch max_len fail_above verbose json_path
      jobs
  else
    calibrate_1d model_opt all core_opt max_batch fail_above verbose json_path
      jobs

let calibrate_all_arg =
  Arg.(
    value & flag
    & info [ "all" ]
        ~doc:"Calibrate every model in the zoo (default cores: all).")

let calibrate_max_batch_arg =
  Arg.(
    value & opt int 8
    & info [ "max-batch" ] ~docv:"N"
        ~doc:
          "Largest batch size: anchors span 1..N and every batch in \
           between is scored against the oracle.")

let fail_above_arg =
  Arg.(
    value & opt float 5.
    & info [ "fail-above" ] ~docv:"PCT"
        ~doc:
          "Exit non-zero when any combination's max absolute cycle error \
           exceeds this percentage.")

let calibrate_decode_arg =
  Arg.(
    value & flag
    & info [ "decode" ]
        ~doc:
          "Calibrate the 2-D (batch x cache-length) decode-step surrogate \
           of the tiny LLM instead of the 1-D model zoo tables (fp16 cores \
           only).")

let calibrate_max_len_arg =
  Arg.(
    value & opt int 32
    & info [ "max-len" ] ~docv:"TOK"
        ~doc:
          "--decode: largest cache length; anchors and validation probes \
           span 1..N.")

let calibrate_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write the per-batch error report as JSON ('-': stdout).")

let calibrate_cmd =
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:
         "Fit the per-model piecewise-linear batch-cost surrogate on anchor \
          batch sizes priced through the cycle-level simulator, then score \
          every batch in 1..max-batch through both tiers and report the \
          surrogate's cycle error (mean and max absolute percentage, per \
          model/core). Non-zero exit when any model exceeds the error \
          budget — the CI gate that keeps '--costing surrogate' honest.")
    Term.(
      const calibrate $ lint_model_arg $ calibrate_all_arg $ lint_core_arg
      $ calibrate_max_batch_arg $ calibrate_max_len_arg $ calibrate_decode_arg
      $ fail_above_arg $ lint_verbose_arg $ calibrate_json_arg $ lint_jobs_arg)

(* --- list --------------------------------------------------------- *)

let list_all () =
  Format.printf "models:@.";
  List.iter (fun (name, _) -> Format.printf "  %s@." name) models;
  Format.printf "@.core versions (paper Table 5):@.";
  let module Table = Ascend.Util.Table in
  let module Precision = Ascend.Arch.Precision in
  let t =
    Table.create
      ~header:[ "core"; "freq GHz"; "cube"; "native"; "perf/cyc"; "vector B";
                "L1 KiB"; "UB KiB"; "LLC GB/s"; "precisions" ]
      ()
  in
  List.iter
    (fun (name, (c : Config.t)) ->
      Table.add_row t
        [
          name;
          Table.cell_float c.Config.frequency_ghz;
          Printf.sprintf "%dx%dx%d" c.Config.cube.Config.m c.Config.cube.Config.k
            c.Config.cube.Config.n;
          Precision.name c.Config.native_precision;
          string_of_int
            (Config.flops_per_cycle c ~precision:c.Config.native_precision);
          string_of_int c.Config.vector_width_bytes;
          string_of_int (c.Config.buffers.Config.l1_bytes / 1024);
          string_of_int (c.Config.buffers.Config.ub_bytes / 1024);
          (match c.Config.bandwidth.Config.llc_gb_s with
          | Some v -> Table.cell_float ~decimals:1 v
          | None -> "-");
          String.concat "/"
            (List.map Precision.name c.Config.supported_precisions);
        ])
    cores;
  Table.print t;
  0

let list_cmd =
  Cmd.v
    (Cmd.info "list"
       ~doc:"List available models and the Table-5 core configurations.")
    Term.(const list_all $ const ())

(* --- consolidated usage ------------------------------------------- *)

(* one screen listing every subcommand with its flags; printed when the
   CLI is invoked without a subcommand (README examples are synced
   against this block) *)
let usage =
  {|ascend_cli - Ascend architectural simulator CLI

usage: ascend_cli COMMAND [OPTIONS]

  list
      List available models and the Table-5 core configurations.

  simulate MODEL [--core CORE] [--batch N] [--training]
      Compile and simulate a model on one core.

  profile MODEL [--core CORE] [--batch N] [--training]
      Per-layer cube/vector cycle profile (paper Figures 4-8).

  disasm MODEL [--core CORE] [--batch N] [--layer I]
      Disassemble the generated program of one fused layer.

  streams MODEL [--core CORE] [--batch N] [--cores N]
      Graph-engine stream decomposition scheduled across cores.

  serve MODEL[,MODEL...] [--core CORE] [--cores N] [--rate R[,R...]]
        [--duration S] [--batch-max B] [--batch-delay-ms MS]
        [--queue-depth N] [--slo-ms MS[,MS...]] [--priority P[,P...]]
        [--process uniform|poisson|bursty] [--burst-factor F]
        [--burst-period-ms MS] [--seed N] [--closed CLIENTS]
        [--think-ms MS] [--bucket-ms MS] [--costing exact|surrogate]
        [--json FILE] [--trace FILE]
      Request-level serving simulation: seeded load, dynamic batching,
      QoS admission control, SLO metrics; --costing surrogate prices
      batches by the calibrated interpolation table instead of the
      cycle-level path; --trace captures the run as Chrome trace-event
      JSON.

  decode [--core CORE] [--rate R] [--duration S] [--seed N]
         [--process uniform|poisson|bursty] [--prompt-mean TOK]
         [--prompt-max TOK] [--output-mean TOK] [--output-max TOK]
         [--fixed-prompt TOK] [--fixed-output TOK] [--batch-max B]
         [--hbm-mb MB] [--max-cache-len TOK]
         [--mode continuous|static|compare] [--small-llm]
         [--costing exact|surrogate] [--json FILE] [--trace FILE]
      LLM decode serving: seeded generation requests (geometric or
      fixed prompt/output lengths) through the continuous batcher —
      join/leave at token boundaries, prefill interleaved with decode
      steps, KV caches budgeted against HBM — with TTFT/ITL
      percentiles and tokens/s goodput; --mode compare also runs the
      static-batching baseline and reports the speedup.

  fleet MODEL[,MODEL...] [--core CORE] [--nodes N] [--cores-per-node N]
        [--policy round-robin|least-loaded|affinity] [--replicas R[,R...]]
        [--rate R[,R...]] [--duration S] [--slo-ms MS[,MS...]]
        [--priority P[,P...]] [--train-nodes K] [--train-model MODEL]
        [--train-batch N] [--seed N] [--costing exact|surrogate]
        [--json FILE] [--pagein-json FILE] [--trace FILE]
      Multi-node inference fleet: policy routing against a
      replication/placement plan (cold models page in over the server
      interconnect), optional colocated training competing for
      bandwidth, per-node and cross-node SLO metrics; --pagein-json
      emits the observed per-node page-in counts for the differential
      gate against lint --placement.

  lint [MODEL | --all] [--core CORE] [--soc] [--cores N] [--llc-mb MB]
       [--hbm-mb MB] [--cluster] [--times closed|schedule]
       [--placement MODEL[,MODEL...]] [--nodes N] [--policy P]
       [--replicas R[,R...]] [--hbm-gb G] [--pagein-json FILE]
       [--json FILE] [--strict] [--verbose] [--jobs N]
      Statically verify generated programs (deadlocks, RAW/WAR/WAW
      hazards, buffer peaks, flag leaks); --soc lifts the analysis to
      the whole-SoC fused-group schedule (cross-core races, schedule
      deadlocks, LLC/HBM overcommit); --cluster verifies collective
      step schedules over the server/fat-tree links (send/recv
      matching, deadlock, link overcommit, reduction completeness)
      and holds schedule-derived times within 1e-6 of the closed
      forms (--times emits either side for cmp); --placement lints a
      fleet placement plan (HBM overcommit, predicted page-ins).
      Non-zero exit on errors (--strict: on any finding).

  sanitize [MODEL | --all] [--core CORE] [--json FILE] [--strict]
           [--verbose] [--jobs N]
      Replay generated programs through the dynamic shadow-state
      sanitizer (uninitialized reads, footprint overflows, cross-pipe
      hazards, runtime capacity, flag leaks); emits the same JSON
      shape as lint --soc, so sweeps that agree compare byte-equal.

  calibrate [MODEL | --all | --decode] [--core CORE] [--max-batch N]
            [--max-len TOK] [--fail-above PCT] [--json FILE]
            [--verbose] [--jobs N]
      Fit the per-model batch-cost surrogate on cycle-level anchor
      prices and score every batch 1..max-batch against the oracle;
      non-zero exit when any model's max cycle error exceeds the
      budget (default 5%).  --decode calibrates the 2-D
      (batch x cache-length) decode-step grid of the tiny LLM
      instead, validated over anchor lengths and bracket midpoints.

  trace MODEL [--model MODEL] [--core CORE] [--batch N] [-o FILE]
      Deterministic Chrome trace of the compiled model's simulation
      (per-instruction pipe spans, barrier instants) plus a
      per-category self-time summary; byte-identical across runs and
      --jobs/ASCEND_JOBS settings.

models: resnet50 resnet18 mobilenet vgg16 bert-base bert-large gesture
        siamese wide-deep pointnet face-detect fpn-detector
cores:  tiny lite mini standard max   (--core, default: max)

Run 'ascend_cli COMMAND --help' for full option documentation.|}

let usage_term =
  Term.(
    const (fun () ->
        print_endline usage;
        0)
    $ const ())

let () =
  let info =
    Cmd.info "ascend_cli" ~version:Ascend.version
      ~doc:"Ascend architectural simulator command-line interface."
  in
  let cmd =
    Cmd.group ~default:usage_term info
      [ simulate_cmd; profile_cmd; disasm_cmd; streams_cmd; serve_cmd;
        decode_cmd; fleet_cmd; lint_cmd; sanitize_cmd; calibrate_cmd;
        list_cmd; trace_cmd ]
  in
  (* an output file that cannot be written (--json, --trace, -o or
     --pagein-json in a missing directory) is a user error: one line,
     exit 1.  Any other exception is an internal error, exit 125 as
     cmdliner reports it. *)
  exit
    (match Cmd.eval' ~catch:false cmd with
    | code -> code
    | exception Sys_error msg ->
      prerr_endline ("error: " ^ msg);
      1
    | exception e ->
      prerr_endline
        ("ascend_cli: internal error, uncaught exception: "
       ^ Printexc.to_string e);
      Cmd.Exit.internal_error)
