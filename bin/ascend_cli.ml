(* Command-line front end to the simulator.

     dune exec bin/ascend_cli.exe -- simulate resnet50 --core max
     dune exec bin/ascend_cli.exe -- profile bert-large --core max --training
     dune exec bin/ascend_cli.exe -- disasm mobilenet --core lite --layer 3
     dune exec bin/ascend_cli.exe -- streams siamese --core standard --cores 4
     dune exec bin/ascend_cli.exe -- trace gesture --core tiny -o trace.json
     dune exec bin/ascend_cli.exe -- list

   Run with no subcommand for the command list; COMMAND --help documents
   each command. *)

open Cmdliner
module Config = Ascend.Arch.Config
module Engine = Ascend.Compiler.Engine
module Graph = Ascend.Nn.Graph
module Json = Ascend.Util.Json

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

(* one exit code per error class: 0 on success; 1 for one "error:"
   line on stderr, or for a check that failed (a sweep's error finding,
   gate or budget); 124 when cmdliner cannot parse the command line; 125
   for an internal error (see the entry point) *)
let exit_code = function
  | Ok code -> code
  | Error e ->
    prerr_endline ("error: " ^ e);
    1

let exit_of r = exit_code (Result.map (fun () -> 0) r)

(* library entry points raise [Invalid_argument] on malformed input
   (non-positive rates, durations, cores or nodes; duplicate models):
   turn it into an [Error] so [exit_of] prints one line and exits 1 *)
let catching_invalid f = try f () with Invalid_argument msg -> Error msg

let ( let* ) = Result.bind

(* write each document whose path is given ('-': stdout) *)
let write_docs docs =
  List.iter
    (function
      | Some "-", doc -> print_endline (Json.to_string ~pretty:true doc)
      | Some path, doc -> Json.write_file path doc
      | None, _ -> ())
    docs

(* the rule every sweep and run shares: a core runs a model only if it
   supports the model's dtype.  The sweeps skip other (model, core)
   pairs; serve, fleet and decode reject the core before the run. *)
let supports config graph = Config.supports config (Graph.dtype graph)

let check_core (core : Config.t) named_graphs =
  match List.find_opt (fun (_, g) -> not (supports core g)) named_graphs with
  | None -> Ok ()
  | Some (name, g) ->
    Error
      (Printf.sprintf "core %s does not support %s (%s)" core.Config.name name
         (Ascend.Arch.Precision.name (Graph.dtype g)))

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
let model_specs ~core t models =
  let n = List.length models in
  let* rates = broadcast ~what:"--rate" n t.rates in
  let* slos = broadcast ~what:"--slo-ms" n t.slos in
  let* priorities = broadcast ~what:"--priority" n t.priorities in
  let* () =
    check_core core
      (List.map (fun (name, build) -> (name, build ~batch:1)) models)
  in
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
  write_docs docs;
  (match (trace_path, collector) with
  | Some path, Some c ->
    Obs.Chrome_trace.write_file path c;
    Format.printf "trace: wrote %s (%d events, %d dropped)@." path
      (Obs.Collector.length c) (Obs.Collector.dropped c)
  | _ -> ());
  Ok ()

let serve models core cores t json_path trace_path =
  exit_of
    (let* specs = model_specs ~core t models in
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
     let llm =
       if small_llm then Ascend.Nn.Llm.small_config
       else Ascend.Nn.Llm.tiny_config
     in
     let* () =
       check_core core
         [ ("llm-decode", Ascend.Nn.Llm.decode ~batch:1 ~cache_len:1 llm) ]
     in
     let config mode =
       {
         (Decode_engine.default_config ~core ()) with
         Decode_engine.llm;
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
    (let* specs = model_specs ~core t models in
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

(* --- sweeps: lint / sanitize --------------------------------------- *)

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

(* every sweep's combination renders into its own buffer, so
   combinations can run on worker domains and print in submission
   order — `--jobs N` output is byte-identical to `--jobs 1`; [json] is
   the combination's entry in the --json document *)
type combo = { text : string; findings : Finding.t list; json : Json.t }

let severity_counts findings =
  List.fold_left
    (fun (e, w) (f : Finding.t) ->
      match f.Finding.severity with
      | Finding.Error -> (e + 1, w)
      | Finding.Warning -> (e, w + 1))
    (0, 0) findings

let findings_phrase findings =
  let errors, warnings = severity_counts findings in
  Printf.sprintf "%d finding(s) (%d error(s), %d warning(s))"
    (List.length findings) errors warnings

(* the skeleton of one combination: [analyze emit ppf] runs the mode's
   own analysis and hands each batch of findings to [emit], which heads
   it "LABEL / WHAT:" ("LABEL:" for [None]); it returns the --verbose
   line of a clean combination, if any.  A codegen [Invalid_argument]
   becomes a Malformed finding. *)
let render ~verbose ~fields label analyze =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let findings = ref [] in
  let emit what fs =
    if fs <> [] then begin
      findings := !findings @ fs;
      Format.fprintf ppf "%s%s:@.%a" label
        (match what with None -> "" | Some w -> " / " ^ w)
        Verify.pp_report fs
    end
  in
  (match analyze emit ppf with
  | clean ->
    if verbose && !findings = [] then
      Option.iter (Format.fprintf ppf "%s: %s@." label) clean
  | exception Invalid_argument e ->
    let rejected = "codegen rejected: " ^ e in
    findings := !findings @ [ Finding.make Finding.Malformed rejected ];
    Format.fprintf ppf "%s: %s@." label rejected);
  Format.pp_print_flush ppf ();
  let findings = !findings in
  let verdict = if findings = [] then "clean" else "dirty" in
  { text = Buffer.contents buf; findings;
    json =
      Json.Obj
        (fields
        @ [
            ("verdict", Json.String verdict);
            ("findings",
             Json.List
               (List.map Finding.to_json (List.sort Finding.compare findings)));
          ]) }

(* a (model, core[, codegen options]) combination of lint, lint --soc or
   sanitize *)
let program_combo ~verbose ?options (name, _, _, (config : Config.t))
    analyze =
  let options = Option.to_list (Option.map describe_options options) in
  render ~verbose
    ~fields:
      (("model", Json.String name)
      :: ("core", Json.String config.Config.name)
      :: List.map (fun o -> ("options", Json.String o)) options)
    (String.concat " / " (name :: config.Config.name :: options))
    analyze

let lint_programs emit config programs =
  List.iter
    (fun ((grp : Fusion.t), p) ->
      emit (Some grp.Fusion.tag) (Verify.analyze config p))
    programs

let lint_one ~verbose (((_, _, graph, config) as combo), options) =
  program_combo ~verbose ~options combo (fun emit _ ->
      let programs = Codegen.graph_programs ~options config graph in
      lint_programs emit config programs;
      Some (Printf.sprintf "%d program(s) clean" (List.length programs)))

(* --soc: one combination per (model, core) at default codegen options —
   the per-program lint plus the whole-SoC schedule analysis (cross-core
   races, dependency cycles, optional LLC/HBM capacity) over the same
   compiled artifacts *)
let lint_soc_one ~verbose ?llc_bytes ?hbm_bytes ~cores
    ((_, _, graph, config) as combo) =
  program_combo ~verbose combo (fun emit _ ->
      let plan, programs =
        Soc_schedule.build ~cores ?llc_bytes ?hbm_bytes config graph
      in
      lint_programs emit config programs;
      emit
        (Some (Printf.sprintf "soc schedule (%d cores)" cores))
        (Verify.Soc.analyze plan);
      Some
        (Printf.sprintf "%d program(s) + soc schedule clean"
           (List.length programs)))

(* the dynamic half of the differential gate: replay every generated
   program (default codegen options, the same combinations as
   `lint --soc`) through the shadow-state sanitizer *)
let sanitize_one ~verbose ((_, _, graph, config) as combo) =
  program_combo ~verbose combo (fun emit _ ->
      let programs = Codegen.graph_programs config graph in
      let replayed =
        List.fold_left
          (fun n ((grp : Fusion.t), p) ->
            let r = Sanitizer.run config p in
            emit (Some grp.Fusion.tag) r.Sanitizer.findings;
            n + r.Sanitizer.instructions_executed)
          0 programs
      in
      Some
        (Printf.sprintf "%d program(s) clean (%d instruction(s) replayed)"
           (List.length programs) replayed))

let select_models model_opt all =
  match (model_opt, all) with
  | Some m, _ -> Ok [ m ]
  | None, true -> Ok models
  | None, false -> Error "pass a MODEL or --all"

(* the (model, core) pairs lint, sanitize and calibrate cover, in zoo
   order, each with the model's batch-1 graph: the same selection is
   what makes the lint --soc and sanitize documents comparable *)
let select_combos ~what selected core_opt =
  let selected_cores =
    match core_opt with Some c -> [ c ] | None -> List.map snd cores
  in
  match
    List.concat_map
      (fun (name, build) ->
        let graph = build ~batch:1 in
        List.filter_map
          (fun config ->
            if supports config graph then Some (name, build, graph, config)
            else None)
          selected_cores)
      selected
  with
  | [] ->
    Error
      (Printf.sprintf
         "nothing to %s (selected core does not support the model's dtype)"
         what)
  | combos -> Ok combos

(* one execution service per sweep: lint and sanitize fan combinations
   out over its worker pool (results in submission order), calibrate
   prices through its pool and cache *)
let with_service ~jobs f =
  let service =
    Ascend.Exec.Service.create
      ?jobs:(if jobs <= 0 then None else Some jobs)
      ()
  in
  let result = f service in
  Ascend.Exec.Service.shutdown service;
  result

(* every sweep ends here, in one order: the combinations' reports, then
   the requested documents, then the summary.  Exit 1 on an error
   finding or a failure (a failed gate or calibration budget), and under
   --strict on any finding. *)
let end_sweep ?(strict = false) ?(failures = 0) combos ~docs ~summary =
  List.iter (fun c -> print_string c.text) combos;
  write_docs docs;
  let findings = List.concat_map (fun c -> c.findings) combos in
  print_string (summary findings);
  if fst (severity_counts findings) > 0 || failures > 0
     || (strict && findings <> [])
  then 1
  else 0

(* the differential-gate document: `lint --soc --json` and
   `sanitize --json` emit the same combinations and field order, so two
   sweeps that agree are byte-identical and CI can `cmp` them *)
let sweep_json ?(extra = []) combos =
  Json.Obj
    ([
       ("combos", Json.List (List.map (fun c -> c.json) combos));
       ("combinations", Json.Int (List.length combos));
       ("dirty",
        Json.Int
          (List.length (List.filter (fun c -> c.findings <> []) combos)));
     ]
    @ extra)

(* lint, lint --soc and sanitize *)
let program_sweep ~what ~strict ~json_path ~jobs one combos =
  let combos =
    with_service ~jobs (fun s -> Ascend.Exec.Service.map s one combos)
  in
  let n = List.length combos in
  end_sweep ~strict combos ~docs:[ (json_path, sweep_json combos) ]
    ~summary:(fun findings ->
      if findings = [] then
        Printf.sprintf "%s: %d combination(s) clean\n" what n
      else
        Printf.sprintf "%s: %s across %d combination(s)\n" what
          (findings_phrase findings) n)

(* --- lint --cluster / --placement ---------------------------------- *)

module Vcluster = Ascend.Verify.Cluster
module Coll_sched = Ascend.Cluster.Collective_schedule
module Placement = Ascend.Fleet.Placement

let cluster_gate_rel = 1e-6

(* one collective schedule: the verifier's findings plus the
   differential gate, which holds the schedule-derived time within 1e-6
   relative of the closed form.  With --times it also gives its row of
   the times document: both sides print the same rows with the chosen
   side's seconds rounded to %.3e, so when the gate holds the two files
   are byte-identical and CI can `cmp` them. *)
let lint_cluster_one ~verbose ~times (p : Coll_sched.point) =
  let sched = p.Coll_sched.build () in
  let name = sched.Vcluster.sched_name in
  let closed = p.Coll_sched.closed_form_s in
  let derived = Vcluster.schedule_seconds sched in
  let rel_err =
    Float.abs (derived -. closed) /. Float.max (Float.abs closed) 1e-300
  in
  let gate_ok = rel_err <= cluster_gate_rel in
  let label = Printf.sprintf "%s / %.1e B" name p.Coll_sched.bytes in
  let combo =
    render ~verbose label
      ~fields:
        [
          ("schedule", Json.String name);
          ("algorithm", Json.String p.Coll_sched.algorithm);
          ("peers", Json.Int p.Coll_sched.peers);
          ("bytes", Json.Float p.Coll_sched.bytes);
          ("closed_form_s", Json.Float closed);
          ("schedule_s", Json.Float derived);
          ("rel_err", Json.String (Printf.sprintf "%.3e" rel_err));
          ("gate", Json.String (if gate_ok then "ok" else "failed"));
        ]
      (fun emit ppf ->
        emit None (Vcluster.analyze sched);
        if gate_ok then
          Some
            (Printf.sprintf "clean (closed %.9e s, schedule %.9e s)" closed
               derived)
        else begin
          Format.fprintf ppf
            "%s: differential gate FAILED: closed-form %.9e s vs \
             schedule-derived %.9e s (rel err %.3e > %.0e)@."
            label closed derived rel_err cluster_gate_rel;
          None
        end)
  in
  let row which =
    Json.Obj
      [
        ("schedule", Json.String name);
        ("bytes", Json.String (Printf.sprintf "%.1e" p.Coll_sched.bytes));
        ("seconds",
         Json.String
           (Printf.sprintf "%.3e"
              (match which with `Closed -> closed | `Schedule -> derived)));
      ]
  in
  (combo, gate_ok, Option.map row times)

let lint_cluster ~verbose ~strict ~json_path ~times ~jobs =
  let results =
    with_service ~jobs (fun s ->
        Ascend.Exec.Service.map s
          (lint_cluster_one ~verbose ~times)
          (Coll_sched.sweep ()))
  in
  let combos = List.map (fun (c, _, _) -> c) results in
  let n = List.length combos in
  let failures =
    List.length (List.filter (fun (_, ok, _) -> not ok) results)
  in
  let doc =
    match times with
    | Some _ ->
      let rows = List.filter_map (fun (_, _, row) -> row) results in
      ( Some (Option.value json_path ~default:"-"),
        Json.Obj
          [ ("times", Json.List rows); ("combinations", Json.Int n) ] )
    | None ->
      ( json_path,
        sweep_json ~extra:[ ("gate_failures", Json.Int failures) ] combos )
  in
  end_sweep ~strict ~failures combos ~docs:[ doc ] ~summary:(fun findings ->
      if findings = [] && failures = 0 then
        Printf.sprintf
          "lint --cluster: %d combination(s) clean, closed-form and \
           schedule-derived times within %.0e relative\n"
          n cluster_gate_rel
      else
        Printf.sprintf
          "lint --cluster: %s, %d gate failure(s) across %d combination(s)\n"
          (findings_phrase findings) failures n)

(* --placement: lint a fleet placement plan statically — per-node HBM
   overcommit against the policy-reachable resident set, plus the
   predicted page-in counts the CI gate compares against `fleet
   --pagein-json` *)
let lint_placement models ~nodes ~policy ~replicas ~hbm_gb ~pagein_path
    ~strict ~json_path =
  let* replicas =
    broadcast ~what:"--replicas" (List.length models) replicas
  in
  let policy_name = Router.policy_name policy in
  let* placement, plan, findings, predicted =
    catching_invalid (fun () ->
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
          Placement.verify_plan
            ?hbm_bytes_per_node:
              (Option.map (fun gb -> int_of_float (gb *. 1e9)) hbm_gb)
            ~policy:policy_name placement
        in
        Ok
          ( placement, plan, Vcluster.lint_placement plan,
            Vcluster.predicted_page_ins plan ))
  in
  let plan_name = plan.Vcluster.plan_name in
  let combo =
    render ~verbose:false
      ~fields:
        [
          ("plan", Json.String plan_name);
          ("policy", Json.String policy_name);
          ("nodes", Json.Int nodes);
          ("placement", Placement.to_json placement);
          ("predicted_page_ins",
           Json.List
             (Array.to_list (Array.map (fun c -> Json.Int c) predicted)));
        ]
      (Printf.sprintf "%s (%s)" plan_name policy_name)
      (fun emit _ ->
        emit None findings;
        None)
  in
  Ok
    (end_sweep ~strict [ combo ]
       ~docs:
         [
           ( pagein_path,
             Fleet.pagein_json ~policy ~placement ~counts:predicted );
           (json_path, combo.json);
         ]
       ~summary:(fun findings ->
         Printf.sprintf
           "lint --placement: %s, %s routing: predicted page-ins per node \
            [%s] (total %d)\n\
            lint --placement: %s\n"
           plan_name policy_name
           (String.concat "; "
              (Array.to_list (Array.map string_of_int predicted)))
           (Array.fold_left ( + ) 0 predicted)
           (if findings = [] then "plan clean" else findings_phrase findings)))

let lint model_opt all core_opt soc soc_cores llc_mb hbm_mb cluster times
    placement_models nodes policy replicas hbm_gb pagein_path verbose strict
    json_path jobs =
  exit_code
    (match placement_models with
    | Some models ->
      lint_placement models ~nodes ~policy ~replicas ~hbm_gb ~pagein_path
        ~strict ~json_path
    | None when cluster ->
      Ok (lint_cluster ~verbose ~strict ~json_path ~times ~jobs)
    | None when times <> None -> Error "--times requires --cluster"
    | None ->
      let* selected = select_models model_opt all in
      let* combos = select_combos ~what:"lint" selected core_opt in
      let sweep one =
        program_sweep ~what:"lint" ~strict ~json_path ~jobs one
      in
      Ok
        (if soc then
           let mib = Option.map (fun mb -> mb * 1024 * 1024) in
           sweep
             (lint_soc_one ~verbose ?llc_bytes:(mib llc_mb)
                ?hbm_bytes:(mib hbm_mb) ~cores:soc_cores)
             combos
         else
           sweep (lint_one ~verbose)
             (List.concat_map
                (fun c -> List.map (fun o -> (c, o)) lint_option_combos)
                combos)))

let sanitize model_opt all core_opt verbose strict json_path jobs =
  exit_code
    (let* selected = select_models model_opt all in
     let* combos = select_combos ~what:"sanitize" selected core_opt in
     Ok
       (program_sweep ~what:"sanitize" ~strict ~json_path ~jobs
          (sanitize_one ~verbose) combos))

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
  exit_of
    (let* name, build =
       match (model_pos, model_opt) with
       | Some m, None | None, Some m -> Ok m
       | Some _, Some _ ->
         Error "pass MODEL either positionally or via --model, not both"
       | None, None -> Error "pass a MODEL (positionally or via --model)"
     in
     let* c = Exec_trace.model core (build ~batch) in
     Json.write_file output c.Exec_trace.json;
     print_string (Obs.Summary.render c.Exec_trace.summary);
     Format.printf "%s on %s (batch %d): %d simulated cycles@." name
       core.Config.name batch c.Exec_trace.total_cycles;
     Format.printf "wrote %s (load in Perfetto or chrome://tracing)@." output;
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
module Calibration2d = Ascend.Cost.Calibration2d

(* the first [Error] in list order, or every [Ok] value *)
let all_ok results =
  List.fold_right
    (fun r acc ->
      let* x = r in
      let* xs = acc in
      Ok (x :: xs))
    results (Ok [])

(* one path for both protocols: the 1-D batch protocol per (model,
   core), or with --decode the 2-D (batch x cache-length) protocol of
   the tiny LLM's decode step per selected core that runs it.  The sweep
   fails when a combination's max cycle error exceeds --fail-above. *)
let calibrate model_opt all core_opt max_batch max_len decode fail_above
    verbose json_path jobs =
  let what, unit, params =
    if decode then
      ( "calibrate --decode", "core(s)",
        [ ("max_batch", Json.Int max_batch); ("max_len", Json.Int max_len) ] )
    else ("calibrate", "combination(s)", [ ("max_batch", Json.Int max_batch) ])
  in
  (* a combination's report and entry, its max error, and the line
     naming it when that error is over budget *)
  let scored text json model core err =
    ( { text; findings = []; json },
      err,
      Printf.sprintf "over budget: %s on %s (max |err| %.2f%%)\n" model core
        err )
  in
  let score service (name, build, _, (config : Config.t)) =
    if decode then
      Calibration2d.run ~budget_pct:fail_above ~service ~core:config
        ~model:name
        ~build:(fun ~batch ~cache_len ->
          Ascend.Nn.Llm.decode ~batch ~cache_len Ascend.Nn.Llm.tiny_config)
        ~max_batch ~max_len ()
      |> Result.map (fun (r : Calibration2d.report) ->
             scored
               (Format.asprintf "%a" (Calibration2d.pp ~verbose ()) r)
               (Calibration2d.to_json r) r.Calibration2d.model
               r.Calibration2d.core r.Calibration2d.max_abs_pct_error)
      |> Result.map_error (fun e -> config.Config.name ^ ": " ^ e)
    else
      Calibration.run ~budget_pct:fail_above ~service ~core:config ~model:name
        ~build ~max_batch ()
      |> Result.map (fun (r : Calibration.report) ->
             scored
               (Format.asprintf "%a" (Calibration.pp ~verbose ()) r)
               (Calibration.to_json r) r.Calibration.model r.Calibration.core
               r.Calibration.max_abs_pct_error)
      |> Result.map_error (fun e ->
             name ^ " on " ^ config.Config.name ^ ": " ^ e)
  in
  exit_code
    (let* selected =
       if decode then Ok [ ("llm-decode", List.assoc "llm-decode" models) ]
       else select_models model_opt all
     in
     let* combos = select_combos ~what:"calibrate" selected core_opt in
     let* results =
       all_ok (with_service ~jobs (fun s -> List.map (score s) combos))
     in
     let combos = List.map (fun (c, _, _) -> c) results in
     let worst =
       List.fold_left (fun acc (_, e, _) -> Float.max acc e) 0. results
     in
     let over = List.filter (fun (_, e, _) -> e > fail_above) results in
     Ok
       (end_sweep ~failures:(List.length over) combos
          ~docs:
            [
              ( json_path,
                Json.Obj
                  (params
                  @ [
                      ("fail_above_pct", Json.Float fail_above);
                      ("worst_max_abs_pct_error", Json.Float worst);
                      ("combos",
                       Json.List (List.map (fun c -> c.json) combos));
                    ]) );
            ]
          ~summary:(fun _ ->
            Printf.sprintf
              "%s: %d %s, worst max |err| %.2f%% (budget %.2f%%)\n" what
              (List.length combos) unit worst fail_above
            ^ String.concat "" (List.map (fun (_, _, line) -> line) over))))

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

let decode_protocol_arg =
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
      $ calibrate_max_batch_arg $ calibrate_max_len_arg $ decode_protocol_arg
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

let () =
  let info =
    Cmd.info "ascend_cli" ~version:Ascend.version
      ~doc:"Ascend architectural simulator command-line interface."
      ~exits:
        [
          Cmd.Exit.info 0 ~doc:"on success.";
          Cmd.Exit.info 1
            ~doc:
              "on an error, reported as one $(b,error:) line on standard \
               error, or when a check fails: an error finding (any finding \
               with $(b,--strict)), a failed differential gate or an \
               over-budget calibration.";
          Cmd.Exit.info Cmd.Exit.cli_error
            ~doc:"when the command line does not parse.";
          Cmd.Exit.info Cmd.Exit.internal_error ~doc:"on an internal error.";
        ]
  in
  let cmd =
    Cmd.group
      ~default:Term.(ret (const (`Help (`Plain, None))))
      info
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
