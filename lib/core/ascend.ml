(** Public façade of the Ascend architectural simulator.

    The stack, bottom-up (each alias re-exports one library):

    - {!Util} — fp16 codec, PRNG, statistics, fairness, tables;
    - {!Arch} — core configurations (paper Table 5) and the calibrated
      silicon area/energy model (Tables 3-4);
    - {!Tensor} — shapes, layouts (NC1HWC0/FracZ), reference operators,
      quantisation;
    - {!Nn} — the layer IR, graph builder, workload profiler and model
      zoo (ResNet-50, MobileNet-V2, BERT, GestureNet, VGG-16);
    - {!Isa} — pipes, buffers, instructions, programs;
    - {!Verify} — the static happens-before verifier and hazard linter
      (deadlocks, RAW/WAR/WAW races, buffer-peak cross-checks, flag
      leaks);
    - {!Memory} — LLC, DRAM/HBM, MPAM/QoS, the memory-wall arithmetic;
    - {!Obs} — the tracing/profiling hook, bounded event collector and
      Chrome-trace / summary sinks; instrumented layers emit through
      {!Obs.Hook} only while a collector is installed;
    - {!Core_sim} — the event-driven single-core simulator;
    - {!Compiler} — fusion, auto-tiling, code generation, memory
      planning, the compile-and-simulate engine;
    - {!Exec} — the compile/simulate execution service: a domain pool
      with deterministic ordered fan-out and a content-addressed cache
      of compiled programs + simulator reports; linking this module
      installs it behind [Engine.run_inference]/[run_training];
    - {!Tbe} — the TBE elementwise DSL and kernel lowering;
    - {!Noc} — mesh (flow and cycle level), ring, fat-tree;
    - {!Soc} — Ascend 910 / Kirin 990 / Ascend 610 integrations;
    - {!Cluster} — servers, collectives, distributed training;
    - {!Baselines} — systolic array, SIMT GPU, CPU comparators;
    - {!Runtime} — the app/stream/task/block scheduler;
    - {!Cost} — the two-tier batch-pricing layer: a per-model
      piecewise-linear surrogate over anchor batch sizes
      ({!Cost.Surrogate}) with the cycle-level path as its calibration
      oracle and error reporter ({!Cost.Calibration});
    - {!Serving} — request-level serving: seeded load generation,
      dynamic batching, QoS admission control and SLO metrics over the
      multi-core scheduler;
    - {!Decode} — LLM decode serving: KV-cache-aware phase costing
      (prefill vs decode over the 2-D batch x cache-length surrogate)
      and a continuous batcher with per-token SLO metrics against a
      static-batching baseline;
    - {!Vector_core} — the §3.3 SLAM extensions (quaternion, sort,
      stereo, clustering, linear programming).

    Quickstart:
    {[
      let graph = Ascend.Nn.Resnet.v1_5 ~batch:1 () in
      match Ascend.Compiler.Engine.run_inference Ascend.Arch.Config.max graph with
      | Ok r -> Format.printf "%a" Ascend.Compiler.Engine.pp_layer_table r
      | Error e -> prerr_endline e
    ]} *)

let version = "1.0.0"

module Util = Ascend_util
module Arch = Ascend_arch
module Tensor = Ascend_tensor
module Nn = Ascend_nn
module Isa = Ascend_isa
module Verify = Ascend_verify
module Obs = Ascend_obs
module Memory = Ascend_memory
module Core_sim = Ascend_core_sim
module Compiler = Ascend_compiler
module Exec = Ascend_exec
module Tbe = Ascend_tbe
module Noc = Ascend_noc
module Soc = Ascend_soc
module Cluster = Ascend_cluster
module Baselines = Ascend_baselines
module Runtime = Ascend_runtime
module Cost = Ascend_cost
module Serving = Ascend_serving
module Decode = Ascend_decode
module Fleet = Ascend_fleet
module Vector_core = Ascend_vector_core

(* route every compile+simulate fan-out through the execution service's
   domain pool and content-addressed cache ([ASCEND_JOBS] overrides the
   worker count); outputs stay byte-identical to the serial path *)
let () = Ascend_exec.Service.install_default ()

(** Compile a graph and simulate inference on a named core version. *)
let simulate ?(core = Arch.Config.Max) graph =
  Compiler.Engine.run_inference (Arch.Config.of_version core) graph
