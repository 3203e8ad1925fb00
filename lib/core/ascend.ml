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
      of compiled programs + simulator reports, named by the callers
      that re-run groups ([Engine.run_inference] stays serial);
    - {!Tbe} — the TBE elementwise DSL and kernel lowering;
    - {!Noc} — mesh (flow and cycle level), ring, fat-tree;
    - {!Soc} — Ascend 910 / Kirin 990 / Ascend 610 integrations;
    - {!Cluster} — servers, collectives, distributed training;
    - {!Baselines} — systolic array, SIMT GPU, CPU comparators;
    - {!Runtime} — the app/stream/task/block scheduler;
    - {!Serving} — request-level serving: seeded load generation,
      dynamic batching, QoS admission control and SLO metrics over the
      multi-core scheduler, priced by the exact cycle-level oracle
      ({!Serving.Cost.price}) every costing tier rests on;
    - {!Decode} — LLM decode serving: KV-cache-aware phase costing
      (prefill vs decode, each exact price memoised per (batch, length)
      point) and a continuous batcher with per-token SLO metrics
      against a static-batching baseline;
    - {!Vector_core} — the §3.3 SLAM extensions (quaternion, sort,
      stereo, clustering, linear programming).

    Beside the aliases, {!Zoo} holds the model registry, the Table-5
    cores and the option combinations every sweep enumerates.

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
module Serving = Ascend_serving
module Decode = Ascend_decode
module Fleet = Ascend_fleet
module Vector_core = Ascend_vector_core
module Zoo = Zoo
