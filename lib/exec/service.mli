(** The compile/simulate execution service: a fixed-size domain pool
    with deterministic ordered fan-out plus a content-addressed cache of
    compiled programs and simulator reports.

    [Ascend_compiler.Engine.run_inference] runs a graph's groups through
    the serial compile→simulate loop; this service runs the same
    [Engine.run_group] step in parallel and memoized, and its callers
    name it: the SoC models, the CLI's simulate/profile/disasm, the
    serving and decode cost oracles, the lint sweep and the bench
    sections.  Every output stays byte-identical to the serial run:

    - {b ordered fan-out}: groups are compiled and simulated on the
      pool's worker domains, but results are always reassembled in
      submission order (no work stealing), so a parallel run is
      observationally identical to [List.map];
    - {b content addressing}: results are keyed by a stable 64-bit hash
      of the full core configuration, the fused group's workload summary
      and the codegen options ({!key}) — everything that determines the
      generated program and its report, and nothing else;
    - {b deterministic accounting}: cache probes, insertions and
      evictions all happen on the submitting domain in submission order,
      so hit/miss/eviction counters are reproducible run-to-run and
      independent of the worker count. *)

type t

val create : ?jobs:int -> unit -> t
(** [jobs] defaults to {!Ascend_util.Domain_pool.default_jobs}; the
    cache holds the {!Cache} default of 4096 entries.  Worker domains
    spawn lazily on first use; [jobs = 1] never spawns and runs
    inline. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered fan-out over the service's worker pool, for sweeps that are
    not group-shaped (the lint and sanitize combo sweeps).  Results
    return in submission order, so output stays byte-identical across
    [jobs]; does not touch the cache. *)

val stats : t -> Cache.stats
(** Hit/miss/eviction counters and current entry count. *)

val clear : t -> unit
(** Drop every cached result and reset the counters. *)

val shutdown : t -> unit
(** Stop the worker domains. *)

val key :
  ?options:Ascend_compiler.Codegen.options -> Ascend_arch.Config.t ->
  Ascend_compiler.Fusion.t -> string
(** The content address of one compile+simulate job, as 16 hex digits.
    Covers every configuration, group and option field that shapes the
    generated program or its simulation; the group's [nodes] list is
    excluded (bookkeeping only).  {!run_groups} derives the same
    addresses but folds the configuration and options once per service
    (for the last pair it keyed) and only the group per key. *)

val run_groups :
  t -> ?options:Ascend_compiler.Codegen.options -> Ascend_arch.Config.t ->
  Ascend_compiler.Fusion.t list ->
  (Ascend_compiler.Engine.layer_result, string) result list
(** Compile+simulate each group, in parallel for cache misses, returning
    results in submission order.  Duplicate keys within one call are
    computed once.  Cached results are returned with the caller's group
    record substituted back in. *)

val run_inference :
  t -> ?options:Ascend_compiler.Codegen.options -> Ascend_arch.Config.t ->
  Ascend_nn.Graph.t ->
  (Ascend_compiler.Engine.network_result, string) result
(** [Engine.run_inference] through this service's pool and cache. *)

val run_training :
  t -> ?options:Ascend_compiler.Codegen.options -> Ascend_arch.Config.t ->
  Ascend_nn.Graph.t ->
  (Ascend_compiler.Engine.network_result, string) result

val default : unit -> t
(** The process-wide service (created on first use), shared by the SoC
    models, the CLI's simulate/profile/disasm and the bench sections so
    that a graph re-run under another parameter hits the cache.  Worker
    count honours the [ASCEND_JOBS] environment variable when set to a
    positive integer. *)
