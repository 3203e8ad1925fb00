(** The two-tier batch-latency oracle behind the serving loops.

    Tier B (the default, [`Exact]) prices every batch over the real
    compiler + core-simulator path through a private
    {!Ascend_exec.Service} whose cache is keyed by (config, fused group,
    codegen options) — repeated (model, batch) pairs resolve without
    re-simulation, but each call still rebuilds the model graph,
    partitions it and hashes every group.  Tier A ([`Surrogate]) removes
    that per-lookup floor: on a model's first pricing, batches
    [1 .. max_batch] are priced through Tier B and fitted into a
    piecewise-linear table by the budget-driven refinement of
    {!Ascend_cost.Calibration.fit} (sparse geometric anchors where
    cycles scale smoothly, denser where tiling makes them step — max
    cycle error within the 5% budget by construction); every later
    lookup interpolates in O(1) with zero graph construction.  A batch
    beyond the largest anchor is outside the
    surrogate's confidence range and falls back to Tier B (counted in
    {!fallbacks}).

    Both tiers are deterministic: same inputs, same costing, same
    answers — counters included.  [`Exact] stays the default so the CI
    byte-identity gates are untouched; [`Surrogate] runs pin their own
    outputs.  The private service is single-domain and in-memory, so a
    [Serve.run] is a pure function of its inputs. *)

type entry = Ascend_cost.Surrogate.entry = {
  cycles : int;        (** one batch on one core *)
  latency_s : float;
  energy_j : float;
}

type costing = [ `Exact | `Surrogate ]

type t

val create :
  ?costing:costing -> ?max_batch:int -> core:Ascend_arch.Config.t -> unit -> t
(** [costing] defaults to [`Exact]; [max_batch] (default 8) bounds the
    surrogate's anchor schedule — lookups beyond it fall back to the
    exact tier.  Raises [Invalid_argument] on [max_batch < 1]. *)

val core : t -> Ascend_arch.Config.t
val costing : t -> costing

val lookup :
  t -> model:string -> build:(batch:int -> Ascend_nn.Graph.t) -> batch:int ->
  (entry, string) result
(** Price [build ~batch].  [`Exact]: compile+simulate through the cached
    service.  [`Surrogate]: calibrate the model's table on first use,
    then interpolate.  Raises [Invalid_argument] on [batch < 1]. *)

val price : t -> Ascend_nn.Graph.t -> (entry, string) result
(** The exact tier alone: compile+simulate the graph through the
    private service, whatever the costing. *)

val hits : t -> int
val misses : t -> int
(** The private service's fused-group cache counters ({!stats}):
    [misses] counts actual compile+simulate runs, [hits] counts group
    results served from the content-addressed cache.  Surrogate-mode
    calibration flows through the same counters; interpolated lookups
    touch neither. *)

val interpolated : t -> int
(** Lookups answered by the surrogate table (always 0 under [`Exact]). *)

val fallbacks : t -> int
(** Surrogate-mode lookups beyond the largest anchor, answered by the
    exact tier. *)

val stats : t -> Ascend_exec.Cache.stats
(** The private service's cache counters. *)

exception Unpriced of string
(** Raised inside an event loop ({!Loop}, [Ascend_decode.Engine]) when a
    batch fails to price, to abandon the run; the loop's [run] returns
    the message as [Error]. *)

val costing_name : [< `Exact | `Surrogate ] -> string
(** ["exact"] or ["surrogate"], as every engine's JSON config names it. *)

val counters_json :
  hits:int -> misses:int -> interpolated:int -> fallbacks:int ->
  Ascend_util.Json.t
(** The [cost_cache] object of serve, fleet and decode JSON: the four
    oracle counters, in that order. *)
