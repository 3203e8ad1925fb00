(** The batch-latency oracle behind the serving loops.

    [`Exact] (the default) prices every batch over the real compiler +
    core-simulator path through a private {!Ascend_exec.Service} whose
    cache is keyed by (config, fused group, codegen options): repeated
    (model, batch) pairs resolve without re-simulation, but each call
    still rebuilds the model graph, partitions it and hashes every
    group.  [`Surrogate] keeps a per-run (model, batch) table of those
    exact prices: a pair's first lookup prices it through the oracle,
    and every later one answers from the table with no graph
    construction.  Both tiers give the same entry for the same (model,
    batch), so a run reports the same metrics and batches under either.

    Both tiers are deterministic: same inputs, same costing, same
    answers — counters included.  The private service is single-domain
    and in-memory, so a [Serve.run] is a pure function of its inputs. *)

type entry = {
  cycles : int;        (** one batch on one core *)
  latency_s : float;
  energy_j : float;
}

type costing = [ `Exact | `Surrogate ]

type t

val create : ?costing:costing -> core:Ascend_arch.Config.t -> unit -> t
(** [costing] defaults to [`Exact]. *)

val lookup :
  t -> model:string -> build:(batch:int -> Ascend_nn.Graph.t) -> batch:int ->
  (entry, string) result
(** Price [build ~batch].  [`Exact]: compile+simulate through the cached
    service.  [`Surrogate]: answer from the table, pricing [(model,
    batch)] exactly on its first lookup.  Raises [Invalid_argument] on
    [batch < 1]. *)

val price : t -> Ascend_nn.Graph.t -> (entry, string) result
(** The exact oracle every costing tier rests on, whatever the costing:
    compile and simulate the graph on the cycle-level core model through
    the private service, so repeated group shapes resolve in its
    cache. *)

val hits : t -> int
val misses : t -> int
(** The private service's fused-group cache counters ({!stats}):
    [misses] counts actual compile+simulate runs, [hits] counts group
    results served from the content-addressed cache.  Lookups answered
    from the surrogate table touch neither. *)

val interpolated : t -> int
(** Serve and fleet lookups answered from the surrogate table (always 0
    under [`Exact]). *)

val fallbacks : t -> int
(** Serve and fleet surrogate-mode lookups the table had to price
    through the exact tier: the first lookup of each (model, batch). *)

val stats : t -> Ascend_exec.Cache.stats
(** The private service's cache counters. *)

exception Unpriced of string
(** Raised inside an event loop ({!Loop}, [Ascend_decode.Engine]) when a
    batch fails to price, to abandon the run; the loop's [run] returns
    the message as [Error]. *)

val costing_name : costing -> string
(** ["exact"] or ["surrogate"], as serve's and fleet's JSON config name
    it. *)

val counters_json :
  hits:int -> misses:int -> interpolated:int -> fallbacks:int ->
  Ascend_util.Json.t
(** The [cost_cache] object of serve and fleet JSON: the four oracle
    counters, in that order. *)
