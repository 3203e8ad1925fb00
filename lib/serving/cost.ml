module Engine = Ascend_compiler.Engine
module Service = Ascend_exec.Service

type entry = { cycles : int; latency_s : float; energy_j : float }

type costing = [ `Exact | `Surrogate ]

(* One private execution service per oracle: serving sweeps re-price the
   same handful of (model, batch) pairs thousands of times, and every
   repeat resolves in the service's content-addressed cache at the
   fused-group level.  The service is private (not [Service.default])
   and single-domain so that a [Serve.run] is a pure function of its
   inputs — counters included — regardless of what else the process ran
   before.  Only [price] touches it, so its cache counters are the
   oracle's hit and miss counts. *)
type t = {
  core : Ascend_arch.Config.t;
  service : Service.t;
  costing : costing;
  table : (string * int, entry) Hashtbl.t;
  mutable interpolated : int;
  mutable fallbacks : int;
}

let create ?(costing = `Exact) ~core () =
  {
    core;
    service = Service.create ~jobs:1 ();
    costing;
    table = Hashtbl.create 16;
    interpolated = 0;
    fallbacks = 0;
  }

let price t graph =
  match Service.run_inference t.service t.core graph with
  | Error _ as e -> e
  | Ok nr ->
    Ok
      {
        cycles = nr.Engine.total_cycles;
        latency_s = Engine.seconds nr;
        energy_j = nr.Engine.total_energy_j;
      }

let lookup t ~model ~build ~batch =
  if batch < 1 then invalid_arg "Cost.lookup: batch < 1";
  match t.costing with
  | `Exact -> price t (build ~batch)
  | `Surrogate -> (
    match Hashtbl.find_opt t.table (model, batch) with
    | Some e ->
      t.interpolated <- t.interpolated + 1;
      Ok e
    | None ->
      t.fallbacks <- t.fallbacks + 1;
      let r = price t (build ~batch) in
      Result.iter (Hashtbl.replace t.table (model, batch)) r;
      r)

let stats t = Service.stats t.service
let hits t = (stats t).Ascend_exec.Cache.hits
let misses t = (stats t).Ascend_exec.Cache.misses
let interpolated t = t.interpolated
let fallbacks t = t.fallbacks

exception Unpriced of string

let costing_name = function `Exact -> "exact" | `Surrogate -> "surrogate"

let counters_json ~hits ~misses ~interpolated ~fallbacks =
  let module Json = Ascend_util.Json in
  Json.Obj
    [
      ("hits", Json.Int hits);
      ("misses", Json.Int misses);
      ("interpolated", Json.Int interpolated);
      ("fallbacks", Json.Int fallbacks);
    ]
