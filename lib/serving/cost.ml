module Service = Ascend_exec.Service
module Surrogate = Ascend_cost.Surrogate

type entry = Surrogate.entry = {
  cycles : int;
  latency_s : float;
  energy_j : float;
}

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
  max_batch : int;
  fits : (string, Surrogate.t) Hashtbl.t;
  mutable interpolated : int;
  mutable fallbacks : int;
}

let create ?(costing = `Exact) ?(max_batch = 8) ~core () =
  if max_batch < 1 then invalid_arg "Cost.create: max_batch < 1";
  {
    core;
    service = Service.create ~jobs:1 ();
    costing;
    max_batch;
    fits = Hashtbl.create 8;
    interpolated = 0;
    fallbacks = 0;
  }

let core t = t.core
let costing t = t.costing

(* Tier B: the exact compile+simulate path *)
let price t graph =
  Ascend_cost.Calibration.price ~service:t.service ~core:t.core graph

(* budget-driven refined fit (see {!Ascend_cost.Calibration}): prices
   every batch in 1..max_batch once through Tier B, then keeps the
   sparsest anchor set whose interpolation stays within the default 5%
   cycle-error budget — the same table the [calibrate] CLI reports on *)
let fit t ~model ~build =
  match Hashtbl.find_opt t.fits model with
  | Some f -> Ok f
  | None -> (
    let r =
      Ascend_cost.Calibration.fit ~model
        ~price:(fun ~batch -> price t (build ~batch))
        ~max_batch:t.max_batch ()
    in
    match r with
    | Ok f ->
      Hashtbl.replace t.fits model f;
      r
    | Error _ -> r)

let lookup t ~model ~build ~batch =
  if batch < 1 then invalid_arg "Cost.lookup: batch < 1";
  match t.costing with
  | `Exact -> price t (build ~batch)
  | `Surrogate -> (
    match fit t ~model ~build with
    | Error _ as e -> e
    | Ok f -> (
      match Surrogate.lookup f ~batch with
      | Some e ->
        t.interpolated <- t.interpolated + 1;
        Ok e
      | None ->
        (* out of the surrogate's confidence range: extrapolating past
           the largest anchor could be arbitrarily wrong, so fall back
           to the oracle *)
        t.fallbacks <- t.fallbacks + 1;
        price t (build ~batch)))

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
