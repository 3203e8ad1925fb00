module Oracle = Ascend_serving.Cost
module Llm = Ascend_nn.Llm

type entry = Oracle.entry = {
  cycles : int;
  latency_s : float;
  energy_j : float;
}

type costing = [ `Exact | `Surrogate ]

(* Phase-aware pricing for one LLM on one core.  Every exact price goes
   through the serving oracle's [price] (private single-domain service,
   whose cache counters are the oracle's hits and misses).  Unlike serving,
   decode steps are a function of (batch, cache length), so the
   surrogate tier is a {!Grid} of exact rows, interpolated in cache
   length between priced lengths only, and prefill — once per
   request, never the volume term — stays on the exact tier behind a
   (batch, prompt length) memo. *)
type t = {
  cfg : Llm.config;
  costing : costing;
  max_batch : int;
  max_cache_len : int;
  oracle : Oracle.t;
  mutable grid : Grid.t option;
  prefill_memo : (int * int, entry) Hashtbl.t;
  decode_memo : (int * int, entry) Hashtbl.t;
  mutable interpolated : int;
  mutable fallbacks : int;
}

let create ?(costing = `Exact) ?(max_batch = 8) ?(max_cache_len = 64) ~core cfg
    () =
  if max_batch < 1 then invalid_arg "Decode.Cost.create: max_batch < 1";
  if max_cache_len < 1 then invalid_arg "Decode.Cost.create: max_cache_len < 1";
  if max_cache_len >= cfg.Llm.max_position then
    invalid_arg "Decode.Cost.create: max_cache_len >= llm max_position";
  {
    cfg;
    costing;
    max_batch;
    max_cache_len;
    oracle = Oracle.create ~core ();
    grid = None;
    prefill_memo = Hashtbl.create 32;
    decode_memo = Hashtbl.create 64;
    interpolated = 0;
    fallbacks = 0;
  }

let prefill t ~batch ~prompt_len =
  if batch < 1 then invalid_arg "Decode.Cost.prefill: batch < 1";
  if prompt_len < 1 then invalid_arg "Decode.Cost.prefill: prompt_len < 1";
  match Hashtbl.find_opt t.prefill_memo (batch, prompt_len) with
  | Some e -> Ok e
  | None -> (
    match
      Oracle.price t.oracle (Llm.prefill ~batch ~seq_len:prompt_len t.cfg)
    with
    | Error _ as e -> e
    | Ok e ->
      Hashtbl.replace t.prefill_memo (batch, prompt_len) e;
      Ok e)

let exact_decode t ~batch ~cache_len =
  match Hashtbl.find_opt t.decode_memo (batch, cache_len) with
  | Some e -> Ok e
  | None -> (
    match Oracle.price t.oracle (Llm.decode ~batch ~cache_len t.cfg) with
    | Error _ as e -> e
    | Ok e ->
      Hashtbl.replace t.decode_memo (batch, cache_len) e;
      Ok e)

let grid t =
  match t.grid with
  | Some g -> Ok g
  | None ->
    let r =
      Grid.build ~price:(exact_decode t) ~max_batch:t.max_batch
        ~max_len:t.max_cache_len
    in
    Result.iter (fun g -> t.grid <- Some g) r;
    r

let decode_step t ~batch ~cache_len =
  if batch < 1 then invalid_arg "Decode.Cost.decode_step: batch < 1";
  if cache_len < 1 then invalid_arg "Decode.Cost.decode_step: cache_len < 1";
  match t.costing with
  | `Exact -> exact_decode t ~batch ~cache_len
  | `Surrogate -> (
    match grid t with
    | Error _ as e -> e
    | Ok g -> (
      match Grid.lookup g ~batch ~cache_len with
      | Some e ->
        t.interpolated <- t.interpolated + 1;
        Ok e
      | None ->
        (* past the grid on either axis: no priced row brackets the
           point, so answer exactly instead of extrapolating *)
        t.fallbacks <- t.fallbacks + 1;
        exact_decode t ~batch ~cache_len))

let hits t = Oracle.hits t.oracle
let misses t = Oracle.misses t.oracle
let interpolated t = t.interpolated
let fallbacks t = t.fallbacks
