module Oracle = Ascend_serving.Cost
module Llm = Ascend_nn.Llm

type entry = Oracle.entry = {
  cycles : int;
  latency_s : float;
  energy_j : float;
}

(* Phase-aware pricing for one LLM on one core.  Every price goes through
   the serving oracle's [price] (private single-domain service, whose
   cache counters are the oracle's hits and misses).  Unlike serving, a
   phase's graph is a function of (batch, length), so each phase memoises
   its exact prices by that point. *)
type t = {
  cfg : Llm.config;
  oracle : Oracle.t;
  prefill_memo : (int * int, entry) Hashtbl.t;
  decode_memo : (int * int, entry) Hashtbl.t;
}

let create ~core cfg =
  {
    cfg;
    oracle = Oracle.create ~core ();
    prefill_memo = Hashtbl.create 32;
    decode_memo = Hashtbl.create 64;
  }

(* a (batch, length) point is priced on its first use and answered from
   the memo after *)
let memo t table key graph =
  match Hashtbl.find_opt table key with
  | Some e -> Ok e
  | None ->
    let r = Oracle.price t.oracle (graph ()) in
    Result.iter (Hashtbl.replace table key) r;
    r

let prefill t ~batch ~prompt_len =
  if batch < 1 then invalid_arg "Decode.Cost.prefill: batch < 1";
  if prompt_len < 1 then invalid_arg "Decode.Cost.prefill: prompt_len < 1";
  memo t t.prefill_memo (batch, prompt_len) (fun () ->
      Llm.prefill ~batch ~seq_len:prompt_len t.cfg)

let decode_step t ~batch ~cache_len =
  if batch < 1 then invalid_arg "Decode.Cost.decode_step: batch < 1";
  if cache_len < 1 then invalid_arg "Decode.Cost.decode_step: cache_len < 1";
  memo t t.decode_memo (batch, cache_len) (fun () ->
      Llm.decode ~batch ~cache_len t.cfg)

let hits t = Oracle.hits t.oracle
let misses t = Oracle.misses t.oracle
