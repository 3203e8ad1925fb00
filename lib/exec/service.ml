module Config = Ascend_arch.Config
module Precision = Ascend_arch.Precision
module Hash = Ascend_util.Stable_hash
module Pool = Ascend_util.Domain_pool
module Engine = Ascend_compiler.Engine
module Codegen = Ascend_compiler.Codegen
module Fusion = Ascend_compiler.Fusion
module Workload = Ascend_nn.Workload

type t = {
  pool : Pool.t;
  cache : (Engine.layer_result, string) result Cache.t;
  (* obs lane state, keyed on the collector it was allocated from so a
     long-lived service re-registers itself with each new trace: the
     pid, plus one logical-cycle clock per worker lane (virtual time —
     job spans are stamped with cumulative simulated cycles, never
     wall clock, so traces stay byte-identical across [jobs]) *)
  mutable obs : (Ascend_obs.Collector.t * int * float array) option;
  (* the key prefix — the digest of a (config, options) pair, see
     {!prefix} — for the last pair this service keyed, matched by
     physical equality: an oracle prices every lookup against the same
     core record, so the ~20 configuration fields hash once per service
     rather than once per fused group *)
  mutable prefix : (Config.t * Codegen.options * Hash.t) option;
}

let create ?jobs () =
  {
    pool = Pool.create ?jobs ();
    cache = Cache.create ();
    obs = None;
    prefix = None;
  }

let jobs t = Pool.jobs t.pool

(* ordered fan-out over the service's worker pool, for sweeps that are
   not group-shaped (lint/sanitize combos): results come back in
   submission order, so output is byte-identical across [jobs] *)
let map t f xs = Pool.map t.pool f xs
let stats t = Cache.stats t.cache
let clear t = Cache.clear t.cache
let shutdown t = Pool.shutdown t.pool

(* --- content addressing ------------------------------------------- *)

let hash_precision h p = Hash.string h (Precision.name p)

let hash_config h (c : Config.t) =
  let h = Hash.string h c.Config.name in
  let h = Hash.float h c.Config.frequency_ghz in
  let h = Hash.int h c.Config.cube.Config.m in
  let h = Hash.int h c.Config.cube.Config.k in
  let h = Hash.int h c.Config.cube.Config.n in
  let h = hash_precision h c.Config.native_precision in
  let h = Hash.list hash_precision h c.Config.supported_precisions in
  let h = Hash.int h c.Config.vector_width_bytes in
  let b = c.Config.buffers in
  let h = Hash.int h b.Config.l0a_bytes in
  let h = Hash.int h b.Config.l0b_bytes in
  let h = Hash.int h b.Config.l0c_bytes in
  let h = Hash.int h b.Config.l1_bytes in
  let h = Hash.int h b.Config.ub_bytes in
  let bw = c.Config.bandwidth in
  let h = Hash.int h bw.Config.l1_to_l0a in
  let h = Hash.int h bw.Config.l1_to_l0b in
  let h = Hash.int h bw.Config.ub_port in
  let h = Hash.option Hash.float h bw.Config.llc_gb_s in
  let h = Hash.int h c.Config.scalar_flops_per_cycle in
  Hash.bool h c.Config.duplex_ub_vector

let hash_options h (o : Codegen.options) =
  let h = Hash.option Hash.float h o.Codegen.weight_sparsity in
  let h = Hash.bool h o.Codegen.double_buffer in
  let h = Hash.bool h o.Codegen.naive_tiling in
  Hash.int h
    (match o.Codegen.sync_mode with
    | Codegen.Flags -> 0
    | Codegen.Coarse_barriers -> 1)

let hash_gemm h (g : Workload.gemm) =
  let h = Hash.int h g.Workload.count in
  let h = Hash.int h g.Workload.m in
  let h = Hash.int h g.Workload.k in
  Hash.int h g.Workload.n

(* [Fusion.t.nodes] is deliberately excluded: codegen consumes only the
   group's workload summary (gemms, vector elements, byte counts,
   precision, im2col expansion) plus the tag that names the program, so
   two groups equal on those fields compile to the same program.  The
   caller's own group record is substituted back into cached results,
   so even the bookkeeping [nodes] list stays the caller's. *)
let hash_group h (g : Fusion.t) =
  let h = Hash.string h g.Fusion.tag in
  let h =
    Hash.int h
      (match g.Fusion.kind with
      | Fusion.Cube_anchored -> 0
      | Fusion.Vector_only -> 1)
  in
  let h = Hash.list hash_gemm h g.Fusion.gemms in
  let h = Hash.float h g.Fusion.vector_elems in
  let h = Hash.int h g.Fusion.input_bytes in
  let h = Hash.int h g.Fusion.weight_bytes in
  let h = Hash.int h g.Fusion.output_bytes in
  let h = Hash.float h g.Fusion.img2col_expansion in
  hash_precision h g.Fusion.precision

(* every key starts with the same config+options fold, so a caller that
   keys many groups folds it once and continues from the digest *)
let prefix config options = hash_options (hash_config Hash.empty config) options
let key_of_prefix p group = Hash.to_hex (hash_group p group)

let key ?(options = Codegen.default_options) config group =
  key_of_prefix (prefix config options) group

(* [t.prefix] is written from whichever domain keys; a racing write only
   replaces one correct digest with another *)
let service_prefix t config options =
  match t.prefix with
  | Some (c, o, p) when c == config && o == options -> p
  | _ ->
    let p = prefix config options in
    t.prefix <- Some (config, options, p);
    p

(* --- observability ------------------------------------------------- *)

module Obs = Ascend_obs

(* Lane context for the currently installed collector (if any),
   allocated on first use and re-allocated when a different collector
   is installed.  Emission happens on the submitting domain after
   [Pool.map] returns, in submission order — the pooled workers never
   touch the collector, so the event stream is independent of worker
   scheduling and of [jobs]. *)
let obs_ctx t =
  match Obs.Hook.installed () with
  | None -> None
  | Some c -> (
    match t.obs with
    | Some (c', pid, lanes) when c' == c -> Some (pid, lanes)
    | _ ->
      let pid = Obs.Collector.alloc_pid c ~name:"exec-service" in
      let jobs = Pool.jobs t.pool in
      for lane = 0 to jobs - 1 do
        Obs.Collector.name_thread c ~pid ~tid:lane
          (Printf.sprintf "lane%d" lane)
      done;
      let lanes = Array.make (max 1 jobs) 0. in
      t.obs <- Some (c, pid, lanes);
      Some (pid, lanes))

(* job spans (one per compiled+simulated group, laid out round-robin on
   the worker lanes) plus cache hit/miss/eviction counters *)
let obs_record_batch t to_compute computed =
  match obs_ctx t with
  | None -> ()
  | Some (pid, lanes) ->
    List.iteri
      (fun slot ((_, (g : Fusion.t)), v) ->
        let lane = slot mod Array.length lanes in
        let dur =
          match v with
          | Ok (lr : Engine.layer_result) ->
            float_of_int
              lr.Engine.report.Ascend_core_sim.Simulator.total_cycles
          | Error _ -> 1.
        in
        Obs.Hook.span
          ~args:[ ("slot", Obs.Event.Int slot) ]
          ~cat:"exec" ~name:g.Fusion.tag ~pid ~tid:lane ~ts:lanes.(lane)
          ~dur ();
        lanes.(lane) <- lanes.(lane) +. dur)
      (List.combine to_compute computed);
    let s = Cache.stats t.cache in
    let now = Array.fold_left Float.max 0. lanes in
    let emit name value =
      Obs.Hook.counter ~cat:"exec" ~name ~pid ~tid:0 ~ts:now
        ~value:(float_of_int value) ()
    in
    emit "cache_hits" s.Cache.hits;
    emit "cache_misses" s.Cache.misses;
    emit "cache_evictions" s.Cache.evictions;
    emit "cache_entries" s.Cache.entries

(* --- execution ----------------------------------------------------- *)

let subst_group g = function
  | Ok lr -> Ok { lr with Engine.group = g }
  | Error _ as e -> e

(* Determinism argument (DESIGN.md §8): cache probes and insertions all
   happen on the submitting domain in submission order; the pool only
   computes the distinct missing keys and reassembles their results in
   first-miss order.  Hence outputs, cache contents, counters and
   eviction order are all independent of worker scheduling and of
   [jobs]. *)
let run_groups t ?options config groups =
  let p =
    service_prefix t config
      (Option.value options ~default:Codegen.default_options)
  in
  let keys = List.map (key_of_prefix p) groups in
  let pending = Hashtbl.create 16 in
  let rev_to_compute = ref [] in
  let n_compute = ref 0 in
  let plan =
    List.map2
      (fun g k ->
        match Cache.find t.cache k with
        | Some v -> `Hit (g, v)
        | None -> (
          match Hashtbl.find_opt pending k with
          | Some slot -> `Slot (g, slot)
          | None ->
            let slot = !n_compute in
            incr n_compute;
            Hashtbl.add pending k slot;
            rev_to_compute := (k, g) :: !rev_to_compute;
            `Slot (g, slot)))
      groups keys
  in
  let to_compute = List.rev !rev_to_compute in
  let computed =
    Pool.map t.pool (fun (_, g) -> Engine.run_group ?options config g)
      to_compute
  in
  List.iter2 (fun (k, _) v -> Cache.add t.cache k v) to_compute computed;
  obs_record_batch t to_compute computed;
  let computed = Array.of_list computed in
  List.map
    (function
      | `Hit (g, v) -> subst_group g v
      | `Slot (g, slot) -> subst_group g computed.(slot))
    plan

let run_inference t ?options config graph =
  Engine.of_layer_results config
    (Ascend_nn.Graph.name graph)
    (run_groups t ?options config (Fusion.partition graph))

let run_training t ?options config graph =
  Engine.of_layer_results config
    (Ascend_nn.Graph.name graph ^ ":training")
    (run_groups t ?options config (Engine.training_groups graph))

(* --- the process-wide service ------------------------------------- *)

let default_instance = ref None

let env_jobs () =
  match Sys.getenv_opt "ASCEND_JOBS" with
  | Some s -> (
    match int_of_string_opt s with Some j when j >= 1 -> Some j | _ -> None)
  | None -> None

let default () =
  match !default_instance with
  | Some t -> t
  | None ->
    let t = create ?jobs:(env_jobs ()) () in
    default_instance := Some t;
    t
