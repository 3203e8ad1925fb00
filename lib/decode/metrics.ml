module Stats = Ascend_util.Stats
module Json = Ascend_util.Json

type step_kind = Prefill | Decode

type step = {
  st_kind : step_kind;
  st_batch : int;
  st_tokens : int;
  st_cache_len : int;
  st_start_s : float;
  st_finish_s : float;
  st_cycles : int;
}

type t = {
  completed : int;
  shed : int;
  total_tokens : int;
  makespan_s : float;
  tokens_per_s : float;
  ttft_p50_ms : float;
  ttft_p95_ms : float;
  ttft_p99_ms : float;
  itl_mean_ms : float;
  itl_p50_ms : float;
  itl_p95_ms : float;
  itl_p99_ms : float;
  mean_decode_batch : float;
  prefill_busy_s : float;
  decode_busy_s : float;
}

let step_kind_name = function Prefill -> "prefill" | Decode -> "decode"

let build ~records ~steps =
  let completed =
    List.filter (fun r -> r.Request.outcome = Request.Completed) records
  in
  let shed =
    List.length
      (List.filter (fun r -> r.Request.outcome = Request.Shed) records)
  in
  let total_tokens =
    List.fold_left (fun acc r -> acc + Request.tokens r) 0 completed
  in
  let makespan_s =
    List.fold_left (fun acc r -> Float.max acc r.Request.finish_s) 0. completed
  in
  let ttft = Array.of_list (List.map Request.ttft_s completed) in
  (* records come in id order: the gaps join, and the mean sums them
     from 0., in that order, which fixes the mean's last bits *)
  let itl = Array.concat (List.map (fun r -> r.Request.itl_s) completed) in
  let gaps = Array.length itl in
  let itl_sum = ref 0. in
  for i = 0 to gaps - 1 do
    itl_sum := !itl_sum +. itl.(i)
  done;
  let itl_mean = if gaps = 0 then 0. else !itl_sum /. float_of_int gaps in
  (* each query reorders the array; any order selects the same rank *)
  let p q a =
    if Array.length a = 0 then 0. else Stats.percentile_in_place q a
  in
  let ms x = 1e3 *. x in
  let dur st = st.st_finish_s -. st.st_start_s in
  let busy kind =
    List.fold_left
      (fun acc st -> if st.st_kind = kind then acc +. dur st else acc)
      0. steps
  in
  let decode_busy_s = busy Decode in
  let weighted_batch =
    List.fold_left
      (fun acc st ->
        if st.st_kind = Decode then acc +. (float_of_int st.st_batch *. dur st)
        else acc)
      0. steps
  in
  {
    completed = List.length completed;
    shed;
    total_tokens;
    makespan_s;
    tokens_per_s =
      (if makespan_s > 0. then float_of_int total_tokens /. makespan_s else 0.);
    ttft_p50_ms = ms (p 50. ttft);
    ttft_p95_ms = ms (p 95. ttft);
    ttft_p99_ms = ms (p 99. ttft);
    itl_mean_ms = ms itl_mean;
    itl_p50_ms = ms (p 50. itl);
    itl_p95_ms = ms (p 95. itl);
    itl_p99_ms = ms (p 99. itl);
    mean_decode_batch =
      (if decode_busy_s > 0. then weighted_batch /. decode_busy_s else 0.);
    prefill_busy_s = busy Prefill;
    decode_busy_s;
  }

let to_json m =
  Json.Obj
    [
      ("completed", Json.Int m.completed);
      ("shed", Json.Int m.shed);
      ("total_tokens", Json.Int m.total_tokens);
      ("makespan_s", Json.Float m.makespan_s);
      ("tokens_per_s", Json.Float m.tokens_per_s);
      ( "ttft_ms",
        Json.Obj
          [
            ("p50", Json.Float m.ttft_p50_ms);
            ("p95", Json.Float m.ttft_p95_ms);
            ("p99", Json.Float m.ttft_p99_ms);
          ] );
      ( "itl_ms",
        Json.Obj
          [
            ("mean", Json.Float m.itl_mean_ms);
            ("p50", Json.Float m.itl_p50_ms);
            ("p95", Json.Float m.itl_p95_ms);
            ("p99", Json.Float m.itl_p99_ms);
          ] );
      ("mean_decode_batch", Json.Float m.mean_decode_batch);
      ("prefill_busy_s", Json.Float m.prefill_busy_s);
      ("decode_busy_s", Json.Float m.decode_busy_s);
    ]

let pp ppf m =
  Format.fprintf ppf
    "requests: %d completed, %d shed; %d tokens in %.3f s (%.1f tok/s)@."
    m.completed m.shed m.total_tokens m.makespan_s m.tokens_per_s;
  Format.fprintf ppf "TTFT ms: p50 %.2f  p95 %.2f  p99 %.2f@." m.ttft_p50_ms
    m.ttft_p95_ms m.ttft_p99_ms;
  Format.fprintf ppf "ITL  ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f@."
    m.itl_mean_ms m.itl_p50_ms m.itl_p95_ms m.itl_p99_ms;
  Format.fprintf ppf
    "decode occupancy: %.2f mean batch; busy %.3f s prefill, %.3f s decode@."
    m.mean_decode_batch m.prefill_busy_s m.decode_busy_s
