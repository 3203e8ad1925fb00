module Load_gen = Ascend_serving.Load_gen

type t = {
  id : int;
  arrival_s : float;
  prompt_len : int;
  output_len : int;
}

type outcome = Completed | Shed

type record = {
  request : t;
  outcome : outcome;
  admit_s : float;
  first_token_s : float;
  finish_s : float;
  itl_s : float array;
}

let shed request =
  {
    request;
    outcome = Shed;
    admit_s = request.arrival_s;
    first_token_s = request.arrival_s;
    finish_s = request.arrival_s;
    itl_s = [||];
  }

let ttft_s r = r.first_token_s -. r.request.arrival_s

let tokens r = match r.outcome with Completed -> r.request.output_len | Shed -> 0

(* the three per-request streams (arrivals, prompt lengths, output
   lengths) draw from independently derived seeds so changing one
   distribution never perturbs the samples of another *)
let of_load_gen ~gen ~prompt ~output =
  let arrivals = Load_gen.arrivals gen in
  let n = List.length arrivals in
  let seed = gen.Load_gen.seed in
  let prompts = Load_gen.lengths prompt ~seed:((2 * seed) + 1) ~n in
  let outputs = Load_gen.lengths output ~seed:((2 * seed) + 2) ~n in
  List.mapi
    (fun id (arrival_s, (prompt_len, output_len)) ->
      { id; arrival_s; prompt_len; output_len })
    (List.combine arrivals (List.combine prompts outputs))

let validate r =
  if r.prompt_len < 1 then invalid_arg "Decode.Request: prompt_len < 1";
  if r.output_len < 1 then invalid_arg "Decode.Request: output_len < 1"
