type t = {
  id : int;
  model : string;
  arrival_s : float;
  priority : int;
  slo_s : float;
}

let eps = 1e-12

(* (arrival, id) order, with arrivals less than [eps] apart taken as
   simultaneous: the same tolerance the serving loops compare event
   times with.  Re-issued closed-loop arrivals computed along different
   paths can land one ulp apart; under this order they still go in id
   order *)
module Arrivals = Ascend_util.Heap.Make (struct
  type nonrec t = t

  let precedes a b =
    a.arrival_s < b.arrival_s -. eps
    || (Float.abs (a.arrival_s -. b.arrival_s) <= eps && a.id < b.id)
end)

type outcome = Completed | Rejected

type record = {
  request : t;
  outcome : outcome;
  start_s : float;
  finish_s : float;
  batch : int;
  core : int;
}

let rejected r =
  {
    request = r;
    outcome = Rejected;
    start_s = r.arrival_s;
    finish_s = r.arrival_s;
    batch = 0;
    core = -1;
  }

let latency_s r = r.finish_s -. r.request.arrival_s

let met_slo r = r.outcome = Completed && latency_s r <= r.request.slo_s
