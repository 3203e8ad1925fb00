(* Host wall-clock spans for the traced run.

   Spans go into the benchmark's own collector, which is never installed
   through [Obs.Hook]: the library's traces stay in virtual time and
   byte-identical, and this clock domain never leaks into them.  Each
   span's category names the layer it measures; [Obs.Summary.build]
   turns the spans into per-layer totals and self times. *)

module Obs = Ascend.Obs
module Json = Ascend.Util.Json

type t = { collector : Obs.Collector.t; pid : int; origin : float }

(* seconds on the monotonic clock, to the nanosecond: an oracle lookup
   that hits a memo takes well under a microsecond *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* lane 0: the real entry-point call; lane 1: the layer replay; lane 2:
   calls observed at the run's own call sites; from lane 3: one per
   domain of a parallel sweep *)
let run_lane = 0
let replay_lane = 1
let observed_lane = 2
let worker_lane_base = 3

let create ~name =
  let collector = Obs.Collector.create ~capacity:(1 lsl 21) () in
  let pid = Obs.Collector.alloc_pid collector ~name in
  List.iter
    (fun (tid, lane) -> Obs.Collector.name_thread collector ~pid ~tid lane)
    [ (run_lane, "run"); (replay_lane, "replay"); (observed_lane, "observed calls") ];
  { collector; pid; origin = now () }

let record t ~tid ~cat ~start ~dur =
  Obs.Collector.record t.collector
    (Obs.Event.span ~cat ~name:cat ~pid:t.pid ~tid
       ~ts:((start -. t.origin) *. 1e6)
       ~dur:(dur *. 1e6) ())

let span t ~tid ~cat f =
  let start = now () in
  let r = f () in
  record t ~tid ~cat ~start ~dur:(now () -. start);
  r

(* a span on the calling domain's own lane, for work fanned out over a
   domain pool: the self-time walk is per lane, so concurrent spans must
   not share one *)
let worker_span t ~cat f =
  let tid = worker_lane_base + (Domain.self () :> int) in
  Obs.Collector.name_thread t.collector ~pid:t.pid ~tid
    (Printf.sprintf "domain %d" (tid - worker_lane_base));
  span t ~tid ~cat f

(* durations (seconds) of every span of these categories *)
let durations t ~cats =
  List.filter_map
    (fun (e : Obs.Event.t) ->
      match e.kind with
      | Obs.Event.Span { dur } when List.mem e.cat cats -> Some (dur *. 1e-6)
      | _ -> None)
    (Obs.Collector.events t.collector)

let summary t = Obs.Summary.build t.collector
let dropped t = Obs.Collector.dropped t.collector

(* compact: a serving pass holds tens of thousands of spans *)
let write_chrome t file =
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Json.to_string (Obs.Chrome_trace.to_json t.collector));
      output_char oc '\n')
