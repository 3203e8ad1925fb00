(* Observability subsystem (lib/obs): bounded collector semantics, the
   link-time hook, summary self-time accounting, and the two sinks —
   including the byte-identity contract of whole-model trace capture. *)

module Event = Ascend.Obs.Event
module Collector = Ascend.Obs.Collector
module Hook = Ascend.Obs.Hook
module Chrome_trace = Ascend.Obs.Chrome_trace
module Summary = Ascend.Obs.Summary
module Json = Ascend.Util.Json
module Config = Ascend.Arch.Config

let span ?args ~cat ~name ~tid ~ts ~dur () =
  Event.span ?args ~cat ~name ~pid:1 ~tid ~ts ~dur ()

let counter ~name ~ts ~value () =
  Event.counter ~cat:"c" ~name ~pid:1 ~tid:0 ~ts ~value ()

(* ------------------------------------------------------------------ *)
(* Collector: bounding and registries                                  *)

let test_collector_bounding () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Collector.create: capacity < 1") (fun () ->
      ignore (Collector.create ~capacity:0 ()));
  let c = Collector.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Collector.capacity c);
  for i = 1 to 5 do
    Collector.record c
      (Event.instant ~cat:"t" ~name:(string_of_int i) ~pid:1 ~tid:0
         ~ts:(float_of_int i) ())
  done;
  Alcotest.(check int) "bounded" 3 (Collector.length c);
  Alcotest.(check int) "overflow counted" 2 (Collector.dropped c);
  (* drop-new policy: the first [capacity] events survive, in order *)
  Alcotest.(check (list string)) "record order, oldest kept"
    [ "1"; "2"; "3" ]
    (List.map (fun (e : Event.t) -> e.Event.name) (Collector.events c));
  (* the drop count is visible in both sinks *)
  (match Chrome_trace.to_json c with
  | Json.Obj fields ->
    Alcotest.(check bool) "chrome droppedEvents" true
      (List.assoc "droppedEvents" fields = Json.Int 2)
  | _ -> Alcotest.fail "unexpected sink shape");
  Alcotest.(check int) "summary dropped" 2 (Summary.build c).Summary.dropped;
  Collector.clear c;
  Alcotest.(check int) "clear empties" 0 (Collector.length c);
  Alcotest.(check int) "clear resets dropped" 0 (Collector.dropped c)

let test_collector_registries () =
  let c = Collector.create () in
  Alcotest.(check int) "pids from 1" 1 (Collector.alloc_pid c ~name:"a");
  Alcotest.(check int) "sequential" 2 (Collector.alloc_pid c ~name:"b");
  Collector.name_thread c ~pid:2 ~tid:1 "old";
  Collector.name_thread c ~pid:2 ~tid:1 "new";
  Collector.name_thread c ~pid:1 ~tid:0 "p0";
  Alcotest.(check (list (pair int string)))
    "processes sorted"
    [ (1, "a"); (2, "b") ]
    (Collector.processes c);
  Alcotest.(check bool) "last thread name wins" true
    (Collector.threads c = [ (1, 0, "p0"); (2, 1, "new") ]);
  Collector.clear c;
  Alcotest.(check bool) "clear keeps registries" true
    (Collector.processes c = [ (1, "a"); (2, "b") ])

(* ------------------------------------------------------------------ *)
(* Hook: link-time installation                                        *)

let test_hook () =
  Hook.uninstall ();
  Alcotest.(check bool) "disabled by default" false (Hook.enabled ());
  Alcotest.(check int) "alloc_pid without collector" (-1)
    (Hook.alloc_pid ~name:"x");
  (* emitting with no collector is a no-op, not an error *)
  Hook.span ~cat:"c" ~name:"s" ~pid:1 ~tid:0 ~ts:0. ~dur:1. ();
  let c = Collector.create () in
  let inner = Collector.create () in
  Hook.with_collector c (fun () ->
      Alcotest.(check bool) "enabled inside" true (Hook.enabled ());
      let pid = Hook.alloc_pid ~name:"p" in
      Alcotest.(check int) "pid allocated" 1 pid;
      Hook.span ~cat:"c" ~name:"s" ~pid ~tid:0 ~ts:0. ~dur:1. ();
      (* negative pid = lane allocated while disabled: stays a no-op *)
      Hook.span ~cat:"c" ~name:"dead" ~pid:(-1) ~tid:0 ~ts:0. ~dur:1. ();
      (* nested installation restores the outer collector *)
      Hook.with_collector inner (fun () ->
          Hook.instant ~cat:"c" ~name:"i" ~pid:1 ~tid:0 ~ts:0. ());
      Alcotest.(check bool) "outer restored" true
        (match Hook.installed () with Some c' -> c' == c | None -> false));
  Alcotest.(check bool) "uninstalled after" false (Hook.enabled ());
  Alcotest.(check int) "outer got its span" 1 (Collector.length c);
  Alcotest.(check int) "inner got its instant" 1 (Collector.length inner)

(* ------------------------------------------------------------------ *)
(* Summary: self-time and counter aggregation                          *)

let test_summary_self_time () =
  let c = Collector.create () in
  List.iter (Collector.record c)
    [
      (* parent 0..10 with child 2..6 on the same lane *)
      span ~cat:"outer" ~name:"p" ~tid:0 ~ts:0. ~dur:10. ();
      span ~cat:"inner" ~name:"ch" ~tid:0 ~ts:2. ~dur:4. ();
      (* same categories on another lane must not interact *)
      span ~cat:"outer" ~name:"q" ~tid:1 ~ts:100. ~dur:5. ();
    ];
  let s = Summary.build c in
  let row cat = List.find (fun r -> r.Summary.cat = cat) s.Summary.rows in
  Alcotest.(check int) "outer spans" 2 (row "outer").Summary.span_count;
  Alcotest.(check (float 1e-9)) "outer total" 15. (row "outer").Summary.total;
  Alcotest.(check (float 1e-9)) "outer self excludes child" 11.
    (row "outer").Summary.self;
  Alcotest.(check (float 1e-9)) "leaf self = total" 4.
    (row "inner").Summary.self;
  (* rows sorted by category *)
  Alcotest.(check (list string)) "sorted rows" [ "inner"; "outer" ]
    (List.map (fun r -> r.Summary.cat) s.Summary.rows);
  let rendered = Summary.render s in
  let contains sub =
    let n = String.length rendered and m = String.length sub in
    let rec go i = i + m <= n && (String.sub rendered i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render mentions categories" true
    (contains "outer" && contains "inner")

let test_counter_aggregation () =
  let c = Collector.create () in
  (* a monotonic series (the cache-hit idiom): last sample is also max *)
  List.iteri
    (fun i v -> Collector.record c (counter ~name:"hits" ~ts:(float_of_int i) ~value:v ()))
    [ 0.; 1.; 3.; 7. ];
  (* a gauge that peaks then falls (queue depth): max > last *)
  List.iteri
    (fun i v -> Collector.record c (counter ~name:"depth" ~ts:(float_of_int i) ~value:v ()))
    [ 1.; 5.; 2. ];
  let s = Summary.build c in
  Alcotest.(check bool) "series sorted, (last, max) per series" true
    (s.Summary.counters = [ ("depth", 2., 5.); ("hits", 7., 7.) ]);
  (* monotonicity check on the recorded samples themselves *)
  let samples =
    List.filter_map
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Counter { value } when e.Event.name = "hits" -> Some value
        | _ -> None)
      (Collector.events c)
  in
  Alcotest.(check bool) "hits samples non-decreasing" true
    (List.for_all2 ( <= ) samples (List.tl samples @ [ max_float ]))

(* ------------------------------------------------------------------ *)
(* Chrome sink: pinned document bytes                                  *)

let test_chrome_golden () =
  let c = Collector.create () in
  ignore (Collector.alloc_pid c ~name:"core:demo");
  Collector.name_thread c ~pid:1 ~tid:0 "pipe0";
  List.iter (Collector.record c)
    [
      span ~cat:"cube" ~name:"mm" ~tid:0 ~ts:2. ~dur:3.
        ~args:[ ("macs", Event.Int 8) ]
        ();
      Event.instant ~cat:"sync" ~name:"bar" ~pid:1 ~tid:0 ~ts:5. ();
      counter ~name:"hits" ~ts:5. ~value:1. ();
    ];
  let got = Json.to_string (Chrome_trace.to_json c) in
  Alcotest.(check string) "pinned chrome document"
    ({|{"traceEvents":[|}
    ^ {|{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"core:demo"}},|}
    ^ {|{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"pipe0"}},|}
    ^ {|{"name":"mm","cat":"cube","ph":"X","pid":1,"tid":0,"ts":2.0,"dur":3.0,"args":{"macs":8}},|}
    ^ {|{"name":"bar","cat":"sync","ph":"i","pid":1,"tid":0,"ts":5.0,"s":"t","args":{}},|}
    ^ {|{"name":"hits","cat":"c","ph":"C","pid":1,"tid":0,"ts":5.0,"args":{"value":1.0}}|}
    ^ {|],"displayTimeUnit":"ms","droppedEvents":0}|})
    got;
  (* the document is well-formed by our own parser *)
  match Json.of_string got with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("sink emitted invalid JSON: " ^ e)

(* ------------------------------------------------------------------ *)
(* Whole-model capture: deterministic to the byte                      *)

let test_trace_byte_identity () =
  let capture () =
    match
      Ascend.Exec.Trace.model Config.tiny (Ascend.Nn.Gesture.build ~batch:1 ())
    with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let a = capture () in
  Alcotest.(check bool) "events collected" true (a.Ascend.Exec.Trace.events > 0);
  Alcotest.(check int) "nothing dropped" 0 a.Ascend.Exec.Trace.dropped;
  Alcotest.(check bool) "cycles accounted" true
    (a.Ascend.Exec.Trace.total_cycles > 0);
  (* repeated capture: byte-identical document *)
  let b = capture () in
  Alcotest.(check string) "repeat is byte-identical"
    (Json.to_string ~pretty:true a.Ascend.Exec.Trace.json)
    (Json.to_string ~pretty:true b.Ascend.Exec.Trace.json);
  (* a warm shared cache must not stand in for the simulation: the
     capture runs the engine's serial loop, never the pooled service *)
  let module Service = Ascend.Exec.Service in
  ignore
    (Service.run_inference (Service.default ()) Config.tiny
       (Ascend.Nn.Gesture.build ~batch:1 ()));
  let c = capture () in
  Alcotest.(check string) "same with the shared cache warm"
    (Json.to_string ~pretty:true a.Ascend.Exec.Trace.json)
    (Json.to_string ~pretty:true c.Ascend.Exec.Trace.json);
  (* summary agrees with the collector totals *)
  Alcotest.(check int) "summary event count" a.Ascend.Exec.Trace.events
    a.Ascend.Exec.Trace.summary.Summary.events

let () =
  Alcotest.run "obs"
    [
      ( "collector",
        [
          Alcotest.test_case "bounding" `Quick test_collector_bounding;
          Alcotest.test_case "registries" `Quick test_collector_registries;
        ] );
      ("hook", [ Alcotest.test_case "link-time hook" `Quick test_hook ]);
      ( "summary",
        [
          Alcotest.test_case "self time" `Quick test_summary_self_time;
          Alcotest.test_case "counters" `Quick test_counter_aggregation;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "chrome golden" `Quick test_chrome_golden;
          Alcotest.test_case "byte identity" `Quick test_trace_byte_identity;
        ] );
    ]
