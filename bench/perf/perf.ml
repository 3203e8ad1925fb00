(* The host-time benchmark.  See README.md for the workloads, the
   metrics and how to run, trace and compare. *)

module Json = Ascend.Util.Json
module W = Workloads
module M = Metrics
module T = Wall_trace

let usage =
  {|usage:
  perf.exe [--seed N] [--seconds S] [--trace 0|1]
      every workload, each in its own process; writes BENCH_perf.json
  perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
           [--out FILE] [--trace-out FILE]
      one workload in this process; the last stdout line is its result
  perf.exe --smoke
      every workload at small scale, invariant and rep-identity checks
      only, and --compare's verdict rule on synthetic samples
  perf.exe --compare BASE.json CHANGE.json [...]
      each later file against the first
  perf.exe --write-expected
      regenerate expected/ (seed 0)
options:|}

(* The benchmark never runs against a persistent compile cache or a
   worker-count override: both change what a run computes.  The library
   reads them at start-up, so scrub them and start again. *)
let scrubbed = [ "ASCEND_CACHE_DIR"; "ASCEND_JOBS" ]

let clean_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not (List.exists (fun v -> String.starts_with ~prefix:(v ^ "=") kv) scrubbed))
  |> Array.of_list

let () =
  if List.exists (fun v -> Option.value ~default:"" (Sys.getenv_opt v) <> "") scrubbed
  then Unix.execve Sys.executable_name Sys.argv (clean_env ())

let now = T.now
let expected_dir = "bench/perf/expected"
let expected_file (w : W.t) = Filename.concat expected_dir (w.name ^ ".json")

let fail_exit fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Checking reps *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
  mutable first_doc : string option;
}

(* Every rep must keep its invariants, produce byte-identical JSON to
   the first rep and, at seed 0, the recorded simulated outcome. *)
let judge tally ~expected (rep : W.rep) =
  let identity =
    match tally.first_doc with
    | None ->
      tally.first_doc <- Some rep.doc;
      []
    | Some d -> if d = rep.doc then [] else [ "result JSON differs from rep 1" ]
  in
  let outcome =
    match expected with
    | Some e when e <> Json.to_string rep.outcome ->
      [ "simulated outcome differs from " ^ expected_dir ]
    | _ -> []
  in
  let problems = rep.violations @ identity @ outcome in
  tally.attempted <- tally.attempted + 1;
  if problems <> [] then begin
    tally.failed <- tally.failed + 1;
    tally.reasons <- tally.reasons @ problems
  end

let attempt tally f =
  match f () with
  | r -> Some r
  | exception e ->
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    tally.reasons <- tally.reasons @ [ Printexc.to_string e ];
    None

let load_expected (w : W.t) =
  let file = expected_file w in
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match Json.of_string text with
    | Ok j -> Ok (Json.to_string j)
    | Error e -> Error (file ^ ": " ^ e))

(* Set-up is at most milliseconds of input construction: time it as one
   group of at least 50 ms from a compacted heap, and take the group's
   mean as one sample. *)
let time_setup (w : W.t) ~scale ~seed =
  Gc.compact ();
  let inst = ref None and n = ref 0 in
  let t0 = now () in
  while !n = 0 || now () -. t0 < 0.05 do
    inst := Some (w.setup ~scale ~seed);
    incr n
  done;
  (Option.get !inst, (now () -. t0) /. float_of_int !n)

(* ------------------------------------------------------------------ *)
(* One workload, in this process *)

let finite = List.for_all (fun (_, _, v) -> Float.is_finite v)

(* A run does at least this many reps (traced: passes), then keeps
   going until [--seconds] have passed. *)
let min_reps ~trace = if trace then 1 else 3

let run_workload (w : W.t) ~seed ~seconds ~trace ~out ~trace_out =
  Printf.printf "perf: %s — %s; seed %d\n  why: %s\n%!" w.name w.loop seed w.why;
  let tally = { attempted = 0; failed = 0; reasons = []; first_doc = None } in
  let expected =
    if seed <> 0 then None
    else
      match load_expected w with
      | Ok e -> Some e
      | Error e ->
        tally.reasons <- [ "no expected outcome: " ^ e ];
        tally.failed <- 1;
        None
  in
  let start = now () in
  let runs = ref 0 in
  let more () = !runs < min_reps ~trace || now () -. start < seconds in
  let samples, metrics, extra =
    if not trace then begin
      let setups = ref [] and walls = ref [] and rates = ref [] in
      while more () do
        incr runs;
        (* a set-up sample before every rep spreads the set-up samples
           over the run like the reps; each rep starts from a compacted
           heap, so that one rep's garbage does not tax the next *)
        let inst, setup_s = time_setup w ~scale:1. ~seed in
        setups := setup_s :: !setups;
        Gc.compact ();
        match attempt tally inst.W.rep with
        | None -> ()
        | Some rep ->
          judge tally ~expected rep;
          Printf.printf "  rep %d: wall %.3f s, %d %s in %.3f s\n%!" !runs
            rep.wall_s rep.work w.work_unit rep.call_s;
          walls := rep.wall_s :: !walls;
          rates := (float_of_int rep.work /. rep.call_s) :: !rates
      done;
      let samples =
        [
          ("setup_s", List.rev !setups);
          ("wall_s", List.rev !walls);
          ("work_per_host_s", List.rev !rates);
          ("peak_rss_mb", [ M.peak_rss_mb () ]);
        ]
      in
      let metrics =
        List.map
          (fun (m : M.metric) ->
            (m.name, m.unit, M.median (List.assoc m.name samples)))
          M.end_to_end
      in
      (samples, metrics, [])
    end
    else begin
      let inst, _ = time_setup w ~scale:1. ~seed in
      Gc.compact ();
      let base = attempt tally inst.W.rep in
      Option.iter (judge tally ~expected) base;
      let untraced_s = match base with Some r -> r.wall_s | None -> nan in
      let passes = ref [] and first_counts = ref None and last = ref None in
      while more () do
        incr runs;
        Gc.compact ();
        let tr = T.create ~name:("perf:" ^ w.name) in
        let t0 = now () in
        match attempt tally (fun () -> inst.W.traced tr) with
        | None -> ()
        | Some (rep, counts, replayed_s) ->
          let pass_s = now () -. t0 in
          judge tally ~expected rep;
          (match !first_counts with
          | None -> first_counts := Some counts
          | Some c when c <> counts ->
            tally.failed <- tally.failed + 1;
            tally.reasons <- tally.reasons @ [ "work counts differ across traced passes" ]
          | Some _ -> ());
          if T.dropped tr > 0 then begin
            tally.failed <- tally.failed + 1;
            tally.reasons <- tally.reasons @ [ "trace collector overflowed" ]
          end;
          Printf.printf "  traced pass %d: %.3f s (untraced rep %.3f s)\n%!" !runs
            pass_s untraced_s;
          last := Some tr;
          passes :=
            M.of_pass ~summary:(T.summary tr)
              ~lookups_s:(T.durations tr ~cats:[ "cost" ] @ replayed_s)
              ~replayed_s ~counts ~pass_s ~untraced_s
            :: !passes
      done;
      let metrics =
        List.map
          (fun (name, unit) ->
            let values = List.map (List.assoc name) !passes in
            (name, unit, if values = [] then nan else M.median values))
          M.per_layer
      in
      let extra =
        match !last with
        | None -> []
        | Some tr ->
          Option.iter
            (fun file ->
              T.write_chrome tr file;
              Printf.printf "  chrome trace -> %s\n" file)
            trace_out;
          let summary = T.summary tr in
          print_string (Ascend.Obs.Summary.render summary);
          [ ("layers", M.layer_table summary) ]
      in
      ([], metrics, extra)
    end
  in
  if not (finite metrics) then begin
    tally.failed <- max 1 tally.failed;
    tally.reasons <- tally.reasons @ [ "a metric is not a finite number" ]
  end;
  let n name = List.length (Option.value ~default:[] (List.assoc_opt name samples)) in
  List.iter
    (fun (name, unit, v) ->
      match List.assoc_opt name samples with
      | Some xs ->
        Printf.printf "  %-28s %14.6g %-9s median of %d, max %.6g\n" name v unit
          (n name) (M.maximum xs)
      | None -> Printf.printf "  %-28s %14.6g %s\n" name v unit)
    metrics;
  let correct = tally.failed = 0 in
  List.iter (fun r -> Printf.printf "  FAILED: %s\n" r) tally.reasons;
  Option.iter
    (fun file ->
      Json.write_file file
        (Json.Obj
           ([
              ("workload", Json.String w.name);
              ("seed", Json.Int seed);
              ("trace", Json.Bool trace);
              ("attempted", Json.Int tally.attempted);
              ("failed", Json.Int tally.failed);
              ("correct", Json.Bool correct);
              ("reasons", Json.List (List.map (fun r -> Json.String r) tally.reasons));
              ( "samples",
                Json.Obj
                  (List.map
                     (fun (k, xs) -> (k, Json.List (List.map (fun x -> Json.Float x) xs)))
                     samples) );
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun (name, unit, v) ->
                       (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
                     metrics) );
            ]
           @ extra)))
    out;
  print_endline
    (M.result_line ~correct ~attempted:(max 1 tally.attempted) ~failed:tally.failed
       metrics);
  if not correct then
    fail_exit "%s: %s" w.name (List.hd (tally.reasons @ [ "failed" ]))

(* ------------------------------------------------------------------ *)
(* Every workload, one child process each, one at a time *)

let run_children ~seed ~seconds ~trace =
  let child (w : W.t) ~traced =
    let out =
      Printf.sprintf "BENCH_perf_%s%s.json" w.name (if traced then "_trace" else "")
    in
    let args =
      [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds";
        string_of_float seconds; "--trace"; (if traced then "1" else "0");
        "--out"; out ]
      @ if traced then [ "--trace-out"; Printf.sprintf "BENCH_perf_trace_%s.json" w.name ]
        else []
    in
    let pid =
      Unix.create_process_env Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        (clean_env ()) Unix.stdin Unix.stdout Unix.stderr
    in
    let _, status = Unix.waitpid [] pid in
    let doc =
      match In_channel.with_open_bin out In_channel.input_all with
      | exception Sys_error _ -> None
      | text -> Result.to_option (Json.of_string text)
    in
    (status = Unix.WEXITED 0, doc)
  in
  let results =
    List.map
      (fun (w : W.t) ->
        let ok, doc = child w ~traced:false in
        if not trace then (ok, doc)
        else
          let ok', traced = child w ~traced:true in
          let from k = Option.value ~default:Json.Null (Option.bind traced (Compare.field k)) in
          let merged =
            match doc with
            | Some (Json.Obj kvs) ->
              Some (Json.Obj (kvs @ [ ("per_layer", from "metrics"); ("layers", from "layers") ]))
            | _ -> doc
          in
          (ok && ok', merged))
      W.all
  in
  Json.write_file "BENCH_perf.json"
    (Json.Obj
       [
         ("benchmark", Json.String "bench/perf");
         ("seed", Json.Int seed);
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("workloads", Json.List (List.filter_map snd results));
       ]);
  print_endline "perf: -> BENCH_perf.json";
  if List.exists (fun (ok, _) -> not ok) results then
    fail_exit "at least one workload failed"

(* ------------------------------------------------------------------ *)

let smoke () =
  (match Compare.self_check () with
  | [] -> print_endline "perf smoke: compare verdicts ok"
  | e :: _ -> fail_exit "smoke compare: %s" e);
  List.iter
    (fun (w : W.t) ->
      let t0 = now () in
      let inst = w.setup ~scale:0.02 ~seed:0 in
      let tally = { attempted = 0; failed = 0; reasons = []; first_doc = None } in
      (* a plain rep, then a traced pass that must reproduce its JSON *)
      List.iter
        (fun f -> Option.iter (judge tally ~expected:None) (attempt tally f))
        [ inst.W.rep; (fun () -> let rep, _, _ = inst.W.traced (T.create ~name:w.name) in rep) ];
      if tally.failed > 0 then fail_exit "smoke %s: %s" w.name (List.hd tally.reasons);
      Printf.printf "perf smoke: %s ok (%.2f s)\n%!" w.name (now () -. t0))
    W.all

let write_expected () =
  if not (Sys.file_exists expected_dir) then Sys.mkdir expected_dir 0o755;
  List.iter
    (fun (w : W.t) ->
      let rep = (w.setup ~scale:1. ~seed:0).W.rep () in
      if rep.violations <> [] then fail_exit "%s: %s" w.name (List.hd rep.violations);
      Json.write_file (expected_file w) rep.outcome;
      Printf.printf "perf: %s -> %s\n%!" w.name (expected_file w))
    W.all

let () =
  let workload = ref None and seed = ref 0 in
  let seconds = ref 0. and trace = ref false and out = ref None in
  let trace_out = ref None and mode = ref `Run and files = ref [] in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s),
       "NAME " ^ String.concat "|" (List.map (fun (w : W.t) -> w.name) W.all));
      ("--seed", Arg.Set_int seed, "N added to every base seed (default 0)");
      ("--seconds", Arg.Set_float seconds, "S keep repeating until S seconds have passed");
      ("--trace", Arg.Int (fun t -> trace := t <> 0),
       "0|1 1: per-layer metrics from traced passes");
      ("--out", Arg.String (fun f -> out := Some f), "FILE full result of one workload");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE Chrome trace of the last pass");
      ("--smoke", Arg.Unit (fun () -> mode := `Smoke), " small-scale self-check");
      ("--compare", Arg.Unit (fun () -> mode := `Compare), " compare result files");
      ("--write-expected", Arg.Unit (fun () -> mode := `Write_expected), " regenerate expected/");
    ]
  in
  Arg.parse spec (fun f -> files := !files @ [ f ]) usage;
  match !mode with
  | `Smoke -> smoke ()
  | `Write_expected -> write_expected ()
  | `Compare -> (
    match Compare.run !files with
    | true -> ()
    | false -> exit 1
    | exception (Failure e | Sys_error e) -> fail_exit "%s" e)
  | `Run -> (
    if !files <> [] then fail_exit "unexpected argument %s" (List.hd !files);
    match !workload with
    | None -> run_children ~seed:!seed ~seconds:!seconds ~trace:!trace
    | Some name -> (
      match W.find name with
      | None -> fail_exit "unknown workload %s" name
      | Some w ->
        run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace
          ~out:!out ~trace_out:!trace_out))
