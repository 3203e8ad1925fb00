module Stats = Ascend_util.Stats
module Json = Ascend_util.Json

type cell = {
  cl_len : int;
  cl_batch : int;
  cl_anchor : bool;
  cl_exact : Calibration.entry;
  cl_predicted : Calibration.entry;
  cl_pct_error : float;
}

type report = {
  model : string;
  core : string;
  max_batch : int;
  max_len : int;
  budget_pct : float;
  len_anchors : int list;
  cells : cell list;
  mean_abs_pct_error : float;
  max_abs_pct_error : float;
}

let cycles_error (exact : Calibration.entry) (predicted : Calibration.entry) =
  Stats.abs_pct_error
    ~reference:(float_of_int exact.Calibration.cycles)
    ~estimate:(float_of_int predicted.Calibration.cycles)

(* exact entries over the whole probe grid, priced once each *)
let price_grid ~price ~max_batch ~probes =
  let tbl = Hashtbl.create 64 in
  let rec go = function
    | [] -> Ok tbl
    | (len, batch) :: rest -> (
      match price ~batch ~cache_len:len with
      | Error _ as e -> e
      | Ok entry ->
        Hashtbl.add tbl (len, batch) entry;
        go rest)
  in
  go
    (List.concat_map
       (fun len -> List.init max_batch (fun i -> (len, i + 1)))
       probes)

(* Refinement on the length axis: build exact rows at the current
   anchor lengths, measure cycle error over every probe (length, batch)
   point, and promote the worst offending length until the grid is
   within budget.  A promoted length's row is exact, so its points then
   score 0, and the probe set is finite, so the loop terminates. *)
let refine ~budget_pct ~max_batch ~probes ~exact anchors =
  let row len =
    (len, Array.init max_batch (fun i -> Hashtbl.find exact (len, i + 1)))
  in
  let rec go anchors =
    match Surrogate2d.fit ~rows:(List.map row anchors) with
    | Error _ as e -> e
    | Ok grid ->
      let worst = ref None in
      List.iter
        (fun len ->
          if not (List.mem len anchors) then
            for batch = 1 to max_batch do
              match Surrogate2d.lookup grid ~batch ~cache_len:len with
              | None -> ()
              | Some predicted ->
                let err =
                  cycles_error (Hashtbl.find exact (len, batch)) predicted
                in
                (match !worst with
                (* strict >: ties keep the smallest length/batch *)
                | Some (_, e) when e >= err -> ()
                | _ -> if err > budget_pct then worst := Some (len, err))
            done)
        probes;
      (match !worst with
      | None -> Ok grid
      | Some (len, _) -> go (List.sort compare (len :: anchors)))
  in
  go anchors

let fit ?(budget_pct = 5.) ~price ~max_batch ~max_len () =
  if max_batch < 1 then invalid_arg "Calibration2d.fit: max_batch < 1";
  if max_len < 1 then invalid_arg "Calibration2d.fit: max_len < 1";
  if budget_pct < 0. then invalid_arg "Calibration2d.fit: negative budget";
  let probes = Surrogate2d.probe_lens ~max_len in
  match price_grid ~price ~max_batch ~probes with
  | Error _ as e -> e
  | Ok exact ->
    refine ~budget_pct ~max_batch ~probes ~exact
      (Surrogate2d.anchor_lens ~max_len)

let run ?(budget_pct = 5.) ~service ~core ~model ~build ~max_batch ~max_len () =
  (* the prices [fit] takes, kept to score its grid against *)
  let exact = Hashtbl.create 64 in
  let price ~batch ~cache_len =
    let r = Calibration.price ~service ~core (build ~batch ~cache_len) in
    Result.iter (Hashtbl.replace exact (cache_len, batch)) r;
    r
  in
  match fit ~budget_pct ~price ~max_batch ~max_len () with
  | Error _ as e -> e
  | Ok grid ->
    let len_anchors = Surrogate2d.lens grid in
    let cells =
      List.concat_map
        (fun len ->
          List.init max_batch (fun i ->
              let batch = i + 1 in
              let ex = Hashtbl.find exact (len, batch) in
              let predicted =
                match Surrogate2d.lookup grid ~batch ~cache_len:len with
                | Some e -> e
                | None -> ex (* unreachable: probes lie inside the grid *)
              in
              {
                cl_len = len;
                cl_batch = batch;
                cl_anchor = List.mem len len_anchors;
                cl_exact = ex;
                cl_predicted = predicted;
                cl_pct_error = cycles_error ex predicted;
              }))
        (Surrogate2d.probe_lens ~max_len)
    in
    let pairs =
      List.filter_map
        (fun c ->
          if c.cl_anchor then None
          else
            Some
              ( float_of_int c.cl_exact.Calibration.cycles,
                float_of_int c.cl_predicted.Calibration.cycles ))
        cells
    in
    Ok
      {
        model;
        core = core.Ascend_arch.Config.name;
        max_batch;
        max_len;
        budget_pct;
        len_anchors;
        cells;
        mean_abs_pct_error = Stats.mean_abs_pct_error pairs;
        max_abs_pct_error = Stats.max_abs_pct_error pairs;
      }

let to_json r =
  Json.Obj
    [
      ("model", Json.String r.model);
      ("core", Json.String r.core);
      ("max_batch", Json.Int r.max_batch);
      ("max_len", Json.Int r.max_len);
      ("budget_pct", Json.Float r.budget_pct);
      ( "len_anchors",
        Json.List (List.map (fun l -> Json.Int l) r.len_anchors) );
      ( "cells",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("cache_len", Json.Int c.cl_len);
                   ("batch", Json.Int c.cl_batch);
                   ("anchor", Json.Bool c.cl_anchor);
                   ("exact_cycles", Json.Int c.cl_exact.Calibration.cycles);
                   ( "predicted_cycles",
                     Json.Int c.cl_predicted.Calibration.cycles );
                   ("cycles_pct_error", Json.Float c.cl_pct_error);
                 ])
             r.cells) );
      ("mean_abs_pct_error", Json.Float r.mean_abs_pct_error);
      ("max_abs_pct_error", Json.Float r.max_abs_pct_error);
    ]

let pp ?(verbose = false) () ppf r =
  let non_anchor =
    List.length (List.filter (fun c -> not c.cl_anchor) r.cells)
  in
  Format.fprintf ppf
    "%-12s on %-12s lens [%s]  mean |err| %5.2f%%  max |err| %5.2f%%  (%d \
     interpolated points)@."
    r.model r.core
    (String.concat ";" (List.map string_of_int r.len_anchors))
    r.mean_abs_pct_error r.max_abs_pct_error non_anchor;
  if verbose then
    List.iter
      (fun c ->
        Format.fprintf ppf
          "    len %4d batch %2d%s  exact %10d cycles  surrogate %10d cycles  \
           err %5.2f%%@."
          c.cl_len c.cl_batch
          (if c.cl_anchor then " *" else "  ")
          c.cl_exact.Calibration.cycles c.cl_predicted.Calibration.cycles
          c.cl_pct_error)
      r.cells
