module Engine = Ascend_compiler.Engine
module Service = Ascend_exec.Service
module Stats = Ascend_util.Stats
module Json = Ascend_util.Json

type row = {
  batch : int;
  anchor : bool;
  exact : Surrogate.entry;
  predicted : Surrogate.entry;
  cycles_pct_error : float;
}

type report = {
  model : string;
  core : string;
  max_batch : int;
  budget_pct : float;
  anchors : int list;
  surrogate : Surrogate.t;
  rows : row list;
  mean_abs_pct_error : float;
  max_abs_pct_error : float;
}

let price ~service ~core graph =
  match Service.run_inference service core graph with
  | Error _ as e -> e
  | Ok nr ->
    Ok
      {
        Surrogate.cycles = nr.Engine.total_cycles;
        latency_s = Engine.seconds nr;
        energy_j = nr.Engine.total_energy_j;
      }

(* exact entries for every batch in 1..max_batch; each is priced once
   (and the service's group cache dedupes below that) *)
let price_all ~price ~max_batch =
  let rec go acc b =
    if b > max_batch then Ok (Array.of_list (List.rev acc))
    else
      match price ~batch:b with
      | Error _ as e -> e
      | Ok entry -> go (entry :: acc) (b + 1)
  in
  go [] 1

let cycles_error (exact : Surrogate.entry) (predicted : Surrogate.entry) =
  Stats.abs_pct_error
    ~reference:(float_of_int exact.Surrogate.cycles)
    ~estimate:(float_of_int predicted.Surrogate.cycles)

(* Refinement: fit on the current anchor set, find the worst
   interpolation error over all batches, and promote that batch to an
   anchor while the error exceeds the budget.  Each round adds one
   anchor (whose error then becomes exactly 0), so the loop does at
   most [max_batch] rounds and always ends within budget. *)
let fit_on ~model ~exact anchors =
  Surrogate.fit ~model
    ~anchors:(List.map (fun b -> (b, exact.(b - 1))) anchors)

let refine ~budget_pct ~model ~exact ~max_batch anchors =
  let rec go anchors =
    match fit_on ~model ~exact anchors with
    | Error _ as e -> e
    | Ok surrogate ->
      let worst = ref None in
      for b = 1 to max_batch do
        if not (List.mem b anchors) then
          match Surrogate.lookup surrogate ~batch:b with
          | None -> ()
          | Some predicted ->
            let err = cycles_error exact.(b - 1) predicted in
            (match !worst with
            (* strict >: ties keep the smallest batch, deterministically *)
            | Some (_, e) when e >= err -> ()
            | _ -> if err > budget_pct then worst := Some (b, err))
      done;
      (match !worst with
      | None -> Ok surrogate
      | Some (b, _) -> go (List.sort compare (b :: anchors)))
  in
  go anchors

let fit ?(budget_pct = 5.) ~model ~price ~max_batch () =
  if max_batch < 1 then invalid_arg "Calibration.fit: max_batch < 1";
  if budget_pct < 0. then invalid_arg "Calibration.fit: negative budget";
  match price_all ~price ~max_batch with
  | Error _ as e -> e
  | Ok exact ->
    refine ~budget_pct ~model ~exact ~max_batch
      (Surrogate.anchor_batches ~max_batch)

let run ?(budget_pct = 5.) ~service ~core ~model ~build ~max_batch () =
  if max_batch < 1 then invalid_arg "Calibration.run: max_batch < 1";
  if budget_pct < 0. then invalid_arg "Calibration.run: negative budget";
  (* no fused group recurs across batch sizes, so a batch's cache entries
     are never hit again: drop them once the batch is priced, or the
     cache holds every compiled program of every batch *)
  let price ~batch =
    let entry = price ~service ~core (build ~batch) in
    Service.clear service;
    entry
  in
  match price_all ~price ~max_batch with
  | Error _ as e -> e
  | Ok exact -> (
    match
      refine ~budget_pct ~model ~exact ~max_batch
        (Surrogate.anchor_batches ~max_batch)
    with
    | Error _ as e -> e
    | Ok surrogate ->
      let anchors = List.map fst (Surrogate.anchors surrogate) in
      let rows =
        List.init max_batch (fun i ->
            let b = i + 1 in
            let ex = exact.(i) in
            let predicted =
              match Surrogate.lookup surrogate ~batch:b with
              | Some e -> e
              | None -> ex (* unreachable: b <= max_batch is in range *)
            in
            {
              batch = b;
              anchor = List.mem b anchors;
              exact = ex;
              predicted;
              cycles_pct_error = cycles_error ex predicted;
            })
      in
      let pairs =
        List.filter_map
          (fun r ->
            if r.anchor then None
            else
              Some
                ( float_of_int r.exact.Surrogate.cycles,
                  float_of_int r.predicted.Surrogate.cycles ))
          rows
      in
      Ok
        {
          model;
          core = core.Ascend_arch.Config.name;
          max_batch;
          budget_pct;
          anchors;
          surrogate;
          rows;
          mean_abs_pct_error = Stats.mean_abs_pct_error pairs;
          max_abs_pct_error = Stats.max_abs_pct_error pairs;
        })

let to_json r =
  Json.Obj
    [
      ("model", Json.String r.model);
      ("core", Json.String r.core);
      ("max_batch", Json.Int r.max_batch);
      ("budget_pct", Json.Float r.budget_pct);
      ("anchors", Json.List (List.map (fun b -> Json.Int b) r.anchors));
      ( "rows",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ("batch", Json.Int row.batch);
                   ("anchor", Json.Bool row.anchor);
                   ("exact_cycles", Json.Int row.exact.Surrogate.cycles);
                   ( "predicted_cycles",
                     Json.Int row.predicted.Surrogate.cycles );
                   ("cycles_pct_error", Json.Float row.cycles_pct_error);
                 ])
             r.rows) );
      ("mean_abs_pct_error", Json.Float r.mean_abs_pct_error);
      ("max_abs_pct_error", Json.Float r.max_abs_pct_error);
    ]

let pp ?(verbose = false) () ppf r =
  let non_anchor = List.length (List.filter (fun x -> not x.anchor) r.rows) in
  Format.fprintf ppf
    "%-12s on %-12s anchors [%s]  mean |err| %5.2f%%  max |err| %5.2f%%  (%d \
     interpolated batches)@."
    r.model r.core
    (String.concat ";" (List.map string_of_int r.anchors))
    r.mean_abs_pct_error r.max_abs_pct_error non_anchor;
  if verbose then
    List.iter
      (fun row ->
        Format.fprintf ppf
          "    batch %2d%s  exact %10d cycles  surrogate %10d cycles  err \
           %5.2f%%@."
          row.batch
          (if row.anchor then " *" else "  ")
          row.exact.Surrogate.cycles row.predicted.Surrogate.cycles
          row.cycles_pct_error)
      r.rows
