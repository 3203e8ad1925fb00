module Graph = Ascend_nn.Graph

type task = {
  id : int;
  tag : string;
  cycles : int;
  stream : int;
  deps : int list;
}

type plan = { stream_count : int; tasks : task list }

let streams graph groups =
  (* map node id -> group index *)
  let node_group = Hashtbl.create 64 in
  List.iteri
    (fun gi (g : Fusion.t) ->
      List.iter
        (fun (n : Graph.node) -> Hashtbl.replace node_group n.id gi)
        g.nodes)
    groups;
  (* group-level dependencies; bookkeeping nodes (Input/Output/Reshape)
     belong to no group, so resolve through them transitively *)
  let rec resolve_groups input =
    match Hashtbl.find_opt node_group input with
    | Some gj -> [ gj ]
    | None ->
      List.concat_map resolve_groups (Graph.find graph input).Graph.inputs
  in
  (* greedy chain cover: extend the stream of the most recent producer
     (the natural continuation) when this group is the first to consume
     that stream's tail; otherwise open a new stream *)
  let stream_of = Hashtbl.create 16 in
  let stream_tail = Hashtbl.create 16 (* stream -> last group idx *) in
  let next_stream = ref 0 in
  List.mapi
    (fun gi (g : Fusion.t) ->
      let deps =
        List.concat_map
          (fun (n : Graph.node) ->
            List.concat_map resolve_groups n.inputs
            |> List.filter (fun gj -> gj <> gi))
          g.nodes
        |> List.sort_uniq compare
      in
      let stream =
        match
          List.find_map
            (fun dep ->
              match Hashtbl.find_opt stream_of dep with
              | Some s when Hashtbl.find_opt stream_tail s = Some dep -> Some s
              | _ -> None)
            (List.rev deps)
        with
        | Some s -> s
        | None ->
          let s = !next_stream in
          incr next_stream;
          s
      in
      Hashtbl.replace stream_of gi stream;
      Hashtbl.replace stream_tail stream gi;
      (deps, stream))
    groups

let plan config graph =
  let groups = Fusion.partition graph in
  let assigned = Array.of_list (streams graph groups) in
  (* simulate each group for its cycle cost *)
  let rec sim acc gi = function
    | [] -> Ok (List.rev acc)
    | (g : Fusion.t) :: rest -> (
      match Engine.run_group config g with
      | Error _ as e -> e
      | Ok r ->
        let deps, stream = assigned.(gi) in
        (* cross-stream deps become explicit events *)
        let cross =
          List.filter (fun dep -> snd assigned.(dep) <> stream) deps
        in
        let cycles = r.Engine.report.Ascend_core_sim.Simulator.total_cycles in
        sim
          ({ id = gi; tag = g.Fusion.tag; cycles; stream; deps = cross } :: acc)
          (gi + 1) rest)
  in
  Result.map
    (fun tasks ->
      let stream_count =
        Array.fold_left (fun n (_, s) -> max n (s + 1)) 0 assigned
      in
      { stream_count; tasks })
    (sim [] 0 groups)

let serial_cycles p = List.fold_left (fun acc t -> acc + t.cycles) 0 p.tasks

let validate p =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | [] -> Ok ()
    | t :: rest ->
      if List.exists (fun d -> not (Hashtbl.mem seen d)) t.deps then
        Error (Printf.sprintf "task %s depends on a later task" t.tag)
      else if t.stream < 0 || t.stream >= p.stream_count then
        Error (Printf.sprintf "task %s has stream %d out of range" t.tag t.stream)
      else begin
        Hashtbl.replace seen t.id ();
        go rest
      end
  in
  go p.tasks

let makespan p ~cores =
  if cores <= 0 then invalid_arg "Graph_engine.makespan: non-positive cores";
  let finish = Hashtbl.create 64 in
  let stream_ready = Hashtbl.create 16 in
  let core_free = Array.make cores 0 in
  (* list schedule by readiness, not declaration order: repeatedly pick
     the eligible task with the earliest ready time so an idle stream is
     not starved behind an unrelated one *)
  let pending = ref p.tasks in
  let scheduled = Hashtbl.create 64 in
  let eligible t =
    (match Hashtbl.find_opt stream_ready t.stream with
    | Some _ | None -> true)
    && List.for_all (Hashtbl.mem finish) t.deps
    && (* stream order: the previous task of this stream must be done *)
    not
      (List.exists
         (fun u ->
           u.stream = t.stream && u.id < t.id
           && not (Hashtbl.mem scheduled u.id))
         p.tasks)
  in
  let ready_time t =
    let dep_ready =
      List.fold_left
        (fun acc d ->
          match Hashtbl.find_opt finish d with
          | Some f -> max acc f
          | None -> acc)
        0 t.deps
    in
    let sr =
      match Hashtbl.find_opt stream_ready t.stream with
      | Some v -> v
      | None -> 0
    in
    max dep_ready sr
  in
  while !pending <> [] do
    let best =
      List.fold_left
        (fun acc t ->
          if not (eligible t) then acc
          else
            match acc with
            | None -> Some t
            | Some b ->
              let rt = ready_time t and rb = ready_time b in
              if rt < rb || (rt = rb && t.id < b.id) then Some t else acc)
        None !pending
    in
    match best with
    | None ->
      (* cannot happen on a validated plan; avoid looping forever *)
      invalid_arg "Graph_engine.makespan: no eligible task (cyclic plan?)"
    | Some t ->
      let ready = ready_time t in
      let core = ref 0 in
      for c = 1 to cores - 1 do
        if core_free.(c) < core_free.(!core) then core := c
      done;
      let start = max ready core_free.(!core) in
      let stop = start + t.cycles in
      core_free.(!core) <- stop;
      Hashtbl.replace finish t.id stop;
      Hashtbl.replace stream_ready t.stream stop;
      Hashtbl.replace scheduled t.id ();
      pending := List.filter (fun u -> u.id <> t.id) !pending
  done;
  Hashtbl.fold (fun _ f acc -> max acc f) finish 0

let pp ppf p =
  Format.fprintf ppf "plan: %d streams, %d tasks, %d serial cycles@."
    p.stream_count (List.length p.tasks) (serial_cycles p);
  List.iter
    (fun t ->
      Format.fprintf ppf "  s%d %-28s %8d cyc%s@." t.stream t.tag t.cycles
        (if t.deps = [] then ""
         else
           " <- events from "
           ^ String.concat "," (List.map string_of_int t.deps)))
    p.tasks
