type task = { task_name : string; blocks : int; cycles_per_block : int }

type stream = { stream_name : string; tasks : task list }

type app = { app_name : string; streams : stream list; priority : int }

let app ?(priority = 0) ~name streams =
  { app_name = name; streams; priority }

type placement = {
  app : string;
  stream : string;
  task : string;
  block : int;
  core : int;
  start_cycle : int;
  end_cycle : int;
}

type schedule = {
  placements : placement list;
  makespan_cycles : int;
  core_busy_cycles : int array;
  tasks_completed : int;
}

type live_stream = {
  ls_app : string;
  ls_name : string;
  ls_priority : int;
  ls_index : int;  (* declaration order, the final tiebreak *)
  mutable remaining : task list;
  mutable ready : int;  (* previous task's completion *)
}

(* strict total order for stream selection: highest priority first, then
   smallest ready time, then declaration order *)
let precedes a b =
  a.ls_priority > b.ls_priority
  || (a.ls_priority = b.ls_priority
     && (a.ready < b.ready || (a.ready = b.ready && a.ls_index < b.ls_index)))

(* the binary heap under [precedes].  A stream's [ready] only mutates
   while it is popped out of the heap, so the invariant holds. *)
module Heap = Ascend_util.Heap.Make (struct
  type t = live_stream

  let precedes = precedes
end)

let validate_inputs ~cores apps =
  if cores <= 0 then invalid_arg "Scheduler.run: non-positive cores";
  List.iter
    (fun a ->
      List.iter
        (fun s ->
          List.iter
            (fun t ->
              if t.blocks <= 0 || t.cycles_per_block < 0 then
                invalid_arg
                  (Printf.sprintf "Scheduler.run: malformed task %s" t.task_name))
            s.tasks)
        a.streams)
    apps

let run ~cores apps =
  validate_inputs ~cores apps;
  let streams =
    let ix = ref (-1) in
    List.concat_map
      (fun a ->
        List.map
          (fun s ->
            incr ix;
            { ls_app = a.app_name; ls_name = s.stream_name;
              ls_priority = a.priority; ls_index = !ix; remaining = s.tasks;
              ready = 0 })
          a.streams)
      apps
  in
  let core_free = Array.make cores 0 in
  let core_busy = Array.make cores 0 in
  let placements = ref [] in
  let tasks_done = ref 0 in
  (* streams with work, selected in [precedes] order.  The heap keeps
     per-task selection at O(log streams); a linear scan here made
     one-task-per-stream workloads — the serving loops' offline repack
     dispatches one stream per batch — quadratic in batch count. *)
  let heap = Heap.create () in
  List.iter (fun s -> if s.remaining <> [] then Heap.push heap s) streams;
  let rec next_stream () =
    match Heap.pop heap with
    | None -> ()
    | Some s ->
      (match s.remaining with
      | [] -> ()
      | t :: rest ->
        s.remaining <- rest;
        (* place blocks on the earliest-free cores *)
        let finish = ref s.ready in
        for b = 0 to t.blocks - 1 do
          (* pick the core that frees first *)
          let core = ref 0 in
          for c = 1 to cores - 1 do
            if core_free.(c) < core_free.(!core) then core := c
          done;
          let start = max core_free.(!core) s.ready in
          let stop = start + t.cycles_per_block in
          core_free.(!core) <- stop;
          core_busy.(!core) <- core_busy.(!core) + t.cycles_per_block;
          finish := max !finish stop;
          placements :=
            { app = s.ls_app; stream = s.ls_name; task = t.task_name;
              block = b; core = !core; start_cycle = start; end_cycle = stop }
            :: !placements
        done;
        s.ready <- !finish;
        incr tasks_done;
        if s.remaining <> [] then Heap.push heap s);
      next_stream ()
  in
  next_stream ();
  let makespan = Array.fold_left max 0 core_free in
  {
    placements = List.rev !placements;
    makespan_cycles =
      List.fold_left (fun acc s -> max acc s.ready) makespan streams;
    core_busy_cycles = core_busy;
    tasks_completed = !tasks_done;
  }

let utilization s =
  if s.makespan_cycles = 0 then 0.
  else
    let busy = Array.fold_left ( + ) 0 s.core_busy_cycles in
    float_of_int busy
    /. float_of_int (s.makespan_cycles * Array.length s.core_busy_cycles)

let task_of_layer (l : Ascend_compiler.Engine.layer_result) ~blocks =
  if blocks <= 0 then invalid_arg "Scheduler.task_of_layer: no blocks";
  {
    task_name = l.group.Ascend_compiler.Fusion.tag;
    blocks;
    cycles_per_block =
      Ascend_util.Stats.divide_round_up
        l.report.Ascend_core_sim.Simulator.total_cycles blocks;
  }

let stream_of_network (r : Ascend_compiler.Engine.network_result)
    ~blocks_per_task =
  {
    stream_name = r.graph_name;
    tasks = List.map (task_of_layer ~blocks:blocks_per_task) r.layers;
  }

let pp ppf s =
  Format.fprintf ppf
    "schedule: %d tasks, makespan %d cycles, utilization %.1f%%@."
    s.tasks_completed s.makespan_cycles
    (100. *. utilization s)
