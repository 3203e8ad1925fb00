(** Whole-SoC static race detector over a fused-group schedule.

    The per-program analysis ([Ascend_verify.analyze]) proves each core
    program internally race-free; this module lifts the same
    happens-before reasoning one level up, to the compiler's multi-core
    schedule of fused groups.  Tasks are compiled group programs pinned
    to cores; edges are the inter-core dependencies the memory planner
    and graph engine imply (producer->consumer data edges, memory-reuse
    anti-dependencies, same-core issue order), and [Hb]'s Kahn pass
    orders them with cores as lanes.  The checks:

    - {b cross-core RAW/WAR/WAW races}: two tasks on different cores
      whose HBM byte-range footprints overlap and that no edge orders;
    - {b cross-core deadlock}: a cycle in the schedule's dependency
      graph (or a dependency on a task that does not exist);
    - {b LLC/HBM capacity overcommit}: resident weights plus peak live
      activation regions against HBM capacity (error), and the largest
      concurrent per-wave working set against LLC capacity (warning).

    The schedule representation is deliberately neutral — plain ids,
    byte ranges and tags — so this library needs no dependency on the
    compiler; [Ascend_compiler.Soc_schedule] builds plans from real
    model graphs, and tests build mutated ones by hand. *)

type region = { base : int; bytes : int }

type task = {
  id : int;
  core : int;
  tag : string;
  deps : int list;
  reads : (string * region) list;
  writes : (string * region) list;
  ext_read_bytes : int;
  ext_write_bytes : int;
  working_set_bytes : int;
}

type plan = {
  soc_name : string;
  cores : int;
  llc_bytes : int option;
  hbm_bytes : int option;
  weight_resident_bytes : int;
  tasks : task list;
}

let region_overlaps a b =
  a.bytes > 0 && b.bytes > 0
  && a.base < b.base + b.bytes
  && b.base < a.base + a.bytes

(* ------------------------------------------------------------------ *)
(* Cross-core races: every unordered pair of tasks on different cores
   with overlapping byte-range footprints.  The listing order is the
   serial reference schedule, so the earlier task's access names the
   dependence direction (RAW: earlier writes, later reads). *)

let race_findings (g : task Hb.t) =
  let n = Array.length g.nodes in
  let findings = ref [] in
  let report dep (a : task) (b : task) name_a name_b (ra : region) =
    findings :=
      Finding.make ~index:b.id (Finding.Soc_race { dep })
        (Printf.sprintf
           "%s race between core %d task %s (%s) and core %d task %s (%s) on \
            HBM bytes [%d..%d): no schedule edge orders them"
           dep a.core a.tag name_a b.core b.tag name_b ra.base
           (ra.base + ra.bytes))
      :: !findings
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = g.nodes.(i) and b = g.nodes.(j) in
      if a.core <> b.core && not (Hb.hb g i j) && not (Hb.hb g j i)
      then begin
        (* earlier write vs later read: RAW *)
        List.iter
          (fun (na, ra) ->
            List.iter
              (fun (nb, rb) ->
                if region_overlaps ra rb then report "RAW" a b na nb ra)
              b.reads)
          a.writes;
        (* earlier read vs later write: WAR *)
        List.iter
          (fun (na, ra) ->
            List.iter
              (fun (nb, rb) ->
                if region_overlaps ra rb then report "WAR" a b na nb ra)
              b.writes)
          a.reads;
        (* write vs write: WAW *)
        List.iter
          (fun (na, ra) ->
            List.iter
              (fun (nb, rb) ->
                if region_overlaps ra rb then report "WAW" a b na nb ra)
              b.writes)
          a.writes
      end
    done
  done;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Capacity: HBM residency (weights + live activation regions, an
   error: the plan cannot execute) and LLC working set per concurrent
   wave (a warning: it executes, but thrashes the shared cache). *)

let capacity_findings (g : task Hb.t) (p : plan) =
  let tasks = g.Hb.nodes in
  let n = Array.length tasks in
  let findings = ref [] in
  (match p.hbm_bytes with
  | None -> ()
  | Some cap ->
    (* a write region is live from its producer's position to its last
       reader's position *)
    let last_reader = Hashtbl.create 32 in
    Array.iteri
      (fun i (t : task) ->
        List.iter
          (fun (_, (r : region)) ->
            List.iteri
              (fun j (u : task) ->
                if j >= i then
                  let reads_it =
                    List.exists (fun (_, ru) -> region_overlaps r ru) u.reads
                  in
                  if reads_it then Hashtbl.replace last_reader (i, r.base) j)
              (Array.to_list tasks))
          t.writes)
      tasks;
    let peak = ref 0 in
    let peak_pos = ref 0 in
    for pos = 0 to n - 1 do
      let live = ref 0 in
      Array.iteri
        (fun i (t : task) ->
          List.iter
            (fun (_, (r : region)) ->
              let last =
                match Hashtbl.find_opt last_reader (i, r.base) with
                | Some j -> j
                | None -> i
              in
              if i <= pos && pos <= last then live := !live + r.bytes)
            t.writes)
        tasks;
      if !live > !peak then begin
        peak := !live;
        peak_pos := pos
      end
    done;
    let total = p.weight_resident_bytes + !peak in
    if total > cap then
      findings :=
        Finding.make
          ~index:tasks.(!peak_pos).id
          (Finding.Soc_overcommit { resource = "HBM" })
          (Printf.sprintf
             "resident weights %d B + peak live activations %d B (at task \
              %s) = %d B exceed the %d B HBM capacity"
             p.weight_resident_bytes !peak tasks.(!peak_pos).tag total cap)
        :: !findings);
  (match p.llc_bytes with
  | None -> ()
  | Some cap ->
    (* ASAP wave levels along the topological order: one past the
       task's latest dependency and its same-core predecessor, which
       the lane chain places just before it.  Within a wave at most
       [cores] tasks run concurrently, so charge the largest [cores]
       working sets.  A task that never starts joins no wave. *)
    let level = Hashtbl.create (2 * n) in
    let core_level = Array.make p.cores (-1) in
    Array.iter
      (fun i ->
        let t = tasks.(i) in
        let l =
          List.fold_left
            (fun acc d ->
              match Hashtbl.find_opt level d with
              | Some l -> max acc (l + 1)
              | None -> acc)
            (core_level.(t.core) + 1)
            t.deps
        in
        core_level.(t.core) <- l;
        Hashtbl.replace level t.id l)
      g.Hb.topo;
    let by_level = Hashtbl.create 16 in
    Array.iter
      (fun (t : task) ->
        match Hashtbl.find_opt level t.id with
        | None -> ()
        | Some l ->
          let cur =
            match Hashtbl.find_opt by_level l with Some l -> l | None -> []
          in
          Hashtbl.replace by_level l (t :: cur))
      tasks;
    let worst = ref 0 and worst_level = ref 0 in
    Hashtbl.iter
      (fun lvl tasks ->
        let sets =
          List.map (fun (t : task) -> t.working_set_bytes) tasks
          |> List.sort (fun a b -> compare b a)
        in
        let rec take k = function
          | x :: rest when k > 0 -> x + take (k - 1) rest
          | _ -> 0
        in
        let ws = take (max 1 p.cores) sets in
        if ws > !worst then begin
          worst := ws;
          worst_level := lvl
        end)
      by_level;
    if !worst > cap then
      findings :=
        Finding.make ~severity:Finding.Warning
          (Finding.Soc_overcommit { resource = "LLC" })
          (Printf.sprintf
             "concurrent wave %d holds a %d B working set across %d core(s), \
              exceeding the %d B LLC — expect thrashing"
             !worst_level !worst (max 1 p.cores) cap)
        :: !findings);
  List.rev !findings

(* ------------------------------------------------------------------ *)

(* a task on no core of the plan has no lane, and one that repeats an
   earlier task's id makes a dependency on that id ambiguous *)
let malformed_findings (p : plan) =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun t ->
      let repeated = Hashtbl.mem seen t.id in
      Hashtbl.replace seen t.id ();
      let malformed fmt =
        Printf.ksprintf
          (fun m -> Some (Finding.make ~index:t.id Finding.Malformed m))
          fmt
      in
      if t.core < 0 || t.core >= p.cores then
        malformed "task %s: core %d out of range [0,%d)" t.tag t.core p.cores
      else if repeated then malformed "task %s: duplicate task id %d" t.tag t.id
      else None)
    p.tasks

let analyze (p : plan) =
  match malformed_findings p with
  | _ :: _ as malformed -> malformed
  | [] when p.tasks = [] -> []
  | [] ->
    (* same-core issue order is the lanes, dependencies the edges *)
    let g =
      Hb.of_deps ~lanes:p.cores
        ~lane:(fun t -> t.core)
        ~id:(fun t -> t.id)
        ~deps:(fun t -> t.deps)
        ~missing:(fun t d ->
          Finding.make ~index:t.id Finding.Soc_deadlock
            (Printf.sprintf
               "task %s (core %d) depends on task id %d which is not in the \
                schedule"
               t.tag t.core d))
        ~cycle:(fun stuck ->
          Finding.make Finding.Soc_deadlock
            (Printf.sprintf
               "schedule dependency graph is cyclic: %d task(s) can never \
                start (%s)"
               (List.length stuck)
               (String.concat ", "
                  (List.map (fun t -> Printf.sprintf "%s(core %d)" t.tag t.core)
                     stuck))))
        p.tasks
    in
    (* race results are only meaningful on an acyclic schedule: a stuck
       task never runs, so racing with it is moot *)
    let races = if g.findings = [] then race_findings g else [] in
    g.findings @ races @ capacity_findings g p
