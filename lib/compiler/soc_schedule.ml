(** Build a whole-SoC schedule ([Ascend_verify.Soc.plan]) from a model
    graph — the bridge between the compiler and the SoC-level static
    race detector.

    Tasks are the fused groups, pinned to cores by the same greedy
    chain-cover the stream scheduler uses (stream mod cores).  Byte
    footprints come from two places cross-checked against each other:
    the memory planner's activation-arena offsets give each node's
    HBM region, and the compiled instruction streams give the External
    traffic totals.  Edges are (a) the group-level data dependencies the
    graph implies, resolved transitively through bookkeeping nodes, and
    (b) memory-reuse anti-dependencies: the planner reuses offsets
    across disjoint live ranges, so two groups on different cores whose
    regions overlap must be serialised even when no data flows between
    them.  By construction the resulting plan is race-free — which is
    exactly what [Soc.analyze] verifies, and what the mutation tests
    falsify by dropping an edge. *)

module Graph = Ascend_nn.Graph
module Soc = Ascend_verify.Soc
module Buffer_id = Ascend_isa.Buffer_id
module Program = Ascend_isa.Program

let default_cores = 4

(* total External-buffer traffic of a compiled program, from its
   decoded accesses *)
let external_traffic (p : Program.t) =
  let s = Program.sync p in
  let r = ref 0 and w = ref 0 in
  for a = 0 to Program.first_access s s.Program.length - 1 do
    if Buffer_id.equal (Program.access_buffer s a) Buffer_id.External then
      let total = if Program.access_write s a then w else r in
      total := !total + Program.access_bytes s a
  done;
  (!r, !w)

let build ?options ?(cores = default_cores) ?llc_bytes ?hbm_bytes config graph
    =
  if cores <= 0 then invalid_arg "Soc_schedule.build: non-positive cores";
  let compiled = Codegen.graph_programs ?options config graph in
  let mem = Memory_planner.plan graph in
  let alloc_of = Hashtbl.create 64 in
  List.iter
    (fun (a : Memory_planner.allocation) ->
      Hashtbl.replace alloc_of a.node_id a)
    mem.Memory_planner.allocations;
  let region_of node_id =
    match Hashtbl.find_opt alloc_of node_id with
    | Some a ->
      Some
        ( a.Memory_planner.node_name,
          { Soc.base = a.Memory_planner.offset;
            bytes = a.Memory_planner.size_bytes } )
    | None -> None
  in
  let rows =
    List.mapi
      (fun gi (((g : Fusion.t), p), (deps, stream)) ->
        (gi, g, p, deps, stream mod cores))
      (List.combine compiled
         (Graph_engine.streams graph (List.map fst compiled)))
  in
  let writes_of (g : Fusion.t) =
    List.filter_map (fun (n : Graph.node) -> region_of n.id) g.nodes
  in
  let reads_of (g : Fusion.t) =
    List.concat_map
      (fun (n : Graph.node) ->
        List.filter_map
          (fun input ->
            if List.exists (fun (m : Graph.node) -> m.id = input) g.nodes
            then None
            else region_of input)
          n.Graph.inputs)
      g.nodes
  in
  let proto =
    List.map
      (fun (gi, (g : Fusion.t), p, deps, core) ->
        let ext_read_bytes, ext_write_bytes = external_traffic p in
        {
          Soc.id = gi;
          core;
          tag = g.Fusion.tag;
          deps;
          reads = reads_of g;
          writes = writes_of g;
          ext_read_bytes;
          ext_write_bytes;
          working_set_bytes =
            g.Fusion.input_bytes + g.Fusion.weight_bytes
            + g.Fusion.output_bytes;
        })
      rows
  in
  (* memory-reuse anti-dependencies: serialise every cross-core pair
     whose regions conflict (write/write, write/read or read/write) and
     that data deps leave unordered.  The planner's offset reuse makes
     these conflicts routine on branchy graphs; without the edges they
     would be reported as races — correctly, because nothing would
     order them on real hardware either. *)
  let arr = Array.of_list proto in
  let conflicts (a : Soc.task) (b : Soc.task) =
    let touch xs ys =
      List.exists
        (fun (_, r) ->
          List.exists (fun (_, s) -> Soc.region_overlaps r s) ys)
        xs
    in
    touch a.Soc.writes b.Soc.writes
    || touch a.Soc.writes b.Soc.reads
    || touch a.Soc.reads b.Soc.writes
  in
  let n = Array.length arr in
  for j = 0 to n - 1 do
    for i = 0 to j - 1 do
      let a = arr.(i) and b = arr.(j) in
      if a.Soc.core <> b.Soc.core && conflicts a b
         && not (List.mem a.Soc.id b.Soc.deps)
      then arr.(j) <- { b with Soc.deps = a.Soc.id :: b.Soc.deps }
    done
  done;
  let tasks =
    Array.to_list arr
    |> List.map (fun (t : Soc.task) ->
           { t with Soc.deps = List.sort_uniq compare t.Soc.deps })
  in
  let plan =
    {
      Soc.soc_name = Printf.sprintf "%s@%s" (Graph.name graph) config.Ascend_arch.Config.name;
      cores;
      llc_bytes;
      hbm_bytes;
      weight_resident_bytes = mem.Memory_planner.weight_bytes;
      tasks;
    }
  in
  (plan, compiled)
