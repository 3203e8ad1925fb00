module Config = Ascend_arch.Config
module Precision = Ascend_arch.Precision
module I = Ascend_isa.Instruction
module Buffer_id = Ascend_isa.Buffer_id
module Pipe = Ascend_isa.Pipe
module Program = Ascend_isa.Program

type sync_mode = Flags | Coarse_barriers

type options = {
  weight_sparsity : float option;
  double_buffer : bool;
  naive_tiling : bool;
  sync_mode : sync_mode;
}

let default_options =
  { weight_sparsity = None; double_buffer = true; naive_tiling = false;
    sync_mode = Flags }

let select_tiling ~options config ~precision ~expansion ~m ~k ~n =
  if options.naive_tiling then Tiling.naive config ~precision ~m ~k ~n ()
  else Tiling.choose config ~precision ~img2col_expansion:expansion ~m ~k ~n ()

(* flag id assignments for the GEMM loop *)
let f_a_panel = 0 (* MTE2 -> MTE1: A panel staged in L1 *)
let f_b_data = 1 (* MTE2 -> MTE1: B data staged in L1 *)
let f_l0_data = 2 (* MTE1 -> Cube: tile pair in L0A/L0B *)
let f_l0_free = 3 (* Cube -> MTE1: L0 slot consumed *)
let f_drain = 4 (* Cube -> Vector: L0C tile complete *)
let f_l0c_free = 5 (* Vector -> Cube: L0C slot drained *)
let f_store = 6 (* Vector -> MTE3: UB tile ready *)
let f_ub_free = 7 (* MTE3 -> Vector: UB slot stored *)
let f_a_free = 8 (* MTE1 -> MTE2: L1 A slot fully read, reload allowed *)
let f_b_free = 9 (* MTE1 -> MTE2: L1 B slot fully read, reload allowed *)

(* L1 is shared between the A ring (slots 0..1) and the B region
   (slots 2..3): slot ids only need to be disjoint per buffer *)
let l1_b_slot_base = 2

type builder = {
  mutable rev : I.t list;
  (* net sets-minus-waits per flag triple, Flags mode only: the drain
     epilogue consumes leftovers so every program is flag-clean *)
  nets : (Pipe.t * Pipe.t * int, int) Hashtbl.t;
  mode : sync_mode;
}

(* every program opens with the scalar control prologue *)
let builder ?(mode = Flags) () =
  { rev = [ I.Scalar_op { cycles = 4 } ]; nets = Hashtbl.create 16; mode }
let emit b i = b.rev <- i :: b.rev

(* under coarse-barrier synchronisation (the ablation of Figure 3's
   decoupled flags), every dependency point becomes a full-pipe barrier:
   sets vanish and waits drain the whole core *)
let barrier b =
  match b.rev with
  | I.Barrier :: _ -> () (* collapse adjacent barriers *)
  | _ -> emit b I.Barrier

let bump b key d =
  let cur =
    match Hashtbl.find_opt b.nets key with Some v -> v | None -> 0
  in
  Hashtbl.replace b.nets key (cur + d)

let set b ~from_pipe ~to_pipe flag =
  match b.mode with
  | Flags ->
    bump b (from_pipe, to_pipe, flag) 1;
    emit b (I.set_flag ~from_pipe ~to_pipe ~flag)
  | Coarse_barriers -> ()

let wait b ~from_pipe ~to_pipe flag =
  match b.mode with
  | Flags ->
    bump b (from_pipe, to_pipe, flag) (-1);
    emit b (I.wait_flag ~from_pipe ~to_pipe ~flag)
  | Coarse_barriers -> barrier b

(* epilogue: consume every flag still set, so the program leaks none (a
   leaked set would satisfy the next program's first wait on its
   triple).  No-op under coarse barriers (no flags exist). *)
let drain b =
  Hashtbl.fold (fun key net acc -> (key, net) :: acc) b.nets []
  |> List.sort compare
  |> List.iter (fun ((from_pipe, to_pipe, flag), net) ->
         for _ = 1 to net do
           wait b ~from_pipe ~to_pipe flag
         done)

(* every program ends here: drain, then declare exactly the footprint
   the instruction stream allocates — the verifier recomputes the same
   quantity and cross-checks it *)
let finish b ~name =
  drain b;
  let p = Program.make ~name (List.rev b.rev) in
  { p with Program.buffer_peak = Program.(derived_buffer_peak (sync p)) }

let bytes_of ~elems ~size = int_of_float (ceil (float_of_int elems *. size))

let div_up = Ascend_util.Stats.divide_round_up

(* ------------------------------------------------------------------ *)
(* Cube-anchored group: tiled GEMM nest.                               *)

let emit_gemm b (config : Config.t) ~options ~precision ~expansion
    ~post_bytes_per_tile ~(tiling : Tiling.t) (g : Ascend_nn.Workload.gemm) =
  let src = Precision.size_bytes precision in
  let acc = Precision.size_bytes (Precision.accumulator precision) in
  (* clamp mt so a compact A panel (mt x K) double-buffers in half of L1 *)
  let dims = Config.cube_dims_at config ~precision in
  let panel_budget = config.buffers.l1_bytes / 4 in
  let mt =
    let per_row = float_of_int g.k *. src /. expansion in
    let cap = int_of_float (float_of_int panel_budget /. Float.max 1e-9 per_row) in
    let cap = max dims.m (cap / dims.m * dims.m) in
    min tiling.mt cap
  in
  let kt = tiling.kt and nt = tiling.nt in
  let m_tiles = div_up g.m mt in
  let k_tiles = div_up g.k kt in
  let n_tiles = div_up g.n nt in
  let b_total = bytes_of ~elems:(g.k * g.n) ~size:src in
  let b_resident = b_total <= config.buffers.l1_bytes / 4 in
  let sparsity = options.weight_sparsity in
  let b_transform =
    match sparsity with
    | Some ratio -> I.Decompress { ratio }
    | None -> I.Plain
  in
  let b_ext_bytes bytes =
    match sparsity with
    | Some ratio -> int_of_float (float_of_int bytes *. ratio)
    | None -> bytes
  in
  (* static buffer footprints *)
  let a_panel_bytes mt_a =
    bytes_of ~elems:(mt_a * g.k) ~size:src
    |> fun x -> int_of_float (float_of_int x /. expansion)
  in
  (* an A panel (mt x K, compact) stages in L1 when it fits the budget;
     with a huge K (e.g. dW GEMMs of the backward pass) the panel is
     streamed per k-tile instead, like a non-resident B *)
  let a_resident = a_panel_bytes mt <= panel_budget in
  let a_chunk_bytes mt_a kt_a =
    int_of_float (float_of_int (bytes_of ~elems:(mt_a * kt_a) ~size:src) /. expansion)
  in
  (* double buffering keeps two tiles in flight; disabling it (the
     ablation knob) serialises on a single slot.  Ring counters are
     global across GEMM instances so semaphore wait ordinals line up
     with the set that released the exact slot being rewritten. *)
  let depth = if options.double_buffer then 2 else 1 in
  let tile_index = ref 0 (* k-level tile pairs, for L0A/L0B recycling *) in
  let out_tile_index = ref 0 (* (m,n) output tiles, for L0C/UB recycling *) in
  let panel_index = ref 0 (* resident A panels, for the L1 A ring *) in
  for instance = 1 to g.count do
    if b_resident then begin
      (* the resident B region is one L1 slot reused by every instance:
         before overwriting it, wait for the previous instance's reads *)
      if instance > 1 then
        wait b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 f_b_free;
      emit b
        (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1
           ~dst_slot:l1_b_slot_base ~bytes:(b_ext_bytes b_total) ());
      set b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 f_b_data
    end;
    let waited_b = ref false in
    for mi = 0 to m_tiles - 1 do
      let mt_a = min mt (g.m - (mi * mt)) in
      (* stage the A panel for this m-tile when it fits *)
      let panel_slot = !panel_index mod depth in
      if a_resident then begin
        if !panel_index >= depth then
          wait b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 f_a_free;
        emit b
          (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1
             ~dst_slot:panel_slot ~bytes:(a_panel_bytes mt_a) ());
        set b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 f_a_panel
      end;
      let waited_a = ref false in
      for ni = 0 to n_tiles - 1 do
        let nt_a = min nt (g.n - (ni * nt)) in
        for ki = 0 to k_tiles - 1 do
          let kt_a = min kt (g.k - (ki * kt)) in
          let l0_slot = !tile_index mod depth in
          let out_slot = !out_tile_index mod depth in
          (* L0 slot backpressure *)
          if !tile_index >= depth then
            wait b ~from_pipe:Pipe.Cube ~to_pipe:Pipe.Mte1 f_l0_free;
          let a_l1_slot =
            if a_resident then begin
              if not !waited_a then begin
                wait b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 f_a_panel;
                waited_a := true
              end;
              panel_slot
            end
            else begin
              let slot = !tile_index mod depth in
              if !tile_index >= depth then
                wait b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 f_a_free;
              emit b
                (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1
                   ~dst_slot:slot ~bytes:(a_chunk_bytes mt_a kt_a) ());
              set b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 f_a_panel;
              wait b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 f_a_panel;
              slot
            end
          in
          emit b
            (I.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0a
               ~transform:(I.Img2col { expansion })
               ~src_slot:a_l1_slot ~dst_slot:l0_slot
               ~bytes:(bytes_of ~elems:(mt_a * kt_a) ~size:src)
               ());
          if not a_resident then
            (* this streamed A chunk is consumed; its L1 slot may reload *)
            set b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 f_a_free;
          let b_l1_slot =
            if b_resident then begin
              if not !waited_b then begin
                wait b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 f_b_data;
                waited_b := true
              end;
              l1_b_slot_base
            end
            else begin
              let slot = l1_b_slot_base + (!tile_index mod depth) in
              if !tile_index >= depth then
                wait b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 f_b_free;
              emit b
                (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.L1
                   ~dst_slot:slot
                   ~bytes:(b_ext_bytes (bytes_of ~elems:(kt_a * nt_a) ~size:src))
                   ());
              set b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 f_b_data;
              wait b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Mte1 f_b_data;
              slot
            end
          in
          emit b
            (I.mte_move ~src:Buffer_id.L1 ~dst:Buffer_id.L0b
               ~transform:b_transform
               ~src_slot:b_l1_slot ~dst_slot:l0_slot
               ~bytes:(bytes_of ~elems:(kt_a * nt_a) ~size:src)
               ());
          if not b_resident then
            set b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 f_b_free;
          set b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Cube f_l0_data;
          (* cube side *)
          wait b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Cube f_l0_data;
          if ki = 0 && !out_tile_index >= depth then
            wait b ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Cube f_l0c_free;
          emit b
            (I.cube_matmul ~m:mt_a ~k:kt_a ~n:nt_a ~precision
               ~accumulate:(ki > 0) ~l0a_slot:l0_slot ~l0b_slot:l0_slot
               ~l0c_slot:out_slot ());
          set b ~from_pipe:Pipe.Cube ~to_pipe:Pipe.Mte1 f_l0_free;
          incr tile_index
        done;
        let out_slot = !out_tile_index mod depth in
        (* drain the finished (mi, ni) tile through the vector unit *)
        set b ~from_pipe:Pipe.Cube ~to_pipe:Pipe.Vector f_drain;
        wait b ~from_pipe:Pipe.Cube ~to_pipe:Pipe.Vector f_drain;
        if !out_tile_index >= depth then
          wait b ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector f_ub_free;
        let out_acc_bytes = bytes_of ~elems:(mt_a * nt_a) ~size:acc in
        emit b
          (I.mte_move ~src:Buffer_id.L0c ~dst:Buffer_id.Ub
             ~src_slot:out_slot ~dst_slot:out_slot ~bytes:out_acc_bytes ());
        if post_bytes_per_tile > 0 then
          emit b
            (I.vector_op ~op_name:"post" ~bytes:post_bytes_per_tile
               ~ub_in_slot:out_slot ~ub_out_slot:out_slot ());
        set b ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Cube f_l0c_free;
        set b ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 f_store;
        (* store side, downcast back to source precision *)
        wait b ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 f_store;
        emit b
          (I.mte_move ~src:Buffer_id.Ub ~dst:Buffer_id.External
             ~src_slot:out_slot
             ~bytes:(bytes_of ~elems:(mt_a * nt_a) ~size:src)
             ());
        set b ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector f_ub_free;
        incr out_tile_index
      done;
      if a_resident then begin
        (* all reads of this panel are done; its L1 slot may reload *)
        set b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 f_a_free;
        incr panel_index
      end
    done;
    if b_resident then
      set b ~from_pipe:Pipe.Mte1 ~to_pipe:Pipe.Mte2 f_b_free
  done

(* ------------------------------------------------------------------ *)
(* UB stream: load -> vector passes -> store, one round per chunk.     *)

type chunk = { load : int; passes : (string * int) list; store : int }

let f_in_data = 0 (* MTE2 -> Vector *)
let f_in_free = 1 (* Vector -> MTE2 *)
let f_out_data = 2 (* Vector -> MTE3 *)
let f_out_free = 3 (* MTE3 -> Vector *)

(* four quarter-UB ring slots: two inputs (0..1) and two outputs (2..3)
   are the whole UB at double-buffering depth *)
let ub_slot_bytes (config : Config.t) = max 1 (config.buffers.ub_bytes / 4)

(* round [i]'s part of [total] split over [chunks] rounds, spreading the
   remainder *)
let share ~chunks total i =
  (total / chunks) + if i < total mod chunks then 1 else 0

let emit_vector_stream b ~depth chunks =
  let ub_out_base = 2 in
  List.iteri
    (fun i { load; passes; store } ->
      let in_slot = i mod depth in
      let out_slot = ub_out_base + (i mod depth) in
      if i >= depth then
        wait b ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte2 f_in_free;
      if load > 0 then
        emit b
          (I.mte_move ~src:Buffer_id.External ~dst:Buffer_id.Ub
             ~dst_slot:in_slot ~bytes:load ());
      set b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Vector f_in_data;
      wait b ~from_pipe:Pipe.Mte2 ~to_pipe:Pipe.Vector f_in_data;
      if i >= depth then
        wait b ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector f_out_free;
      (* the first pass reads the input slot, later passes update the
         output slot in place *)
      List.iteri
        (fun pi (op_name, bytes) ->
          if bytes > 0 then
            emit b
              (I.vector_op ~op_name ~bytes
                 ~ub_in_slot:(if pi = 0 then in_slot else out_slot)
                 ~ub_out_slot:out_slot ()))
        passes;
      set b ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte2 f_in_free;
      set b ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 f_out_data;
      wait b ~from_pipe:Pipe.Vector ~to_pipe:Pipe.Mte3 f_out_data;
      if store > 0 then
        emit b
          (I.mte_move ~src:Buffer_id.Ub ~dst:Buffer_id.External
             ~src_slot:out_slot ~bytes:store ());
      set b ~from_pipe:Pipe.Mte3 ~to_pipe:Pipe.Vector f_out_free)
    chunks

(* ------------------------------------------------------------------ *)

let group_program ?(options = default_options) (config : Config.t)
    (group : Fusion.t) =
  if not (Config.supports config group.precision) then
    invalid_arg
      (Printf.sprintf "Codegen.group_program: %s unsupported on %s"
         (Precision.name group.precision)
         config.name);
  let b = builder ~mode:options.sync_mode () in
  let src = Precision.size_bytes group.precision in
  let vector_bytes = int_of_float (ceil (group.vector_elems *. src)) in
  (match group.kind with
  | Fusion.Cube_anchored ->
    let tiled =
      List.map
        (fun (g : Ascend_nn.Workload.gemm) ->
          ( g,
            select_tiling ~options config ~precision:group.precision
              ~expansion:group.img2col_expansion ~m:g.m ~k:g.k ~n:g.n ))
        group.gemms
    in
    let total_out_tiles =
      List.fold_left
        (fun acc ((g : Ascend_nn.Workload.gemm), (t : Tiling.t)) ->
          acc + (g.count * t.m_tiles * t.n_tiles))
        0 tiled
    in
    let post_bytes_per_tile =
      if total_out_tiles = 0 then 0 else vector_bytes / total_out_tiles
    in
    List.iteri
      (fun i (g, tiling) ->
        if i > 0 then begin
          (* a multi-GEMM group (kv attention's scores + context) reuses
             every ring slot with counters starting over; drain the
             outstanding flags and erect a full barrier so the next GEMM
             begins from the same clean state a fresh program has *)
          drain b;
          barrier b
        end;
        emit_gemm b config ~options ~precision:group.precision
          ~expansion:group.img2col_expansion ~post_bytes_per_tile ~tiling g)
      tiled
  | Fusion.Vector_only ->
    (* an even split whose every round fits one UB ring slot *)
    let totals = [ vector_bytes; group.input_bytes; group.output_bytes ] in
    let slot = ub_slot_bytes config in
    let chunks =
      max 1 (List.fold_left (fun acc t -> max acc (div_up t slot)) 0 totals)
    in
    emit_vector_stream b
      ~depth:(if options.double_buffer then 2 else 1)
      (List.init chunks (fun i ->
           { load = share ~chunks group.input_bytes i;
             passes = [ ("vec", share ~chunks vector_bytes i) ];
             store = share ~chunks group.output_bytes i })));
  finish b ~name:group.tag

let graph_programs ?options config graph =
  let groups = Fusion.partition graph in
  List.map (fun g -> (g, group_program ?options config g)) groups
