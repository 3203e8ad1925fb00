module Config = Ascend_arch.Config
module Silicon = Ascend_arch.Silicon
module Pipe = Ascend_isa.Pipe
module Buffer_id = Ascend_isa.Buffer_id
module Instruction = Ascend_isa.Instruction
module Program = Ascend_isa.Program
module Obs = Ascend_obs

type pipe_stats = { busy_cycles : int; instruction_count : int }

type buffer_traffic = { read_bytes : int; written_bytes : int }

type trace_entry = {
  index : int;
  pipe : Pipe.t;
  start_cycle : int;
  end_cycle : int;
  instr : Instruction.t;
}

type report = {
  total_cycles : int;
  pipes : pipe_stats array;
  traffic : buffer_traffic array;
  energy_j : float;
  cube_macs_executed : int;
  trace : trace_entry list;
}

(* external accesses (LLC/HBM behind the BIU) cost far more than local
   SRAM; 15 pJ/B is an LLC-hit-dominated average at 7 nm *)
let external_energy_pj_per_byte = 15.0

type sim_state = {
  config : Config.t;
  sync : Program.sync;
  pipe_time : int array;
  busy : int array;
  count : int array;
  read_bytes : int array;
  written_bytes : int array;
  mutable energy_pj : float;
  mutable macs : int;
  mutable trace_rev : trace_entry list;
  keep_trace : bool;
  (* obs process lane for this run; -1 when no collector is installed,
     which keeps every emission below a dead branch (zero allocation) *)
  obs_pid : int;
  finish : int array;
      (* completion cycle by program index, read back for a set: its
         wait's token *)
}

(* [finish], reused per domain *)
let finish_buf = Ascend_util.Scratch.create 0

(* per-buffer bytes from instruction [i]'s decoded accesses *)
let count_traffic st i =
  let s = st.sync in
  for a = Program.first_access s i to Program.first_access s (i + 1) - 1 do
    let b = Buffer_id.index (Program.access_buffer s a) in
    let bytes = Program.access_bytes s a in
    if Program.access_write s a then
      st.written_bytes.(b) <- st.written_bytes.(b) + bytes
    else st.read_bytes.(b) <- st.read_bytes.(b) + bytes
  done

let account_energy st instr =
  let pj =
    match instr with
    | Instruction.Cube_matmul { m; k; n; precision; _ } ->
      st.macs <- st.macs + (m * k * n);
      Silicon.cube_energy_per_tile_j ~precision { Config.m; k; n } *. 1e12
    | Instruction.Vector_op { bytes; _ } ->
      Silicon.vector_energy_per_byte_j *. float_of_int bytes *. 1e12
    | Instruction.Mte_move { src; dst; bytes; _ } ->
      let src_bytes = float_of_int (Instruction.source_bytes instr) in
      let on_chip b = not (Buffer_id.equal b Buffer_id.External) in
      let side b n =
        if on_chip b then n *. Silicon.e_fetch_pj_per_byte_7nm
        else n *. external_energy_pj_per_byte
      in
      side src src_bytes +. side dst (float_of_int bytes)
    | Instruction.Scalar_op { cycles } -> 5. *. float_of_int cycles
    | Instruction.Set_flag _ -> 1.
    (* neither reaches [issue]: a wait issues through [Dispatch]'s [take]
       and a barrier through [arrive], so both are free *)
    | Instruction.Wait_flag _ | Instruction.Barrier -> 0.
  in
  st.energy_pj <- st.energy_pj +. pj

let push_trace st ~index ~pipe ~start_cycle ~end_cycle instr =
  if st.keep_trace then
    st.trace_rev <-
      { index; pipe; start_cycle; end_cycle; instr } :: st.trace_rev

(* per-instruction obs span on the executing pipe's thread lane,
   timestamped in simulated cycles *)
let obs_span st ~pipe ~start ~finish instr =
  if st.obs_pid >= 0 then begin
    let name, args =
      match instr with
      | Instruction.Cube_matmul { m; k; n; _ } ->
        ("cube_matmul", [ ("macs", Obs.Event.Int (m * k * n)) ])
      | Instruction.Vector_op { op_name; bytes; _ } ->
        ("vec_" ^ op_name, [ ("bytes", Obs.Event.Int bytes) ])
      | Instruction.Mte_move { src; dst; bytes; _ } ->
        ( Printf.sprintf "mte_%s_to_%s" (Buffer_id.name src)
            (Buffer_id.name dst),
          [ ("bytes", Obs.Event.Int bytes) ] )
      | Instruction.Scalar_op _ -> ("scalar_op", [])
      | Instruction.Set_flag { flag; _ } ->
        ("set_flag", [ ("flag", Obs.Event.Int flag) ])
      | Instruction.Wait_flag { flag; _ } ->
        ("wait_flag", [ ("flag", Obs.Event.Int flag) ])
      | Instruction.Barrier -> ("barrier", [])
    in
    Obs.Hook.span ~args ~cat:(Pipe.name pipe) ~name ~pid:st.obs_pid
      ~tid:(Pipe.index pipe) ~ts:(float_of_int start)
      ~dur:(float_of_int (finish - start)) ()
  end

let complete st pipe ~index ~start ~finish instr =
  let p = Pipe.index pipe in
  st.pipe_time.(p) <- finish;
  st.finish.(index) <- finish;
  st.busy.(p) <- st.busy.(p) + (finish - start);
  st.count.(p) <- st.count.(p) + 1;
  push_trace st ~index ~pipe ~start_cycle:start ~end_cycle:finish instr;
  obs_span st ~pipe ~start ~finish instr

(* the simulator's side of {!Dispatch}: a set's token is its completion
   cycle, and a barrier releases every pipe at the latest arrival *)
let hooks st =
  let obs_barrier name p id ts =
    if st.obs_pid >= 0 then
      Obs.Hook.instant
        ~args:[ ("barrier", Obs.Event.Int id) ]
        ~cat:"sync" ~name ~pid:st.obs_pid ~tid:p ~ts:(float_of_int ts) ()
  in
  {
    Dispatch.issue =
      (fun pipe index instr ->
        let start = max st.pipe_time.(Pipe.index pipe) index in
        count_traffic st index;
        account_energy st instr;
        complete st pipe ~index ~start
          ~finish:(start + Latency.instruction st.config instr)
          instr);
    take =
      (fun pipe index instr set ->
        let start =
          max (max st.pipe_time.(Pipe.index pipe) index) st.finish.(set)
        in
        complete st pipe ~index ~start ~finish:(start + 1) instr);
    arrive =
      (fun pipe id ->
        let p = Pipe.index pipe in
        obs_barrier "barrier_arrive" p id st.pipe_time.(p));
    release =
      (fun id ->
        let latest = Array.fold_left max 0 st.pipe_time in
        for p = 0 to Pipe.count - 1 do
          st.pipe_time.(p) <- latest;
          obs_barrier "barrier_release" p id latest
        done);
  }

let run ?(trace = false) config (program : Program.t) =
  match Program.validate config program with
  | Error e -> Error (Printf.sprintf "validation: %s" e)
  | Ok s ->
    let obs_pid =
      if not (Obs.Hook.enabled ()) then -1
      else begin
        let pid =
          Obs.Hook.alloc_pid ~name:("core:" ^ program.Program.program_name)
        in
        List.iter
          (fun p ->
            Obs.Hook.name_thread ~pid ~tid:(Pipe.index p) (Pipe.name p))
          Pipe.all;
        pid
      end
    in
    let st =
      {
        config;
        sync = s;
        pipe_time = Array.make Pipe.count 0;
        busy = Array.make Pipe.count 0;
        count = Array.make Pipe.count 0;
        read_bytes = Array.make Buffer_id.count 0;
        written_bytes = Array.make Buffer_id.count 0;
        energy_pj = 0.;
        macs = 0;
        trace_rev = [];
        keep_trace = trace;
        obs_pid;
        finish = Ascend_util.Scratch.get finish_buf s.Program.length;
      }
    in
    match (Dispatch.run (hooks st) s).Dispatch.stuck with
    | Some stuck -> Error (Printf.sprintf "deadlock: %s" stuck)
    | None ->
      let total_cycles = Array.fold_left max 0 st.pipe_time in
      Ok
        {
          total_cycles;
          pipes =
            Array.init Pipe.count (fun i ->
                { busy_cycles = st.busy.(i); instruction_count = st.count.(i) });
          traffic =
            Array.init Buffer_id.count (fun i ->
                {
                  read_bytes = st.read_bytes.(i);
                  written_bytes = st.written_bytes.(i);
                });
          energy_j = st.energy_pj *. 1e-12;
          cube_macs_executed = st.macs;
          trace = List.rev st.trace_rev;
        }

let pipe_stats r p = r.pipes.(Pipe.index p)
let traffic r b = r.traffic.(Buffer_id.index b)

let utilization r p =
  if r.total_cycles = 0 then 0.
  else float_of_int (pipe_stats r p).busy_cycles /. float_of_int r.total_cycles

let seconds (config : Config.t) r =
  Ascend_util.Units.seconds_of_cycles ~cycles:r.total_cycles
    ~frequency_ghz:config.frequency_ghz

let l1_read_bits_per_cycle r =
  if r.total_cycles = 0 then 0.
  else
    float_of_int ((traffic r Buffer_id.L1).read_bytes * 8)
    /. float_of_int r.total_cycles

let l1_write_bits_per_cycle r =
  if r.total_cycles = 0 then 0.
  else
    float_of_int ((traffic r Buffer_id.L1).written_bytes * 8)
    /. float_of_int r.total_cycles
