(** Event-driven execution of a {!Ascend_isa.Program.t} on one core.

    Each pipe runs its instruction stream in order; pipes advance
    concurrently; [Set_flag]/[Wait_flag] pairs impose the cross-pipe
    dependencies of paper Figure 3 and [Barrier] drains every pipe.  The
    PSQ dispatches one instruction per cycle, so instruction [i] cannot
    start before cycle [i].

    Issue order is {!Dispatch}'s, the engine {!Sanitizer} replays on
    too.  The simulator detects deadlocks (a wait whose set can never
    execute) and reports them as [Error] rather than hanging. *)

type pipe_stats = { busy_cycles : int; instruction_count : int }

type buffer_traffic = { read_bytes : int; written_bytes : int }

type trace_entry = {
  index : int;             (** program order *)
  pipe : Ascend_isa.Pipe.t;
  start_cycle : int;
  end_cycle : int;
  instr : Ascend_isa.Instruction.t;
}

type report = {
  total_cycles : int;
  pipes : pipe_stats array;          (** indexed by [Pipe.index] *)
  traffic : buffer_traffic array;    (** indexed by [Buffer_id.index] *)
  energy_j : float;
  cube_macs_executed : int;
  trace : trace_entry list;          (** empty unless [~trace:true] *)
}

val run :
  ?trace:bool -> Ascend_arch.Config.t -> Ascend_isa.Program.t ->
  (report, string) result
(** Runs {!Ascend_isa.Program.validate} first and dispatches on the
    decode it returns; its error comes back as ["validation: ..."], and
    a run that wedges as ["deadlock: ..."].  Buffer traffic sums the
    decode's accesses. *)

val pipe_stats : report -> Ascend_isa.Pipe.t -> pipe_stats
val traffic : report -> Ascend_isa.Buffer_id.t -> buffer_traffic

val utilization : report -> Ascend_isa.Pipe.t -> float
(** busy cycles / total cycles. *)

val seconds : Ascend_arch.Config.t -> report -> float

val l1_read_bits_per_cycle : report -> float
(** L1 bytes read (into L0) * 8 / total cycles — Figure 9's y-axis. *)

val l1_write_bits_per_cycle : report -> float
