(** Code generation: lower a fused group to an Ascend core program.

    Cube-anchored groups become the canonical tiled GEMM loop nest
    [for m-tile, for n-tile, for k-tile] with:
    - A panels (mt x K, stored compact, expanded by img2col on the MTE1
      path) staged into L1 once per m-tile;
    - B either resident in L1 (when it fits a quarter of L1) or streamed
      as k-tile chunks;
    - double buffering throughout, expressed with the explicit
      [Set_flag]/[Wait_flag] pairs of paper Figure 3: MTE1->Cube data
      flags, Cube->MTE1 free flags, Cube->Vector drain flags,
      Vector->MTE3 store flags and the reverse free flags;
    - the group's vector post-ops (bias/norm/activation) spread across
      output tiles.

    Vector-only groups (depthwise convolutions, standalone
    normalisations) become a streamed [load -> vector -> store] pipeline
    through the unified buffer: {!emit_vector_stream} over an even split
    of the group's bytes into rounds that each fit a UB ring slot, with
    one ["vec"] pass per round.  {!Operator_lib}'s vector kernels are
    other chunk plans over the same stream.

    The generated programs pass {!Ascend_isa.Program.validate} and are
    deadlock-free by construction (tested by property tests). *)

type sync_mode =
  | Flags
      (** the paper's Figure 3: decoupled pipes with explicit
          [Set_flag]/[Wait_flag] pairs *)
  | Coarse_barriers
      (** the ablation: every dependency point becomes a full-core
          barrier — correct but serialising, quantifying what the
          fine-grained flags buy *)

type options = {
  weight_sparsity : float option;
      (** compressed/uncompressed weight ratio in (0,1]; enables the MTE
          decompression path (paper §2.2 / §3.2 structured sparsity) *)
  double_buffer : bool;
      (** default true; false serialises tile j after tile j-1's
          consumption — the ablation knob for the double-buffering
          design choice *)
  naive_tiling : bool;
      (** default false; true bypasses the auto-tiling search and emits
          single-cube-instruction tiles — the auto-tiling ablation *)
  sync_mode : sync_mode;  (** default [Flags] *)
}

val default_options : options

val group_program :
  ?options:options -> Ascend_arch.Config.t -> Fusion.t ->
  Ascend_isa.Program.t
(** Raises [Invalid_argument] if the group's precision is unsupported on
    the configuration. *)

val graph_programs :
  ?options:options -> Ascend_arch.Config.t -> Ascend_nn.Graph.t ->
  (Fusion.t * Ascend_isa.Program.t) list

(** {1 Program builder}

    What every program is emitted with, {!group_program}'s and
    {!Operator_lib}'s alike. *)

type builder
(** A program under construction: it opens with the 4-cycle scalar
    control prologue and keeps each flag triple's net of sets minus
    waits. *)

val builder : ?mode:sync_mode -> unit -> builder
(** [mode] defaults to [Flags]. *)

val emit : builder -> Ascend_isa.Instruction.t -> unit

val set :
  builder -> from_pipe:Ascend_isa.Pipe.t -> to_pipe:Ascend_isa.Pipe.t ->
  int -> unit
(** Under [Coarse_barriers] a set vanishes and a wait becomes a barrier. *)

val wait :
  builder -> from_pipe:Ascend_isa.Pipe.t -> to_pipe:Ascend_isa.Pipe.t ->
  int -> unit

val finish : builder -> name:string -> Ascend_isa.Program.t
(** Waits out every flag still set, so the program leaks none, and
    declares the buffer peak its instruction stream allocates. *)

type chunk = {
  load : int;  (** bytes loaded External -> UB input slot *)
  passes : (string * int) list;  (** vector passes: op name, bytes *)
  store : int;  (** bytes stored UB output slot -> External *)
}
(** One round of the UB stream. *)

val emit_vector_stream : builder -> depth:int -> chunk list -> unit
(** One [load -> passes -> store] round per chunk, [depth]-buffered
    through UB ring slots (inputs [0..depth-1], outputs from 2) with
    MTE2->Vector, Vector->MTE2, Vector->MTE3 and MTE3->Vector flags 0-3.
    The first pass reads the input slot, later passes update the output
    slot in place; zero-byte moves and passes are skipped. *)

val ub_slot_bytes : Ascend_arch.Config.t -> int
(** A quarter of the unified buffer: one ring slot of the stream. *)

val share : chunks:int -> int -> int -> int
(** [share ~chunks total i]: round [i]'s part of [total] bytes split
    evenly over [chunks] rounds, the remainder spread over the first. *)

val bytes_of : elems:int -> size:float -> int
(** Bytes of [elems] elements of [size] bytes each, rounded up. *)
