(** The Ascend core instruction vocabulary at the granularity the
    simulator models: one instruction = one tile-level operation on an
    execution pipe, plus the explicit cross-pipe synchronisation of
    paper Figure 3. *)

type mte_transform =
  | Plain
  | Img2col of { expansion : float }
      (** convolution-to-GEMM expansion (paper §2.2): the move writes
          [bytes] but reads [bytes / expansion] unique source bytes (each
          input element appears in up to kh*kw matrix columns; strided
          1x1 convolutions subsample, giving expansion < 1) *)
  | Transpose      (** the MTE [trans] module *)
  | Decompress of { ratio : float }
      (** zero-value decompression; [ratio] is compressed/uncompressed
          in (0, 1] — the move reads [bytes *. ratio] source bytes *)

type t =
  | Cube_matmul of {
      m : int;
      k : int;
      n : int;
      precision : Ascend_arch.Precision.t;
      accumulate : bool;
          (** accumulate into existing L0C contents (k-loop continuation) *)
      l0a_slot : int;
      l0b_slot : int;
      l0c_slot : int;
    }
  | Vector_op of {
      op_name : string;
      bytes : int;       (** bytes processed at the vector width *)
      reads_ub : bool;
      writes_ub : bool;
      ub_in_slot : int;
      ub_out_slot : int;
    }
  | Mte_move of {
      src : Buffer_id.t;
      dst : Buffer_id.t;
      bytes : int;       (** bytes written to [dst] *)
      transform : mte_transform;
      src_slot : int;
      dst_slot : int;
    }
  | Scalar_op of { cycles : int }
  | Set_flag of { from_pipe : Pipe.t; to_pipe : Pipe.t; flag : int }
  | Wait_flag of { from_pipe : Pipe.t; to_pipe : Pipe.t; flag : int }
  | Barrier
      (** full-core barrier: every pipe drains before any pipe proceeds *)

(** Slots name disjoint address ranges inside one on-chip buffer — a
    double-buffering ring rotates through slots 0..depth-1.  Two accesses
    to the same buffer alias only if they name the same slot; the hazard
    analysis in [Ascend_verify] and the derived buffer peaks are both
    built on this model.  Slot 0 is the default for unannotated code. *)

val pipe_of : t -> Pipe.t option
(** The pipe an instruction executes on ([Set_flag] executes on its
    [from_pipe]; [Wait_flag] blocks its [to_pipe]; [Barrier] -> [None]). *)

val mte_move : src:Buffer_id.t -> dst:Buffer_id.t -> ?transform:mte_transform ->
  ?src_slot:int -> ?dst_slot:int -> bytes:int -> unit -> t
(** Raises [Invalid_argument] if the src/dst pair is not architecturally
    legal, bytes is negative, or a slot is negative. *)

val cube_matmul : m:int -> k:int -> n:int -> precision:Ascend_arch.Precision.t ->
  ?accumulate:bool -> ?l0a_slot:int -> ?l0b_slot:int -> ?l0c_slot:int ->
  unit -> t
(** Raises [Invalid_argument] on non-positive dimensions or negative slots. *)

val vector_op : op_name:string -> bytes:int -> ?reads_ub:bool ->
  ?writes_ub:bool -> ?ub_in_slot:int -> ?ub_out_slot:int -> unit -> t
(** Raises [Invalid_argument] on negative bytes or slots. *)

val set_flag : from_pipe:Pipe.t -> to_pipe:Pipe.t -> flag:int -> t
val wait_flag : from_pipe:Pipe.t -> to_pipe:Pipe.t -> flag:int -> t

val source_bytes : t -> int
(** Bytes read from the source of an [Mte_move] (differs from [bytes]
    under [Img2col] expansion and [Decompress]); 0 for other forms. *)

val iter_accesses :
  (Buffer_id.t -> slot:int -> bytes:int -> write:bool -> alloc:bool ->
   exact:bool -> unit) ->
  t -> unit
(** [iter_accesses f instr] calls [f] on each (buffer, slot) access
    [instr] performs, reads before writes, without allocating; sync and
    scalar instructions access no buffers.  [alloc] marks a write that
    establishes the slot's footprint (not an in-place update: an
    accumulating matmul, a vector pass that writes the slot it reads).
    [exact] marks [bytes] as a footprint claim the sanitizer may
    bounds-check.  No vector access is exact: its [bytes] is a work
    amount (a fused elementwise chain sweeps one tile several times, a
    gather reads a small index list and writes a large output).  This is
    the one byte model; its readers take it from {!Program.sync}. *)

val pp : Format.formatter -> t -> unit
(** One-line disassembly. *)
