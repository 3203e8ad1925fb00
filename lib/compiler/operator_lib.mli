(** The Operator Lib of paper §5.1: "Streams/Tasks can be directly called
    from Operator Lib" — a registry of hand-written kernels an expert
    would ship alongside the compiler, each generating a complete core
    program.

    The kernels emit through {!Codegen}'s builder, double-buffered under
    flags, and choose their own chunks on the UB stream that lowers
    vector-only groups ({!Codegen.emit_vector_stream}): softmax and
    layer-norm chunk at row boundaries (a row's working set must be
    UB-resident across its passes), and requantize is a fused
    single-pass conversion.  Transpose runs on the MTE [trans] module. *)

type kernel = {
  kernel_name : string;
  generate : Ascend_arch.Config.t -> Ascend_isa.Program.t;
}

val softmax : rows:int -> cols:int -> ?dtype:Ascend_arch.Precision.t -> unit -> kernel
(** 4 passes per row chunk (row max, subtract+exp, row sum, divide);
    raises [Invalid_argument] at generation time if a single row cannot
    fit a quarter of the unified buffer. *)

val layer_norm : rows:int -> cols:int -> ?dtype:Ascend_arch.Precision.t -> unit -> kernel
(** 5 passes per row chunk. *)

val transpose : rows:int -> cols:int -> ?dtype:Ascend_arch.Precision.t -> unit -> kernel
(** External -> L1 -> (MTE trans) -> L0A is not architecturally available
    for output, so the kernel stages through L1 with the [Transpose]
    transform on the L1->L0A move and drains via UB — exercising the MTE
    trans module of paper §2.2. *)

val requantize :
  elems:int -> from_dtype:Ascend_arch.Precision.t ->
  to_dtype:Ascend_arch.Precision.t -> unit -> kernel
(** The vector unit's precision-conversion duty (paper §2.2:
    "quantization and dequantization operations among int32, fp16 and
    int8"): one fused pass, different input/output byte widths. *)

val registry : unit -> (string * (unit -> kernel)) list
(** Named sample instances of every kernel (for discovery/tests). *)

val simulate :
  Ascend_arch.Config.t -> kernel ->
  (Ascend_core_sim.Simulator.report, string) result
