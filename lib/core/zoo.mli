(** The corpus every sweep enumerates: one core template in its five
    Table-5 versions, running the same networks.  The CLI, the tests,
    [bench/main.exe] and the examples read it from here.  Models are
    builders: no graph is built when the module is loaded. *)

val models : (string * (batch:int -> Ascend_nn.Graph.t)) list
(** The fourteen models by name, in [ascend_cli list] order, at the
    CLI's defaults: BERT at sequence 128, [llm-prefill] at sequence 64
    and [llm-decode] at cache length 128, both on the tiny LLM. *)

val cores : (string * Ascend_arch.Config.t) list
(** The Table-5 cores by short name, [tiny] to [max]. *)

val supporting : Ascend_nn.Graph.t -> Ascend_arch.Config.t list
(** The cores of {!cores} whose precisions include the graph's dtype, in
    Table-5 order.  Every sweep skips the other (model, core) pairs, and
    every run rejects their cores before compiling anything. *)

val option_combos : Ascend_compiler.Codegen.options list
(** Every codegen option combination, in lint order: sync mode ([Flags],
    then [Coarse_barriers]) x double buffering (on, off) x weight
    sparsity (none, 0.5) — the axes of paper Figure 3's ablations. *)

val corpus : (string * (unit -> Ascend_nn.Graph.t)) list
(** The compile-and-verify corpus, at batch 1: gesture, resnet18,
    resnet50, mobilenet and bert-base at sequence 32
    ([bert-base-s32]). *)
