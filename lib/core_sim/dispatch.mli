(** The core's issue semantics (paper Figure 3), shared by
    {!Simulator} and {!Sanitizer}.

    The PSQ fills one queue per pipe in program order.  Each pipe issues
    its head when it can: a [Wait_flag] once the set it pairs with
    ({!Ascend_isa.Program.sync}: the k-th set of its
    [(from_pipe, to_pipe, flag)] triple for its k-th wait) has issued; a
    [Barrier] holds every pipe until all have reached it.  An
    instruction with no lane joins no queue and never issues.  Each pass
    drains pipe 0 as far as it goes, then pipe 1, and so on; the barrier
    opens only after the pass.  The callers' hooks run in that order, so
    it fixes every floating-point sum, trace and first-occurrence dedup
    they keep.

    Barrier ids rise in program order and a held pipe cannot reach the
    next one, so at most one barrier is pending at a time. *)

type hooks = {
  issue : Ascend_isa.Pipe.t -> int -> Ascend_isa.Instruction.t -> unit;
      (** [issue pipe index instr]: any instruction but a wait issues
          on [pipe]; [index] is its program order.  A set's token, which
          its wait takes, is whatever the caller records here. *)
  take : Ascend_isa.Pipe.t -> int -> Ascend_isa.Instruction.t -> int -> unit;
      (** [take pipe index wait set]: a [Wait_flag] issues on [pipe],
          taking the token of the set at program index [set] *)
  arrive : Ascend_isa.Pipe.t -> int -> unit;
      (** [arrive pipe barrier]: [pipe] reached [barrier] and is held *)
  release : int -> unit;
      (** [release barrier]: every pipe arrived, and all are let go *)
}

type outcome = {
  stuck : string option;
      (** when nothing can move with work left: ["P stuck at H"] for
          each pipe with a non-empty queue, [H] its head, joined by
          ["; "] *)
  leftover : (Ascend_isa.Pipe.t * Ascend_isa.Pipe.t * int * int) list;
      (** [(from, to, flag, n)] for each triple whose issued sets
          outnumber its issued waits by [n > 0], in [(from, to, flag)]
          order *)
}

val run : hooks -> Ascend_isa.Program.sync -> outcome
(** Each pipe's queue is read off the decode's lanes as the run goes, so
    a hook must not decode another program on the calling domain. *)
