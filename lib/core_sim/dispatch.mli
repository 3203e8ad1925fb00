(** The core's issue semantics (paper Figure 3), shared by
    {!Simulator} and {!Sanitizer}.

    The PSQ fills one queue per pipe in program order.  Each pipe issues
    its head when it can: a [Wait_flag] takes one token from the
    counting semaphore of its [(from_pipe, to_pipe, flag)] triple, which
    each executed [Set_flag] fills; a [Barrier] holds every pipe until
    all have reached it.  Each pass drains pipe 0 as far as it goes,
    then pipe 1, and so on; the barrier opens only after the pass.  The
    callers' hooks run in that order, so it fixes every floating-point
    sum, trace and first-occurrence dedup they keep.

    Barrier ids rise in program order and a held pipe cannot reach the
    next one, so at most one barrier is pending at a time. *)

type 'tok hooks = {
  issue : Ascend_isa.Pipe.t -> int -> Ascend_isa.Instruction.t -> unit;
      (** [issue pipe index instr]: any instruction but a wait issues
          on [pipe]; [index] is its program order *)
  post : Ascend_isa.Pipe.t -> 'tok;
      (** the token a [Set_flag] that just issued on [pipe] puts on its
          semaphore *)
  take : Ascend_isa.Pipe.t -> int -> Ascend_isa.Instruction.t -> 'tok -> unit;
      (** [take pipe index wait token]: a [Wait_flag] issues on [pipe],
          consuming the oldest token its triple's sets posted *)
  arrive : Ascend_isa.Pipe.t -> int -> unit;
      (** [arrive pipe barrier]: [pipe] reached [barrier] and is held *)
  release : int -> unit;
      (** [release barrier]: every pipe arrived, and all are let go *)
}

type outcome = {
  unmapped : int list;
      (** program indices, ascending, of instructions that map to no
          pipe (illegal MTE moves); they never issue *)
  stuck : string option;
      (** when nothing can move with work left: ["P stuck at H"] for
          each pipe with a non-empty queue, [H] its head, joined by
          ["; "] *)
  leftover : (Ascend_isa.Pipe.t * Ascend_isa.Pipe.t * int * int) list;
      (** [(from, to, flag, n)] for each semaphore left holding [n > 0]
          tokens, in the semaphore table's order *)
}

val run : 'tok hooks -> Ascend_isa.Program.t -> outcome
(** The queues live in the calling domain's reusable buffers, so a hook
    must not call [run] itself. *)
