(** A compiled program for one Ascend core: an ordered instruction list
    (PSQ order) with the static buffer footprint the code generator
    reserved in each on-chip buffer. *)

type t = {
  program_name : string;
  instructions : Instruction.t list;
  buffer_peak : (Buffer_id.t * int) list;
      (** peak resident bytes per buffer, computed at code generation *)
}

val make :
  name:string -> ?buffer_peak:(Buffer_id.t * int) list ->
  Instruction.t list -> t

val length : t -> int

val max_flag : int
(** Largest legal flag id per (from, to) pipe pair. *)

(** {1 Decode}

    Flags and barriers are the only order between pipes (paper Figure
    3).  All sets of a [(from, to, flag)] triple issue on [from] and all
    its waits block [to], each in program order, so the k-th wait is
    released by exactly the k-th set.  [sync] decodes this once for the
    issue engine, the happens-before graph, validation and the leak
    checks, beside each instruction's buffer accesses
    ({!Instruction.iter_accesses}) for the simulator's traffic, the
    hazard scan, the sanitizer and the derived peaks. *)

type sync = {
  length : int;  (** instructions; the arrays below may be longer *)
  instrs : Instruction.t array;
  lane : int array;
      (** per instruction: its pipe's index, [every_lane] for a barrier,
          or -1 for an illegal MTE move and for a set or wait whose flag
          id is outside [[0, max_flag]]: these never issue and order
          nothing *)
  set_of : int array;
      (** per wait: the set that releases it, its triple's k-th set for
          its k-th wait; -1 for a wait past its triple's sets and for
          every other instruction *)
  used : int array;
      (** the triple ids with a set or a wait, ascending; [j] below
          indexes it *)
  buckets : buckets;
  accesses : accesses;
}

and buckets
(** each used triple's sets and waits, in program order *)

and accesses
(** each instruction's buffer accesses, read through [first_access] and
    the [access_*] accessors *)

val every_lane : int

val triple : int -> Pipe.t * Pipe.t * int
(** The [(from, to, flag)] of a triple id; ids follow that order. *)

val sync : t -> sync
(** One pass and a counting sort over the triples in use.  The arrays
    are the calling domain's reusable buffers: use a decode before the
    next [sync] on that domain ([flag_leaks] and [validate] call it
    too). *)

val sets : sync -> int -> int
(** [sets s j]: how many sets triple [used.(j)] has; [waits] alike. *)

val waits : sync -> int -> int

val set : sync -> int -> int -> int
(** [set s j k]: the program index of triple [used.(j)]'s [k]-th set;
    [wait] alike. *)

val wait : sync -> int -> int -> int

val first_access : sync -> int -> int
(** Instruction [i]'s accesses are the entries [first_access s i] up to
    [first_access s (i + 1) - 1], reads before writes;
    [first_access s s.length] is the entry count. *)

val access_key : sync -> int -> int
(** An entry's (buffer, slot) as one int:
    [slot * Buffer_id.count + Buffer_id.index buffer]. *)

val access_buffer : sync -> int -> Buffer_id.t
val access_slot : sync -> int -> int
val access_bytes : sync -> int -> int
val access_write : sync -> int -> bool
val access_alloc : sync -> int -> bool
val access_exact : sync -> int -> bool
(** An entry's fields, as {!Instruction.iter_accesses} gave them. *)

val flag_leaks : t -> (Pipe.t * Pipe.t * int * int) list
(** Triples whose sets outnumber their waits over the whole program, as
    [(from, to, flag, net)] with [net > 0], in [(from, to, flag)] order.
    A leaky program corrupts sequential composition: the leftover set
    satisfies a wait in the next part.  Empty for flag-clean programs. *)

val derived_buffer_peak : sync -> (Buffer_id.t * int) list
(** Peak footprint recomputed from the decode's accesses: per buffer,
    the sum over slots of the largest allocating write each slot
    receives.  [External] is excluded.  This is the reference the
    verifier cross-checks declared [buffer_peak] against. *)

val validate : Ascend_arch.Config.t -> t -> (sync, string) result
(** Static checks:
    - every instruction maps to a pipe (or is a barrier);
    - every [Wait_flag] has a matching earlier-or-equal count of
      [Set_flag]s on the same (from, to, flag) triple by end of program
      (no flag can remain forever unsatisfied);
    - flag ids are within the hardware's range (0..63 per pipe pair);
    - declared buffer peaks fit the configuration's capacities;
    - cube instructions only use precisions this core supports.

    The error names the first offender: the first unmapped
    instruction, the first out-of-range flag id in program order, or
    the first unbalanced triple in [(from, to, flag)] order, all read
    off [sync].

    On success it returns the decode it checked.  The full
    happens-before / hazard / peak / leak analysis is
    [Ascend_verify.analyze]. *)

val pp : Format.formatter -> t -> unit
(** Full disassembly. *)
