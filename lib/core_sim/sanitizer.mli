(** Dynamic shadow-state sanitizer.

    Replays a program's synchronisation skeleton on {!Dispatch}, the
    issue engine under {!Simulator} (per-pipe queues, each wait released
    by its paired set, all-pipe barriers — no latencies), while keeping shadow
    init/ownership state per (buffer, slot) and a per-pipe vector
    clock.  Because the clocks derive from the same
    sync edges as the static happens-before graph, the verdict is
    interleaving-independent: a clean report proves every conflicting
    access pair is separated by a satisfied flag or barrier, on every
    schedule the hardware could choose.

    Findings use [Ascend_verify.Finding] so the static linter and the
    sanitizer print, sort and serialise identically — the basis of the
    differential lint-vs-sanitize CI gate.  Reported kinds:
    [Uninit_read], [Hazard] (dynamic RAW/WAR/WAW), [Slot_overflow],
    [Capacity_overflow], [Flag_leak], [Peak_mismatch], [Deadlock],
    [Malformed].  The [Malformed] findings are [Ascend_verify]'s
    structural check on the same decode: an instruction with no lane
    (an illegal move, an out-of-range flag id) never issues.  Each
    (kind, buffer, slot) is reported once — the first occurrence — so
    streaming loops do not repeat one root cause thousands of times.

    Unlike [Simulator.run], no [Program.validate] gate runs first: the
    sanitizer's whole point is diagnosing broken programs. *)

type report = {
  findings : Ascend_verify.Finding.t list;
      (** discovery order; sort with [Finding.compare] for stable
          output *)
  instructions_executed : int;
}

val run : Ascend_arch.Config.t -> Ascend_isa.Program.t -> report
(** Never raises; a wedged replay yields a [Deadlock] finding. *)

val clean : report -> bool
(** No findings of any severity. *)
