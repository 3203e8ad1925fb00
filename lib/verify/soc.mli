(** Whole-SoC static race detector over a fused-group schedule.

    Lifts the per-program happens-before analysis to the compiler's
    multi-core schedule: tasks are compiled group programs pinned to
    cores, edges are the inter-core dependencies the memory planner and
    graph engine imply, and footprints are HBM byte ranges computed from
    the instruction streams.  [Ascend_compiler.Soc_schedule] builds
    plans from real model graphs; tests build mutated ones by hand.

    Reported findings ({!Finding.kind}):
    - [Malformed] — a task pinned to a core outside [[0, cores)], or
      reusing an earlier task's id: one per such task, and no other
      check runs;
    - [Soc_race {dep}] — cross-core RAW/WAR/WAW on overlapping HBM byte
      ranges with no ordering edge; classified against the listing
      order, which is the serial reference schedule;
    - [Soc_deadlock] — cyclic schedule dependency graph, or a dependency
      on a task id that is not in the schedule;
    - [Soc_overcommit {resource="HBM"}] (error) — resident weights plus
      peak live activation regions exceed HBM capacity;
    - [Soc_overcommit {resource="LLC"}] (warning) — the largest
      concurrent per-wave working set (top [cores] tasks of an ASAP
      wave, levelled along the happens-before graph's topological
      order; a task that never starts joins no wave) exceeds LLC
      capacity.

    Capacity checks only run when the corresponding capacity is [Some];
    the default schedule builder leaves both [None] so the zoo sweep
    exercises pure race/deadlock analysis, and tests pass small
    capacities to prove the checkers live.

    [analyze] never raises.  Its happens-before graph is {!Hb.of_deps}
    with cores as lanes; like a program's, race results are only
    emitted when the dependency graph is acyclic and closed (racing
    with a task that never starts is moot). *)

type region = { base : int; bytes : int }
(** Half-open byte range [[base, base+bytes)] in the shared HBM
    activation arena (planner offsets). *)

type task = {
  id : int;  (** stable id, referenced by [deps]; distinct per plan *)
  core : int;  (** core the group is pinned to, [0 .. cores-1] *)
  tag : string;  (** fused-group tag, for messages *)
  deps : int list;
      (** ids of tasks that must complete first: data dependencies and
          memory-reuse anti-dependencies *)
  reads : (string * region) list;  (** named input regions *)
  writes : (string * region) list;  (** named output regions *)
  ext_read_bytes : int;
      (** total External-buffer read traffic of the compiled program *)
  ext_write_bytes : int;
      (** total External-buffer write traffic of the compiled program *)
  working_set_bytes : int;
      (** bytes the task keeps hot while running (LLC pressure) *)
}

type plan = {
  soc_name : string;
  cores : int;
  llc_bytes : int option;  (** [None] disables the LLC check *)
  hbm_bytes : int option;  (** [None] disables the HBM check *)
  weight_resident_bytes : int;
      (** weights resident in HBM for the whole run *)
  tasks : task list;
      (** listing order is the serial reference schedule; same-core
          tasks implicitly execute in listing order *)
}

val region_overlaps : region -> region -> bool

val analyze : plan -> Finding.t list
(** Run all whole-SoC checks.  Empty list = schedule proven race-free,
    deadlock-free and within the configured capacities. *)
