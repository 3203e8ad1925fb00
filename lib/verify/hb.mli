(** Happens-before graph over one core program.

    Nodes are instruction indices of the program's listing.  Edges:

    - {b program order} within each pipe's issue queue: the dispatcher
      distributes instructions to per-pipe queues in program order, so
      same-pipe instructions execute in listing order;
    - {b flag edges}: the hardware flag is a counting semaphore per
      [(from_pipe, to_pipe, flag)] triple.  All sets of a triple issue
      from [from_pipe] in program order and all waits block [to_pipe]
      in program order, so the k-th wait can proceed exactly when the
      k-th set has executed — giving the precise edge
      [set_k -> wait_k];
    - {b barriers} join and restart every pipe.

    A wait whose ordinal is >= its triple's total set count can never be
    satisfied; a cycle through flag edges is a cross-pipe deadlock.
    Both are detected during construction (Kahn's algorithm with
    phantom in-degrees pinning unsatisfiable waits) and reported in
    {!field-findings}.

    {b Contract.} [build] never raises.  The graph is sound for
    reachability queries ({!hb}) only when [findings = []]: stuck nodes
    have no meaningful vector clock, and the hazard scan must not run
    over a deadlocked graph (racing with an instruction that never
    executes is moot).  Reachability uses per-pipe vector clocks
    computed along the topological order — [vc.(b * Pipe.count + p)] is
    the highest lane-[p] sequence number that happens before (or at)
    node [b] — so a query is O(1) and the whole structure O(V * pipes)
    int slots instead of a quadratic closure. *)

open Ascend_isa

type t = {
  instrs : Instruction.t array;
  lane : int array;  (** pipe index of each node; -1 for barriers *)
  seq : int array;
      (** position within the node's pipe lane; -1 for barriers *)
  topo : int array;  (** topological order of executable nodes *)
  vc : int array;
      (** [vc.(node * Pipe.count + pipe)], one flat array — valid for
          executable nodes only.  It is the building domain's reusable
          buffer, possibly longer than the program needs, and the next
          [build] on that domain overwrites it: query a graph before
          building the next one there. *)
  stuck : bool array;
      (** node can never execute under any interleaving *)
  findings : Finding.t list;
      (** deadlock findings discovered during construction; empty iff
          every node is executable *)
}

val build : Instruction.t list -> t
(** Construct the graph and run deadlock detection.  Total: malformed
    instructions (unmapped pipes) simply get no lane and are reported
    by the structural checks elsewhere. *)

val deadlock_free : t -> bool
(** [findings = []]. *)

val hb : t -> int -> int -> bool
(** [hb g a b]: node [a] happens before (or is) node [b] under every
    legal interleaving.  Only meaningful on a deadlock-free graph and
    for executable pipe-mapped nodes (the hazard scan only queries
    those). *)
