(** Happens-before graphs: one Kahn pass behind the program, SoC and
    cluster verifiers.

    Every graph lists its nodes in order and puts each node on a lane
    (none, one, or every lane); the pass chains each lane in listing
    order, adds its front end's edges, and runs Kahn's algorithm with
    in-degree-0 nodes queued in index order, a FIFO queue, and each
    node's successors visited latest-added first.  Two front ends feed
    it:

    - {!build}, one core program, read off its
      {!Ascend_isa.Program.sync} decode.  Lanes are pipes: same-pipe
      instructions execute in listing order, and a {b barrier} joins
      and restarts every pipe.  {b Flag edges} run from the k-th set of
      a triple to its k-th wait.  A wait past its triple's set count can
      never be satisfied: the pass pins it with a phantom in-degree.  A
      cycle through flag edges is a cross-pipe deadlock.
    - {!of_deps}, nodes that name the nodes they wait for by id: SoC
      tasks, whose lanes are cores ({!Soc}), and cluster steps, which
      have no lanes ({!Cluster}).

    {b Contract.} Construction never raises when [of_deps]'s lanes are
    in range.  The graph is sound for reachability queries ({!hb}) only
    when [findings = []]: stuck nodes have no meaningful vector clock,
    and a race scan must not run over a deadlocked graph (racing with a
    node that never executes is moot).  Reachability uses per-lane vector clocks computed along the
    topological order — [vc.(b * lanes + l)] is the highest lane-[l]
    sequence number that happens before (or at) node [b] — so a query
    is O(1) and the whole structure O(V * lanes) int slots instead of a
    quadratic closure. *)

type 'a t = {
  nodes : 'a array;  (** in listing order *)
  lanes : int;
      (** [Pipe.count] for programs, cores for SoC plans, 0 for cluster
          steps *)
  lane : int array;
      (** lane of each node; negative for none or, for a barrier,
          every lane.  A program graph's is its decode's array, which
          may be longer and which the next decode on the building
          domain overwrites. *)
  seq : int array;  (** position within the node's lane; -1 without one *)
  topo : int array;  (** topological order of executable nodes *)
  vc : int array;
      (** [vc.(node * lanes + lane)], one flat array — valid for
          executable nodes only.  It is the building domain's reusable
          buffer, possibly longer than the graph needs, and the next
          graph built on that domain overwrites it: query a graph before
          building the next one there. *)
  stuck : bool array;
      (** node can never execute under any interleaving *)
  findings : Finding.t list;
      (** deadlock findings discovered during construction, in
          discovery order *)
}

val build : Ascend_isa.Program.sync -> Ascend_isa.Instruction.t t
(** One core program's graph; [findings] is empty iff every instruction
    is executable, and lists the unsatisfiable waits in
    [(from, to, flag)] order, then any wait cycle.  Total: an
    instruction with no lane (an illegal move, an out-of-range flag id)
    is on no lane and orders nothing; the structural check reports
    it. *)

val of_deps :
  ?lanes:int ->
  ?lane:('a -> int) ->
  id:('a -> int) ->
  deps:('a -> int list) ->
  missing:('a -> int -> Finding.t) ->
  cycle:('a list -> Finding.t) ->
  'a list ->
  'a t
(** The graph of nodes that wait for the nodes whose ids they list:
    node [j] precedes node [i] when [i]'s [deps] name [j]'s [id] (a
    node naming itself adds no edge), and each of the [lanes] (default
    0) chains its nodes in listing order.  Ids must be distinct, which
    both callers check first, and [lane] must map every node into
    [[0, lanes)].
    [findings] holds [missing x d] for every id [d] of node [x] that
    names no node, in listing order, then [cycle stuck] when some nodes
    ([stuck], in listing order) can never execute. *)

val hb : 'a t -> int -> int -> bool
(** [hb g a b]: node [a] happens before (or is) node [b] under every
    legal interleaving.  Only meaningful on a deadlock-free graph and
    for executable nodes with a lane (the race scans only query
    those). *)
