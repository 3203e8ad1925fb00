(** Static verifier for cluster-level collective schedules and fleet
    placement plans — the third rung of the verification ladder
    (per-core programs in PR 1, the multi-core SoC schedule in PR 5,
    the cluster here).

    The schedule representation is deliberately neutral (plain ints,
    strings and floats), so this library needs no dependency on
    [lib/cluster]: [Ascend_cluster.Collective_schedule] expands the
    closed-form all-reduce algorithms into these schedules over the
    real server/fat-tree links, and tests build mutated ones by hand.
    [ascend_cli lint --cluster] runs [analyze] over a (topology,
    algorithm, nodes, bytes) sweep and differentially gates
    [schedule_seconds] against the closed-form
    [Collective.*_seconds]. *)

(** {1 Collective schedules} *)

type link = {
  link_id : string;
  capacity_bytes_per_s : float;
}

type op_kind = Send | Recv

type op = {
  chip : int;  (** the chip executing this op *)
  op_kind : op_kind;
  peer : int;  (** the chip on the other end of the transfer *)
  link : string;  (** link carrying the transfer (the sender's name) *)
  op_bytes : float;
  claim_bytes_per_s : float;
      (** bandwidth claimed on [link] while the op runs; transfer time
          = [op_bytes /. claim_bytes_per_s].  Concurrent transfers
          sharing a bus each claim a fraction of it — the overcommit
          check sums the claims per (step, link). *)
  chunk_lo : int;  (** half-open chunk range [\[chunk_lo, chunk_hi)] *)
  chunk_hi : int;
  reduce : bool;
      (** the receiver reduces the payload into its partial value
          ([true]) or replaces it with the sender's copy ([false]) *)
}

type step = {
  step_id : int;
  deps : int list;  (** step_ids that must complete before this one *)
  latency_s : float;  (** per-step link latency, paid once per chip *)
  ops : op list;  (** all ops in a step run concurrently *)
}

type schedule = {
  sched_name : string;
  chips : int;
  chunks : int;  (** the reduced buffer is split into [chunks] pieces *)
  links : link list;
  steps : step list;
}

val analyze : schedule -> Finding.t list
(** Never raises.  Emits [Malformed] for structural problems (out of
    range chips/chunks, undeclared or duplicate links, non-positive
    claims); when structurally sound, [Coll_deadlock] for cyclic or
    dangling step dependencies, [Coll_unmatched] for a send with no
    mirroring same-step recv (or vice versa), [Coll_overcommit
    {resource="link"}] when one step's claims on a link exceed its
    capacity; on a deadlock-free schedule, [Coll_race] for two steps
    that no dependency path orders ({!Hb.hb}) when one writes a (chip,
    chunk) cell the other reads or writes (a send reads the sender's
    cell and writes the receiver's); and — only when the dependency,
    matching and race checks are clean, so every transfer runs and
    every topological order gives the same result — [Coll_incomplete]
    when the simulated contribution flow leaves some chip without some
    chip's contribution to some chunk.  The simulation runs the steps
    in {!Hb.of_deps}'s topological order.  The findings do not depend
    on the order the steps are listed in, up to sorting.  An empty
    result means the schedule is a realizable, deadlock-free, race-free,
    capacity-respecting all-reduce. *)

val schedule_seconds : schedule -> float
(** Schedule-derived completion time: per chip, each step costs the
    slowest of the chip's transfers ([op_bytes /. claim_bytes_per_s])
    plus the step latency (steps where the chip has no op are free);
    the schedule costs the maximum over chips of the summed step
    times.  The differential gate checks this agrees with the
    closed-form model within 1e-6 relative. *)

(** {1 Fleet placement plans} *)

type placement = {
  plan_name : string;
  nodes : int;
  hbm_bytes_per_node : int option;
      (** per-node HBM capacity; [None] disables the capacity check *)
  policy : string;
      (** routing policy: ["round-robin"], ["least-loaded"] or
          ["affinity"] — anything else is a [Malformed] finding *)
  models : (string * int * int list) list;
      (** model name, weight bytes, and the nodes where its weights
          start resident (the replica set) *)
}

val predicted_page_ins : placement -> int array
(** Statically predicted cold-start page-in counts per node: a model
    pages in once on every node the policy can route it to where it is
    not already resident (affinity never leaves the replica set; the
    load-spreading policies reach every node).  CI cross-checks these
    counts byte-for-byte against what [Fleet.run] observes. *)

val lint_placement : placement -> Finding.t list
(** Never raises.  [Malformed] for structural problems (bad node
    indices, duplicate or nowhere-resident models, unknown policy);
    [Coll_overcommit {resource="HBM"}] (error) for every node whose
    policy-reachable steady-state resident weights exceed
    [hbm_bytes_per_node] — the plan cannot keep serving from HBM. *)
