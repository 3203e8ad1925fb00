(** Max-min fair allocation of a shared resource — used for HBM bandwidth
    sharing among cores and for flow-level NoC link allocation. *)

val max_min_fair : capacity:float -> demands:float array -> float array
(** Allocate [capacity] among demanders: repeatedly give every unsatisfied
    demander an equal share of the remainder; demanders needing less keep
    only what they need.  Result satisfies: sum <= capacity; no allocation
    exceeds its demand; and the allocation is max-min optimal.  Raises
    [Invalid_argument] on negative capacity or demands. *)

val weighted_max_min_fair :
  capacity:float -> demands:float array -> weights:float array -> float array
(** Same, with shares proportional to positive weights. *)
