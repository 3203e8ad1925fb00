(** MPAM-style memory-system resource partitioning and QoS (paper §3.3):
    traffic classes with guaranteed minimum and capped maximum bandwidth
    shares plus strict priority for the remainder.  The automotive SoC
    uses this to bound inference latency under background load, and QoS
    to avoid starvation. *)

type class_spec = {
  class_name : string;
  min_share : float;   (** guaranteed fraction of total bandwidth, [0,1] *)
  max_share : float;   (** cap fraction, >= min_share *)
  priority : int;      (** higher wins the leftover bandwidth *)
}

type allocation = {
  spec : class_spec;
  demand : float;      (** requested bytes/s *)
  granted : float;     (** allocated bytes/s *)
}

val partition :
  total_bandwidth:float -> (class_spec * float) list -> allocation list
(** Allocate bandwidth to (class, demand) pairs:
    1. every class receives min(demand, min_share * total);
    2. leftover flows to classes in priority order up to their cap and
       their demand;
    3. any remainder is shared max-min among still-unsatisfied classes
       ignoring caps (work conservation — QoS avoids starvation but does
       not waste bandwidth).
    Raises [Invalid_argument] on malformed specs (shares outside [0,1],
    max < min, min shares summing over 1). *)

val latency_factor : utilization:float -> float
(** Queueing delay multiplier versus an idle memory system: an M/D/1-like
    [1 + u/(2(1-u))] curve, clamped at 50x when saturated.  Used to
    translate granted-vs-demand into access-latency inflation. *)
