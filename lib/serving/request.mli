(** A single inference request flowing through the serving stack, and the
    completion record the metrics layer consumes.

    Times are simulated seconds from the start of the run (the serving
    layer never reads a wall clock: reproducibility is a hard
    requirement, see DESIGN.md §7). *)

type t = {
  id : int;            (** unique, in generation order *)
  model : string;
  arrival_s : float;
  priority : int;      (** the QoS priority of paper §3.3 / §5.2 *)
  slo_s : float;       (** end-to-end latency objective *)
}

val eps : float
(** 1e-12 s: event times less than [eps] apart count as simultaneous, in
    {!Arrivals} and in every event loop's time comparisons. *)

module Arrivals : Ascend_util.Heap.S with type elt = t
(** Pending arrivals, popped in [(arrival_s, id)] order: earliest first,
    and the lower (earlier-generated) id first among arrivals less than
    1e-12 s apart, which count as simultaneous.  That is a strict total
    order as long as each group of near-simultaneous arrivals lies more
    than 1e-12 s from every other arrival; a chain of arrivals each
    within 1e-12 s of the next but spanning more still pops
    deterministically, in an order that depends on the push order.
    Push and pop are O(log n). *)

type outcome =
  | Completed
  | Rejected  (** shed by admission control at arrival *)

type record = {
  request : t;
  outcome : outcome;
  start_s : float;   (** batch dispatch time; [arrival_s] when rejected *)
  finish_s : float;  (** completion time; [arrival_s] when rejected *)
  batch : int;       (** size of the batch it rode in; 0 when rejected *)
  core : int;        (** core index; -1 when rejected *)
}

val rejected : t -> record

val latency_s : record -> float
(** Queueing delay plus batch execution: [finish_s - arrival_s]. *)

val met_slo : record -> bool
(** Completed with [latency_s <= slo_s]. *)
