(** Array-backed binary min-heap under a caller-supplied order.

    [push] and [pop] are O(log n); [peek] and [length] are O(1).  The
    heap is deterministic: the same sequence of pushes and pops returns
    the same elements.  When [precedes] is a strict total order over the
    elements in the heap at the same time, [pop] returns them in that
    order, whatever order they were pushed in.  An element must not
    change its position in the order while it is in the heap. *)

module type ORDERED = sig
  type t

  val precedes : t -> t -> bool
  (** [precedes a b]: [a] leaves the heap before [b]. *)
end

module type S = sig
  type elt
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> elt -> unit

  val peek : t -> elt option
  (** The element [pop] would return, left in place. *)

  val pop : t -> elt option
  (** Removes and returns the first element in the order; [None] when
      empty. *)
end

module Make (O : ORDERED) : S with type elt = O.t
