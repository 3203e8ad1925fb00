(** Per-domain reusable arrays for whole-run temporaries.

    A pass that needs an [n]-slot array for one run (one program's
    dispatch queues, say) and drops it afterwards would otherwise take a
    fresh major-heap block on every run.  A buffer instead hands each
    domain its own array, grown to the largest size that domain has
    asked for and reused by every later run there.

    The array {!get} returns stays valid until the next {!get} on the
    same buffer from the same domain, so one buffer serves one
    non-reentrant call site, and systhreads of one domain must not use
    it at the same time.  Its slots hold whatever the previous run
    left: a caller initialises the prefix it uses.  Memory: each domain
    that used a buffer keeps one array for it, at most twice as long as
    the longest run it served. *)

type 'a t

val create : 'a -> 'a t
(** [create fill]: a buffer whose fresh slots hold [fill]. *)

val get : 'a t -> int -> 'a array
(** [get b n]: the calling domain's array for [b], at least [n] long. *)
