(** A fixed-size pool of worker domains with deterministic ordered
    fan-out.

    [map] runs items concurrently on the pool's workers but always
    returns results in submission order, so replacing [List.map] with
    [Domain_pool.map] never changes observable output — only wall-clock
    time.  There is no work stealing; each item runs whole on one
    worker, and the mapped function must be safe to run concurrently
    with itself (no shared mutable state).

    Workers are spawned lazily on the first parallel [map]; a pool with
    [jobs = 1] runs everything inline and never spawns a domain.  Each
    worker runs with a 1M-word (8 MiB) minor heap: an OCaml 5 minor
    collection stops every domain, and a larger heap makes the whole
    pool pause less often. *)

type t

val create : ?jobs:int -> unit -> t
(** Default [jobs]: {!default_jobs}.  Clamped to at least 1. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map.  An exception raised by [f] is re-raised in
    the caller once the batch has drained.  Calls from inside a pool
    worker (nested fan-out) run inline to avoid deadlock.  Not
    reentrant from multiple client domains at once. *)

val shutdown : t -> unit
(** Join all workers.  The pool can be reused afterwards (workers
    respawn lazily). *)
