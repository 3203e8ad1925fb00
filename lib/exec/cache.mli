(** Bounded in-memory content-addressed result store.

    Keys are stable digests (see {!Ascend_util.Stable_hash}); values are
    whatever the service wants to reuse — here compiled programs plus
    simulator reports.  Capacity-bound with LRU eviction; every lookup
    counts a hit or a miss and every eviction is counted, so the cache's
    effectiveness is observable as metrics ({!stats}).  Nothing outlives
    the process, so a run's results and counters depend on its inputs
    alone. *)

type 'v t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

val create : ?capacity:int -> unit -> 'v t
(** Default capacity: 4096 entries.  Raises [Invalid_argument] on a
    capacity below 1. *)

val find : 'v t -> string -> 'v option
(** Counts a hit (refreshing the entry's recency) or a miss. *)

val add : 'v t -> string -> 'v -> unit
(** Inserts unless present; evicts the least-recently-used entry when
    full. *)

val stats : 'v t -> stats

val pp_stats : Format.formatter -> stats -> unit
(** One line — hits, misses, evictions, entries — the single formatter
    the [serve] and [fleet] summaries print. *)

val clear : 'v t -> unit
(** Drop every entry and reset all counters. *)
