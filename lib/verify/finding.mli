(** Typed findings reported by the static verifier ({!Ascend_verify}),
    the whole-SoC schedule analyzer ({!Soc}) and the dynamic
    shadow-state sanitizer ([Ascend_core_sim.Sanitizer]).

    Every checker in the repository funnels its diagnoses through this
    one type so reports compose: the per-core linter, the SoC-level race
    detector and the runtime sanitizer all print, sort and serialise
    identically — which is what makes the differential
    lint-vs-sanitize gate a byte comparison. *)

open Ascend_isa

type severity = Error | Warning

type kind =
  | Deadlock
      (** a [Wait_flag] no interleaving can satisfy: cyclic cross-pipe
          waits, or a wait whose ordinal exceeds the total set count *)
  | Hazard of { dep : string }
      (** unsynchronised conflicting accesses to one (buffer, slot);
          [dep] is "RAW", "WAR" or "WAW" *)
  | Peak_mismatch
      (** declared [buffer_peak] disagrees with the footprint recomputed
          (statically or by the sanitizer's shadow state) from the
          instruction stream; understated = unsound (error), overstated
          = wasteful (warning) *)
  | Capacity_overflow
      (** a buffer footprint exceeds the core config's capacity *)
  | Flag_leak
      (** a flag is still set when the program ends — it would satisfy a
          wait in whatever runs next on the core *)
  | Malformed
      (** structural problem: bad flag id, illegal move, unmapped pipe;
          an SoC task or a collective op on a core or chip out of
          range *)
  | Soc_race of { dep : string }
      (** cross-core RAW/WAR/WAW: two tasks on different cores touch
          overlapping HBM byte ranges and no schedule edge (data
          dependency, memory-reuse anti-dependency or barrier instant)
          orders them; [dep] is "RAW", "WAR" or "WAW" *)
  | Soc_deadlock
      (** the fused-group schedule's dependency graph has a cycle, or a
          dependency on a task that does not exist *)
  | Soc_overcommit of { resource : string }
      (** shared-memory capacity overcommit across the whole SoC;
          [resource] is ["LLC"] (concurrent working set, warning) or
          ["HBM"] (resident weights + live activation regions, error) *)
  | Uninit_read
      (** dynamic: a (buffer, slot) is read before any write established
          it, or a read extends past the bytes actually written *)
  | Slot_overflow
      (** dynamic: an in-place write touches more bytes than the slot's
          allocating write established *)
  | Coll_unmatched
      (** a collective-schedule step contains a send with no mirroring
          recv (or vice versa): same link, byte count, chunk range and
          reduce/copy mode — the transfer can never complete *)
  | Coll_deadlock
      (** the collective schedule's step dependency graph has a cycle,
          or a dependency on a step that does not exist *)
  | Coll_overcommit of { resource : string }
      (** claimed bandwidth on one link within one step exceeds its
          capacity ([resource] = ["link"]), or a fleet placement's
          policy-reachable resident weights exceed a node's HBM
          ([resource] = ["HBM"]) *)
  | Coll_incomplete
      (** all-reduce correctness violated: some chip's contribution to
          some chunk never reaches some other chip *)

type t = {
  kind : kind;
  severity : severity;
  index : int option;
      (** offending instruction index in program order (per-core
          checks), or task id (SoC-level checks) *)
  pipe : Pipe.t option;
  buffer : Buffer_id.t option;  (** buffer involved, when known *)
  message : string;
}

val make :
  ?severity:severity -> ?index:int -> ?pipe:Pipe.t ->
  ?buffer:Buffer_id.t -> kind -> string -> t
(** [severity] defaults to [Error]. *)

val kind_name : kind -> string
(** Stable slug, e.g. ["hazard/RAW"], ["soc-overcommit/LLC"]. *)

val is_error : t -> bool

val compare : t -> t -> int
(** Total structural order; used to sort findings deterministically
    before printing or serialising. *)

val pp : Format.formatter -> t -> unit
(** ["[severity] kind @index (pipe, buffer): message"], omitting the
    parts that are unknown. *)

val to_string : t -> string

val to_json : t -> Ascend_util.Json.t
(** Object with the pinned field order [kind], [severity], [index],
    [pipe], [buffer], [message] — the differential CI gate byte-compares
    documents built from these. *)
