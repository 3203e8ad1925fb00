(** Typed findings reported by the static verifier and the dynamic
    shadow-state sanitizer. *)

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
          from the instruction stream (understated = unsound) *)
  | Capacity_overflow
      (** recomputed footprint exceeds the config's buffer capacity *)
  | Flag_leak
      (** a flag is still set when the program ends — it would satisfy a
          wait in whatever runs next on the core *)
  | Malformed
      (** structural problem: bad flag id, illegal move, unmapped pipe *)
  | Soc_race of { dep : string }
      (** cross-core RAW/WAR/WAW: two tasks on different cores touch
          overlapping HBM byte ranges and no schedule edge orders them *)
  | Soc_deadlock
      (** the fused-group schedule's dependency graph has a cycle (or a
          dependency on a task that does not exist) *)
  | Soc_overcommit of { resource : string }
      (** shared-memory capacity overcommit across the whole SoC;
          [resource] is "LLC" or "HBM" *)
  | Uninit_read
      (** dynamic: a (buffer, slot) is read before any write established
          it, or a read extends past the bytes actually written *)
  | Slot_overflow
      (** dynamic: an in-place write touches more bytes than the slot's
          allocating write established *)
  | Coll_unmatched
      (** a collective-schedule step contains a send with no mirroring
          recv (or vice versa) — the transfer can never complete *)
  | Coll_deadlock
      (** the collective schedule's step dependency graph has a cycle,
          or a dependency on a step that does not exist *)
  | Coll_overcommit of { resource : string }
      (** claimed bandwidth on one link within one step exceeds its
          capacity ([resource] = "link"), or a placement's resident
          weights exceed a node's HBM ([resource] = "HBM") *)
  | Coll_incomplete
      (** all-reduce correctness violated: some chip's contribution to
          some chunk never reaches some other chip *)
  | Coll_race of { dep : string }
      (** two collective steps that no dependency path orders touch one
          (chip, chunk) cell and at least one writes it; [dep] is "RAW",
          "WAR" or "WAW" *)

type t = {
  kind : kind;
  severity : severity;
  index : int option;  (** offending instruction index, program order *)
  pipe : Pipe.t option;
  buffer : Buffer_id.t option;  (** buffer involved, when known *)
  message : string;
}

let make ?(severity = Error) ?index ?pipe ?buffer kind message =
  { kind; severity; index; pipe; buffer; message }

let kind_name = function
  | Deadlock -> "deadlock"
  | Hazard { dep } -> "hazard/" ^ dep
  | Peak_mismatch -> "peak-mismatch"
  | Capacity_overflow -> "capacity-overflow"
  | Flag_leak -> "flag-leak"
  | Malformed -> "malformed"
  | Soc_race { dep } -> "soc-race/" ^ dep
  | Soc_deadlock -> "soc-deadlock"
  | Soc_overcommit { resource } -> "soc-overcommit/" ^ resource
  | Uninit_read -> "uninit-read"
  | Slot_overflow -> "slot-overflow"
  | Coll_unmatched -> "coll-unmatched"
  | Coll_deadlock -> "coll-deadlock"
  | Coll_overcommit { resource } -> "coll-overcommit/" ^ resource
  | Coll_incomplete -> "coll-incomplete"
  | Coll_race { dep } -> "coll-race/" ^ dep

let severity_name = function Error -> "error" | Warning -> "warning"

let is_error t = t.severity = Error

let compare (a : t) (b : t) = Stdlib.compare a b

let pp ppf t =
  Format.fprintf ppf "[%s] %s" (severity_name t.severity) (kind_name t.kind);
  (match t.index with
  | Some i -> Format.fprintf ppf " @@%d" i
  | None -> ());
  (match (t.pipe, t.buffer) with
  | Some p, Some b ->
    Format.fprintf ppf " (%s, %s)" (Pipe.name p) (Buffer_id.name b)
  | Some p, None -> Format.fprintf ppf " (%s)" (Pipe.name p)
  | None, Some b -> Format.fprintf ppf " (%s)" (Buffer_id.name b)
  | None, None -> ());
  Format.fprintf ppf ": %s" t.message

let to_string t = Format.asprintf "%a" pp t

(* deterministic field order: kind, severity, index, pipe, buffer,
   message — pinned by a golden test, relied on by the differential
   sweep's byte comparison *)
let to_json t =
  let module J = Ascend_util.Json in
  J.Obj
    [
      ("kind", J.String (kind_name t.kind));
      ("severity", J.String (severity_name t.severity));
      ("index", match t.index with Some i -> J.Int i | None -> J.Null);
      ( "pipe",
        match t.pipe with Some p -> J.String (Pipe.name p) | None -> J.Null );
      ( "buffer",
        match t.buffer with
        | Some b -> J.String (Buffer_id.name b)
        | None -> J.Null );
      ("message", J.String t.message);
    ]
