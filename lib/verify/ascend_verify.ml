(** Static happens-before verifier and hazard linter for compiled Ascend
    core programs.

    Analyses an [Ascend_isa.Program.t] against an [Ascend_arch.Config.t]
    without executing it:

    - deadlock detection over the per-pipe program-order + flag-edge
      happens-before graph ([Hb]);
    - RAW/WAR/WAW hazard detection between buffer accesses that no sync
      edge orders (the double-buffering race detector);
    - independent buffer-peak recomputation cross-checked against the
      program's declared [buffer_peak] and the config's capacities;
    - flag-leak detection (flags still set at program end). *)

open Ascend_isa
module Finding = Finding
module Hb = Hb
module Soc = Soc
module Cluster = Cluster

(* ------------------------------------------------------------------ *)
(* Hazards: scan each (buffer, slot)'s accesses in a topological order
   of the happens-before graph, keeping the frontier — the last write
   plus every read issued since.  Each new access must be HB-ordered
   after the frontier entries it conflicts with; the frontier argument
   makes this sound: if some older conflicting access were unordered
   with the current one, it was already flagged when it met the frontier
   of its time.  [External] is skipped — it is host memory where
   distinct tensors share slot 0 by construction. *)

(* one (buffer, slot)'s frontier: the last write's instruction (-1 for
   none) and the reads issued since, newest first *)
type frontier = { mutable last_write : int; mutable reads : int list }

let hazard_findings (s : Program.sync) (g : Instruction.t Hb.t) =
  (* keyed by [Program.access_key] *)
  let frontier : (int, frontier) Hashtbl.t = Hashtbl.create 64 in
  let findings = ref [] in
  let report dep i j a =
    let pipe =
      if g.Hb.lane.(i) >= 0 then List.nth_opt Pipe.all g.Hb.lane.(i) else None
    in
    let buffer = Program.access_buffer s a in
    findings :=
      Finding.make ~index:i ?pipe ~buffer (Finding.Hazard { dep })
        (Printf.sprintf
           "%s hazard on %s slot %d: instruction %d %ss it but is not \
            ordered after instruction %d's %s — no flag or barrier \
            separates them"
           dep (Buffer_id.name buffer) (Program.access_slot s a) i
           (if Program.access_write s a then "write" else "read")
           j
           (match dep with "RAW" | "WAW" -> "write" | _ -> "read"))
      :: !findings
  in
  let visit i a =
    if not (Buffer_id.equal (Program.access_buffer s a) Buffer_id.External)
    then begin
      let key = Program.access_key s a in
      let f =
        match Hashtbl.find frontier key with
        | f -> f
        | exception Not_found ->
          let f = { last_write = -1; reads = [] } in
          Hashtbl.add frontier key f;
          f
      in
      let j = f.last_write in
      match Program.access_write s a with
      | false ->
        if j >= 0 && not (Hb.hb g j i) then report "RAW" i j a;
        f.reads <- i :: f.reads
      | true ->
        if j >= 0 && not (Hb.hb g j i) then report "WAW" i j a;
        List.iter
          (fun r -> if not (Hb.hb g r i) then report "WAR" i r a)
          f.reads;
        f.last_write <- i;
        f.reads <- []
    end
  in
  (* the decode lists an instruction's reads before its writes *)
  Array.iter
    (fun i ->
      for a = Program.first_access s i to Program.first_access s (i + 1) - 1 do
        visit i a
      done)
    g.Hb.topo;
  List.rev !findings

(* ------------------------------------------------------------------ *)

let peak_findings (config : Ascend_arch.Config.t) (p : Program.t) s =
  let derived = Program.derived_buffer_peak s in
  let declared buf =
    match List.assoc_opt buf p.Program.buffer_peak with
    | Some v -> v
    | None -> 0
  in
  List.concat_map
    (fun buf ->
      let d = match List.assoc_opt buf derived with Some v -> v | None -> 0 in
      let decl = declared buf in
      let under =
        if decl < d then
          [
            Finding.make ~buffer:buf Finding.Peak_mismatch
              (Printf.sprintf
                 "buffer %s: declared peak %d B understates the %d B the \
                  instruction stream actually allocates"
                 (Buffer_id.name buf) decl d);
          ]
        else if decl > d then
          [
            Finding.make ~severity:Finding.Warning ~buffer:buf
              Finding.Peak_mismatch
              (Printf.sprintf
                 "buffer %s: declared peak %d B overstates the %d B the \
                  instruction stream allocates"
                 (Buffer_id.name buf) decl d);
          ]
        else []
      in
      let over =
        match Buffer_id.capacity_bytes config buf with
        | Some cap when d > cap ->
          [
            Finding.make ~buffer:buf Finding.Capacity_overflow
              (Printf.sprintf
                 "buffer %s: recomputed footprint %d B exceeds %s's %d B \
                  capacity"
                 (Buffer_id.name buf) d config.name cap);
          ]
        | _ -> []
      in
      under @ over)
    (List.filter (fun b -> not (Buffer_id.equal b Buffer_id.External))
       Buffer_id.all)

(* triples whose sets outnumber their waits, each at its last set *)
let leak_findings (s : Program.sync) =
  let findings = ref [] in
  for j = Array.length s.used - 1 downto 0 do
    let sets = Program.sets s j in
    let net = sets - Program.waits s j in
    if net > 0 then
      let f, to_, flag = Program.triple s.used.(j) in
      findings :=
        Finding.make
          ~index:(Program.set s j (sets - 1))
          ~pipe:f Finding.Flag_leak
          (Printf.sprintf
             "flag %s->%s #%d ends the program with %d set(s) never \
              consumed; a following program's first wait on this triple \
              would pass spuriously"
             (Pipe.name f) (Pipe.name to_) flag net)
        :: !findings
  done;
  !findings

(* the instructions with no lane: illegal moves and out-of-range flag
   ids.  The sanitizer reports the same findings. *)
let structural_findings (s : Program.sync) =
  let findings = ref [] in
  for i = s.length - 1 downto 0 do
    if s.lane.(i) = -1 then
      findings :=
        Finding.make ~index:i Finding.Malformed
          (match s.instrs.(i) with
          | Instruction.Set_flag { flag; _ } | Instruction.Wait_flag { flag; _ }
            ->
            Printf.sprintf "flag id %d out of range 0..%d" flag
              Program.max_flag
          | _ -> "instruction maps to no pipe (illegal MTE move)")
        :: !findings
  done;
  !findings

(* ------------------------------------------------------------------ *)

let analyze (config : Ascend_arch.Config.t) (p : Program.t) =
  let s = Program.sync p in
  let structural = structural_findings s in
  let g = Hb.build s in
  let deadlocks = g.Hb.findings in
  (* hazard results are only meaningful on a deadlock-free graph: stuck
     instructions never execute, so racing with them is moot *)
  let hazards = if deadlocks = [] then hazard_findings s g else [] in
  structural @ deadlocks @ hazards @ peak_findings config p s @ leak_findings s

let errors findings = List.filter Finding.is_error findings

let pp_report ppf findings =
  match findings with
  | [] -> Format.fprintf ppf "clean: no findings@."
  | fs ->
    List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp f) fs;
    let n_err = List.length (errors fs) in
    Format.fprintf ppf "%d finding(s), %d error(s)@." (List.length fs) n_err
