(** Dynamic shadow-state sanitizer: an opt-in replay mode that executes
    a program's synchronisation skeleton (no latencies) while keeping
    shadow init/ownership state per (buffer, slot).

    The replay runs on {!Dispatch}, the issue engine {!Simulator} runs
    on — per-pipe issue queues filled in program order, the k-th wait of
    a [(from_pipe, to_pipe, flag)] triple released by its k-th set,
    all-pipe barriers — but each executed instruction carries a
    per-pipe vector clock instead of a cycle count, so every access is
    checked against the shadow state *with the ordering the
    synchronisation actually establishes*, not the ordering one lucky
    interleaving happened to produce.  Because the clocks derive from
    the same sync edges as the static happens-before graph, the verdict
    is interleaving-independent: a program is sanitizer-clean iff every
    conflicting access pair is separated by a satisfied flag or barrier.

    Checks (all reported through {!Ascend_verify.Finding}):
    - [Uninit_read] — a (buffer, slot) read before any write established
      it, or a read of more bytes than were ever written there;
    - [Hazard] RAW/WAR/WAW — conflicting accesses the clocks leave
      unordered: slot reuse without an intervening satisfied
      [Wait_flag];
    - [Slot_overflow] — an in-place write past the footprint the slot's
      allocating write established;
    - [Capacity_overflow] — live shadow footprints of a buffer exceed
      the config's capacity at some instant of the replay;
    - [Flag_leak] — sets no issued wait consumed when the replay ends;
    - [Peak_mismatch] — the shadow footprint high-water mark disagrees
      with the program's declared [buffer_peak];
    - [Deadlock] — the replay wedges (every pipe blocked);
    - [Malformed] — the static checker's structural findings: an
      instruction with no lane never issues.

    Mirroring the static checker's severities and end-state checks is
    what makes the differential gate meaningful: for every mutation
    class the static analyzer detects, the sanitizer detects the same
    class dynamically, and vice versa. *)

module Config = Ascend_arch.Config
module Pipe = Ascend_isa.Pipe
module Buffer_id = Ascend_isa.Buffer_id
module Instruction = Ascend_isa.Instruction
module Program = Ascend_isa.Program
module Finding = Ascend_verify.Finding

type report = { findings : Finding.t list; instructions_executed : int }

(* one recorded access: the executing pipe, that pipe's own clock
   component when it executed, and the instruction index.  The own
   component is all [ordered_before] reads: it places the access in its
   pipe's sequence, and every later view of that sequence is a clock
   entry of the reader's. *)
type stamp = { pipe : int; clock : int; index : int }

type slot_shadow = {
  mutable footprint : int;  (* bytes the allocating write established *)
  mutable max_footprint : int;  (* high-water mark across all allocs *)
  mutable writer : stamp option;
  mutable readers : stamp list;  (* reads since the last write *)
}

type state = {
  config : Config.t;
  sync : Program.sync;
  clock : int array array;  (* per-pipe vector clock *)
  shadow : (int, slot_shadow) Hashtbl.t;  (* keyed by [Program.access_key] *)
  live : int array;  (* per-buffer current live footprint sum *)
  mutable executed : int;
  mutable findings_rev : Finding.t list;
  seen : (string, unit) Hashtbl.t;  (* dedup key -> () *)
  tokens : int array;
      (* each set's token, the setter's clock when it issued: set [i]'s
         at [i * Pipe.count] *)
}

(* [tokens], reused per domain *)
let tokens_buf = Ascend_util.Scratch.create 0

let slot_shadow st key =
  match Hashtbl.find st.shadow key with
  | s -> s
  | exception Not_found ->
    let s = { footprint = 0; max_footprint = 0; writer = None; readers = [] } in
    Hashtbl.replace st.shadow key s;
    s

(* report once per (kind, buffer, slot): streaming loops would otherwise
   repeat one root cause thousands of times *)
let emit st ?severity ?index ?pipe ?buffer ~slot kind message =
  let key =
    Printf.sprintf "%s/%s/%d" (Finding.kind_name kind)
      (match buffer with Some b -> Buffer_id.name b | None -> "-")
      slot
  in
  if not (Hashtbl.mem st.seen key) then begin
    Hashtbl.replace st.seen key ();
    st.findings_rev <-
      Finding.make ?severity ?index ?pipe ?buffer kind message
      :: st.findings_rev
  end

(* did the event stamped [s] happen before the current instant of pipe
   [p]?  standard vector-clock test: s's own component is included in
   p's view *)
let ordered_before st (s : stamp) p = s.clock <= st.clock.(p).(s.pipe)

(* access [a] of the decode, by instruction [index] on [pipe] *)
let check_access st ~pipe ~index a =
  let s = st.sync in
  let buf = Program.access_buffer s a in
  if not (Buffer_id.equal buf Buffer_id.External) then begin
    let slot = Program.access_slot s a and bytes = Program.access_bytes s a in
    let exact = Program.access_exact s a in
    let sh = slot_shadow st (Program.access_key s a) in
    let pipe_idx = Pipe.index pipe in
    let stamp () =
      { pipe = pipe_idx; clock = st.clock.(pipe_idx).(pipe_idx); index }
    in
    match Program.access_write s a with
    | false ->
      (match sh.writer with
      | None ->
        if bytes > 0 then
          emit st ~index ~pipe ~buffer:buf ~slot Finding.Uninit_read
            (Printf.sprintf
               "instruction %d reads %d B from %s slot %d before any write \
                established it"
               index bytes (Buffer_id.name buf) slot)
      | Some w ->
        if exact && bytes > sh.footprint then
          emit st ~index ~pipe ~buffer:buf ~slot Finding.Uninit_read
            (Printf.sprintf
               "instruction %d reads %d B from %s slot %d but only %d B were \
                written"
               index bytes (Buffer_id.name buf) slot sh.footprint);
        if not (ordered_before st w pipe_idx) then
          emit st ~index ~pipe ~buffer:buf ~slot
            (Finding.Hazard { dep = "RAW" })
            (Printf.sprintf
               "replay race on %s slot %d: instruction %d reads bytes \
                instruction %d is writing — no satisfied flag or barrier \
                orders them"
               (Buffer_id.name buf) slot index w.index));
      sh.readers <- stamp () :: sh.readers
    | true ->
      (match sh.writer with
      | Some w when not (ordered_before st w pipe_idx) ->
        emit st ~index ~pipe ~buffer:buf ~slot
          (Finding.Hazard { dep = "WAW" })
          (Printf.sprintf
             "replay race on %s slot %d: instruction %d overwrites bytes \
              instruction %d is writing — slot reused without a satisfied \
              wait"
             (Buffer_id.name buf) slot index w.index)
      | _ -> ());
      List.iter
        (fun r ->
          if not (ordered_before st r pipe_idx) then
            emit st ~index ~pipe ~buffer:buf ~slot
              (Finding.Hazard { dep = "WAR" })
              (Printf.sprintf
                 "replay race on %s slot %d: instruction %d overwrites bytes \
                  instruction %d is still reading — slot reused without a \
                  satisfied wait"
                 (Buffer_id.name buf) slot index r.index))
        sh.readers;
      if Program.access_alloc s a then begin
        let bi = Buffer_id.index buf in
        st.live.(bi) <- st.live.(bi) - sh.footprint + bytes;
        sh.footprint <- bytes;
        if sh.footprint > sh.max_footprint then
          sh.max_footprint <- sh.footprint;
        (match Buffer_id.capacity_bytes st.config buf with
        | Some cap when st.live.(bi) > cap ->
          emit st ~index ~pipe ~buffer:buf ~slot:(-1)
            Finding.Capacity_overflow
            (Printf.sprintf
               "buffer %s: live footprint %d B exceeds %s's %d B capacity at \
                instruction %d"
               (Buffer_id.name buf) st.live.(bi) st.config.Config.name cap
               index)
        | _ -> ())
      end
      else if exact && bytes > sh.footprint then
        emit st ~index ~pipe ~buffer:buf ~slot Finding.Slot_overflow
          (Printf.sprintf
             "instruction %d writes %d B in place into %s slot %d whose \
              allocating write established only %d B"
             index bytes (Buffer_id.name buf) slot sh.footprint);
      sh.writer <- Some (stamp ());
      sh.readers <- []
  end

(* the sanitizer's side of {!Dispatch}: every issue ticks the pipe's
   own clock component, a set's token is a copy of its clock, a wait
   joins the token in, and a barrier joins every pipe's clock *)
let hooks st =
  let tick p =
    st.clock.(p).(p) <- st.clock.(p).(p) + 1;
    st.executed <- st.executed + 1
  in
  {
    Dispatch.issue =
      (fun pipe index instr ->
        let p = Pipe.index pipe in
        tick p;
        (match instr with
        | Instruction.Set_flag _ ->
          Array.blit st.clock.(p) 0 st.tokens (index * Pipe.count) Pipe.count
        | _ -> ());
        (* the decode lists an instruction's reads before its writes *)
        for a = Program.first_access st.sync index
            to Program.first_access st.sync (index + 1) - 1 do
          check_access st ~pipe ~index a
        done);
    take =
      (fun pipe _ _ set ->
        let p = Pipe.index pipe in
        tick p;
        for i = 0 to Pipe.count - 1 do
          let v = st.tokens.((set * Pipe.count) + i) in
          if v > st.clock.(p).(i) then st.clock.(p).(i) <- v
        done);
    arrive = (fun _ _ -> ());
    release =
      (fun _ ->
        let join = Array.make Pipe.count 0 in
        Array.iter
          (fun vc -> Array.iteri (fun i v -> if v > join.(i) then join.(i) <- v) vc)
          st.clock;
        Array.iteri (fun p _ -> st.clock.(p) <- Array.copy join) st.clock);
  }

(* end-of-run checks, mirroring the static analyzer's *)
let end_state_findings st (program : Program.t) leftover =
  let leaks =
    List.map
      (fun (f, t, flag, n) ->
        Finding.make ~pipe:f Finding.Flag_leak
          (Printf.sprintf
             "flag %s->%s #%d ends the replay with %d set(s) never \
              consumed; a following program's first wait on this triple \
              would pass spuriously"
             (Pipe.name f) (Pipe.name t) flag n))
      leftover
  in
  (* each (buffer, slot) has one shadow entry, so a buffer's peak is the
     sum of its slots' high-water marks, as in
     [Program.derived_buffer_peak] *)
  let shadow_peak = Array.make Buffer_id.count 0 in
  Hashtbl.iter
    (fun key (sh : slot_shadow) ->
      let b = key mod Buffer_id.count in
      shadow_peak.(b) <- shadow_peak.(b) + sh.max_footprint)
    st.shadow;
  let peaks =
    List.concat_map
      (fun buf ->
        if Buffer_id.equal buf Buffer_id.External then []
        else begin
          let shadow_peak = shadow_peak.(Buffer_id.index buf) in
          let declared =
            match List.assoc_opt buf program.Program.buffer_peak with
            | Some v -> v
            | None -> 0
          in
          if declared < shadow_peak then
            [
              Finding.make ~buffer:buf Finding.Peak_mismatch
                (Printf.sprintf
                   "buffer %s: declared peak %d B understates the %d B the \
                    replay's shadow state reached"
                   (Buffer_id.name buf) declared shadow_peak);
            ]
          else if declared > shadow_peak then
            [
              Finding.make ~severity:Finding.Warning ~buffer:buf
                Finding.Peak_mismatch
                (Printf.sprintf
                   "buffer %s: declared peak %d B overstates the %d B the \
                    replay's shadow state reached"
                   (Buffer_id.name buf) declared shadow_peak);
            ]
          else []
        end)
      Buffer_id.all
  in
  leaks @ peaks

let run (config : Config.t) (program : Program.t) =
  let s = Program.sync program in
  let malformed = Ascend_verify.structural_findings s in
  let st =
    {
      config;
      sync = s;
      clock = Array.init Pipe.count (fun _ -> Array.make Pipe.count 0);
      shadow = Hashtbl.create 64;
      live = Array.make Buffer_id.count 0;
      executed = 0;
      findings_rev = [];
      seen = Hashtbl.create 32;
      tokens =
        Ascend_util.Scratch.get tokens_buf (s.Program.length * Pipe.count);
    }
  in
  let o = Dispatch.run (hooks st) s in
  let deadlocks =
    match o.Dispatch.stuck with
    | None -> []
    | Some stuck ->
      [
        Finding.make Finding.Deadlock
          (Printf.sprintf "replay wedged with work outstanding: %s" stuck);
      ]
  in
  let findings =
    malformed @ List.rev st.findings_rev @ deadlocks
    @ end_state_findings st program o.Dispatch.leftover
  in
  { findings; instructions_executed = st.executed }

let clean (r : report) = r.findings = []
