type t = {
  program_name : string;
  instructions : Instruction.t list;
  buffer_peak : (Buffer_id.t * int) list;
}

let make ~name ?(buffer_peak = []) instructions =
  { program_name = name; instructions; buffer_peak }

let length t = List.length t.instructions

let merge_peaks a b =
  List.fold_left
    (fun acc (buf, bytes) ->
      let cur = match List.assoc_opt buf acc with Some v -> v | None -> 0 in
      (buf, max cur bytes) :: List.remove_assoc buf acc)
    a b

let max_flag = 63

(* Net flag balance per (from_pipe, to_pipe, flag) triple: sets minus
   waits.  A positive entry means the program ends with that flag still
   set — it leaks state into whatever runs next on the core. *)
let flag_leaks t =
  let tbl : (Pipe.t * Pipe.t * int, int) Hashtbl.t = Hashtbl.create 16 in
  let bump key d =
    let cur = match Hashtbl.find_opt tbl key with Some v -> v | None -> 0 in
    Hashtbl.replace tbl key (cur + d)
  in
  List.iter
    (fun instr ->
      match instr with
      | Instruction.Set_flag { from_pipe; to_pipe; flag } ->
        bump (from_pipe, to_pipe, flag) 1
      | Instruction.Wait_flag { from_pipe; to_pipe; flag } ->
        bump (from_pipe, to_pipe, flag) (-1)
      | _ -> ())
    t.instructions;
  Hashtbl.fold
    (fun (f, p, flag) net acc -> if net > 0 then (f, p, flag, net) :: acc else acc)
    tbl []
  |> List.sort compare

let concat ~name parts =
  List.iter
    (fun p ->
      match flag_leaks p with
      | [] -> ()
      | (f, to_, flag, net) :: _ ->
        invalid_arg
          (Printf.sprintf
             "Program.concat: part %s leaks flag %s->%s #%d (%d set(s) never \
              consumed); a leaked flag would satisfy waits in the next part"
             p.program_name (Pipe.name f) (Pipe.name to_) flag net))
    parts;
  let instructions =
    List.concat_map (fun p -> p.instructions @ [ Instruction.Barrier ]) parts
  in
  let buffer_peak =
    List.fold_left (fun acc p -> merge_peaks acc p.buffer_peak) [] parts
  in
  { program_name = name; instructions; buffer_peak }

(* Independent recomputation of the peak footprint from the instruction
   stream's slot-annotated accesses: per buffer, each slot is charged its
   largest allocating write, and concurrent slots sum.  This is the same
   model the code generator uses to declare [buffer_peak], and
   [Ascend_verify] cross-checks the two. *)
let derived_buffer_peak t =
  let slot_max : (Buffer_id.t * int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun instr ->
      List.iter
        (fun (a : Instruction.access) ->
          if a.alloc && not (Buffer_id.equal a.buffer Buffer_id.External) then begin
            let key = (a.buffer, a.slot) in
            let cur =
              match Hashtbl.find_opt slot_max key with Some v -> v | None -> 0
            in
            Hashtbl.replace slot_max key (max cur a.bytes)
          end)
        (Instruction.accesses instr))
    t.instructions;
  let totals : (Buffer_id.t, int) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun (buf, _slot) bytes ->
      let cur =
        match Hashtbl.find_opt totals buf with Some v -> v | None -> 0
      in
      Hashtbl.replace totals buf (cur + bytes))
    slot_max;
  List.filter_map
    (fun buf ->
      match Hashtbl.find_opt totals buf with
      | Some bytes when bytes > 0 -> Some (buf, bytes)
      | _ -> None)
    Buffer_id.all

(* (from, to, flag) triples in that order, numbered from 0 *)
let flags_per_pair = max_flag + 1
let n_triples = Pipe.count * Pipe.count * flags_per_pair

let triple_index from_pipe to_pipe flag =
  (((Pipe.index from_pipe * Pipe.count) + Pipe.index to_pipe) * flags_per_pair)
  + flag

let pipes = Array.of_list Pipe.all

(* [validate]'s per-domain counters: triple [k]'s sets at [2k], its
   waits at [2k + 1] *)
let flag_counts = Ascend_util.Scratch.create 0

let validate (config : Ascend_arch.Config.t) t =
  let module I = Instruction in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  (* pipe mapping *)
  let rec check_pipes i = function
    | [] -> Ok ()
    | instr :: rest -> (
      match instr with
      | I.Barrier -> check_pipes (i + 1) rest
      | _ -> (
        match I.pipe_of instr with
        | Some _ -> check_pipes (i + 1) rest
        | None -> err "instruction %d: no pipe (illegal MTE move)" i))
  in
  (* flag ids in range (the first offender is named), then balance: sets
     must cover waits per triple over the whole program *)
  let check_flags () =
    let rec range = function
      | [] -> Ok ()
      | (I.Set_flag { flag; _ } | I.Wait_flag { flag; _ }) :: _
        when flag < 0 || flag > max_flag ->
        err "flag id %d out of range" flag
      | _ :: rest -> range rest
    in
    match range t.instructions with
    | Error _ as e -> e
    | Ok () ->
      let counts = Ascend_util.Scratch.get flag_counts (2 * n_triples) in
      Array.fill counts 0 (2 * n_triples) 0;
      let bump slot = counts.(slot) <- counts.(slot) + 1 in
      List.iter
        (function
          | I.Set_flag { from_pipe; to_pipe; flag } ->
            bump (2 * triple_index from_pipe to_pipe flag)
          | I.Wait_flag { from_pipe; to_pipe; flag } ->
            bump ((2 * triple_index from_pipe to_pipe flag) + 1)
          | _ -> ())
        t.instructions;
      (* the first unbalanced triple in (from, to, flag) order *)
      let rec first k =
        if k = n_triples then Ok ()
        else
          let sets = counts.(2 * k) and waits = counts.((2 * k) + 1) in
          if waits > sets then
            let pair = k / flags_per_pair in
            err "flag %s->%s #%d: %d waits but only %d sets"
              (Pipe.name pipes.(pair / Pipe.count))
              (Pipe.name pipes.(pair mod Pipe.count))
              (k mod flags_per_pair) waits sets
          else first (k + 1)
      in
      first 0
  in
  let check_buffers () =
    List.fold_left
      (fun acc (buf, bytes) ->
        match acc with
        | Error _ as e -> e
        | Ok () -> (
          match Buffer_id.capacity_bytes config buf with
          | None -> Ok ()
          | Some cap ->
            if bytes > cap then
              err "buffer %s: peak %d B exceeds capacity %d B"
                (Buffer_id.name buf) bytes cap
            else Ok ()))
      (Ok ()) t.buffer_peak
  in
  let check_precisions () =
    List.fold_left
      (fun acc instr ->
        match (acc, instr) with
        | (Error _ as e), _ -> e
        | Ok (), I.Cube_matmul { precision; _ } ->
          if Ascend_arch.Config.supports config precision then Ok ()
          else
            err "cube precision %s unsupported on %s"
              (Ascend_arch.Precision.name precision)
              config.name
        | Ok (), _ -> Ok ())
      (Ok ()) t.instructions
  in
  match check_pipes 0 t.instructions with
  | Error _ as e -> e
  | Ok () -> (
    match check_flags () with
    | Error _ as e -> e
    | Ok () -> (
      match check_buffers () with
      | Error _ as e -> e
      | Ok () -> check_precisions ()))

let stats t =
  let counts = Array.make Pipe.count 0 in
  List.iter
    (fun instr ->
      match Instruction.pipe_of instr with
      | Some p -> counts.(Pipe.index p) <- counts.(Pipe.index p) + 1
      | None -> ())
    t.instructions;
  List.map (fun p -> (p, counts.(Pipe.index p))) Pipe.all

let pp ppf t =
  Format.fprintf ppf "program %s (%d instructions)@." t.program_name
    (List.length t.instructions);
  List.iteri
    (fun i instr -> Format.fprintf ppf "%5d  %a@." i Instruction.pp instr)
    t.instructions
