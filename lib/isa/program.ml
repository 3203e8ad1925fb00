type t = {
  program_name : string;
  instructions : Instruction.t list;
  buffer_peak : (Buffer_id.t * int) list;
}

let make ~name ?(buffer_peak = []) instructions =
  { program_name = name; instructions; buffer_peak }

let length t = List.length t.instructions

let max_flag = 63

type sync = {
  length : int;
  instrs : Instruction.t array;
  lane : int array;
  set_of : int array;
  used : int array;
  buckets : buckets;
  accesses : accesses;
}

(* bucket [2j] holds the sets of triple [used.(j)] and bucket [2j + 1]
   its waits: bucket [b] is [members.(start.(b))] up to
   [members.(start.(b + 1) - 1)] *)
and buckets = { members : int array; start : int array }

(* instruction [i]'s accesses are entries [first.(i)] up to
   [first.(i + 1) - 1]; entry [a] is [entries.(2a)], its slot, buffer
   index (3 bits) and exact, alloc and write bits, and
   [entries.(2a + 1)], its bytes *)
and accesses = { first : int array; entries : int array }

let every_lane = -2
let flags_per_pair = max_flag + 1
let triples = Pipe.count * Pipe.count * flags_per_pair
let pipes = Array.of_list Pipe.all

let triple t =
  let pair = t / flags_per_pair in
  (pipes.(pair / Pipe.count), pipes.(pair mod Pipe.count), t mod flags_per_pair)

let sets s j = s.buckets.start.((2 * j) + 1) - s.buckets.start.(2 * j)
let waits s j = s.buckets.start.((2 * j) + 2) - s.buckets.start.((2 * j) + 1)
let set s j k = s.buckets.members.(s.buckets.start.(2 * j) + k)
let wait s j k = s.buckets.members.(s.buckets.start.((2 * j) + 1) + k)
let buffers = Array.of_list Buffer_id.all (* in index order *)
let first_access s i = s.accesses.first.(i)
let buffer_index s a = (s.accesses.entries.(2 * a) lsr 3) land 7
let access_buffer s a = buffers.(buffer_index s a)
let access_slot s a = s.accesses.entries.(2 * a) lsr 6
let access_key s a = (access_slot s a * Buffer_id.count) + buffer_index s a
let access_bytes s a = s.accesses.entries.((2 * a) + 1)
let access_write s a = s.accesses.entries.(2 * a) land 1 <> 0
let access_alloc s a = s.accesses.entries.(2 * a) land 2 <> 0
let access_exact s a = s.accesses.entries.(2 * a) land 4 <> 0

(* the decode's arrays, reused per domain.  [count] holds each bucket's
   size by triple id while a decode runs and is all zero between
   decodes; [slot] maps a used triple's id to its position in [used] *)
let instrs_buf = Ascend_util.Scratch.create Instruction.Barrier
let lane_buf = Ascend_util.Scratch.create 0
let set_of_buf = Ascend_util.Scratch.create 0
let members_buf = Ascend_util.Scratch.create 0
let start_buf = Ascend_util.Scratch.create 0
let used_buf = Ascend_util.Scratch.create 0
let count_buf = Ascend_util.Scratch.create 0
let slot_buf = Ascend_util.Scratch.create 0
let first_buf = Ascend_util.Scratch.create 0
let entries_buf = Ascend_util.Scratch.create 0

let sync t =
  let n = List.length t.instructions in
  let instrs = Ascend_util.Scratch.get instrs_buf n in
  let lane = Ascend_util.Scratch.get lane_buf n in
  let set_of = Ascend_util.Scratch.get set_of_buf n in
  let count = Ascend_util.Scratch.get count_buf (2 * triples) in
  let used = Ascend_util.Scratch.get used_buf triples in
  let n_used = ref 0 in
  let first = Ascend_util.Scratch.get first_buf (n + 1) in
  (* about one access per instruction to start; growing the buffer
     keeps the entries written so far *)
  let entries = ref (Ascend_util.Scratch.get entries_buf (2 * n)) in
  let n_acc = ref 0 in
  let add buf ~slot ~bytes ~write ~alloc ~exact =
    let e = 2 * !n_acc in
    if e + 2 > Array.length !entries then begin
      let old = !entries in
      entries := Ascend_util.Scratch.get entries_buf (e + 2);
      Array.blit old 0 !entries 0 e
    end;
    !entries.(e) <-
      ((slot lsl 6)
      lor (Buffer_id.index buf lsl 3)
      lor Bool.to_int write
      lor (Bool.to_int alloc lsl 1)
      lor (Bool.to_int exact lsl 2));
    !entries.(e + 1) <- bytes;
    incr n_acc
  in
  (* the lane of a set ([role] 0), which issues on [from_pipe], or of a
     wait (1), which blocks [to_pipe]; its bucket [2 * triple + role]
     waits in [set_of] until placed *)
  let flag i from_pipe to_pipe flag role =
    if flag < 0 || flag > max_flag then -1
    else begin
      let t =
        (((Pipe.index from_pipe * Pipe.count) + Pipe.index to_pipe)
        * flags_per_pair)
        + flag
      in
      if count.(2 * t) + count.((2 * t) + 1) = 0 then begin
        used.(!n_used) <- t;
        incr n_used
      end;
      count.((2 * t) + role) <- count.((2 * t) + role) + 1;
      set_of.(i) <- (2 * t) + role;
      Pipe.index (if role = 0 then from_pipe else to_pipe)
    end
  in
  let rec walk i = function
    | [] -> ()
    | instr :: rest ->
      instrs.(i) <- instr;
      set_of.(i) <- -1;
      first.(i) <- !n_acc;
      Instruction.iter_accesses add instr;
      lane.(i) <-
        (match instr with
        | Instruction.Barrier -> every_lane
        | Instruction.Set_flag { from_pipe; to_pipe; flag = f } ->
          flag i from_pipe to_pipe f 0
        | Instruction.Wait_flag { from_pipe; to_pipe; flag = f } ->
          flag i from_pipe to_pipe f 1
        | _ -> (
          match Instruction.pipe_of instr with
          | Some p -> Pipe.index p
          | None -> -1));
      walk (i + 1) rest
  in
  walk 0 t.instructions;
  first.(n) <- !n_acc;
  let used = Array.sub used 0 !n_used in
  Array.sort Int.compare used;
  (* counting sort over the used triples' buckets: [start.(b)] ends
     bucket [b], and placing members last to first leaves it at the
     bucket's beginning *)
  let start = Ascend_util.Scratch.get start_buf ((2 * !n_used) + 1) in
  let slot = Ascend_util.Scratch.get slot_buf triples in
  let total = ref 0 in
  Array.iteri
    (fun j t ->
      slot.(t) <- j;
      for role = 0 to 1 do
        total := !total + count.((2 * t) + role);
        count.((2 * t) + role) <- 0;
        start.((2 * j) + role) <- !total
      done)
    used;
  start.(2 * !n_used) <- !total;
  let members = Ascend_util.Scratch.get members_buf !total in
  for i = n - 1 downto 0 do
    let b = set_of.(i) in
    if b >= 0 then begin
      let b = (2 * slot.(b / 2)) + (b land 1) in
      start.(b) <- start.(b) - 1;
      members.(start.(b)) <- i;
      set_of.(i) <- -1
    end
  done;
  let s =
    {
      length = n;
      instrs;
      lane;
      set_of;
      used;
      buckets = { members; start };
      accesses = { first; entries = !entries };
    }
  in
  (* the k-th wait of each triple is released by its k-th set *)
  for j = 0 to !n_used - 1 do
    for k = 0 to Int.min (sets s j) (waits s j) - 1 do
      set_of.(wait s j k) <- set s j k
    done
  done;
  s

let flag_leaks t =
  let s = sync t in
  let leaks = ref [] in
  for j = Array.length s.used - 1 downto 0 do
    let net = sets s j - waits s j in
    if net > 0 then
      let f, to_, flag = triple s.used.(j) in
      leaks := (f, to_, flag, net) :: !leaks
  done;
  !leaks

(* Independent recomputation of the peak footprint from the decode's
   slot-annotated accesses: per buffer, each slot is charged its largest
   allocating write, and concurrent slots sum.  This is the same model
   the code generator uses to declare [buffer_peak], and [Ascend_verify]
   cross-checks the two. *)
let derived_buffer_peak s =
  (* keyed by [access_key] *)
  let slot_max : (int, int) Hashtbl.t = Hashtbl.create 32 in
  for a = 0 to first_access s s.length - 1 do
    if
      access_alloc s a
      && not (Buffer_id.equal (access_buffer s a) Buffer_id.External)
    then
      let key = access_key s a and bytes = access_bytes s a in
      match Hashtbl.find slot_max key with
      | cur -> if bytes > cur then Hashtbl.replace slot_max key bytes
      | exception Not_found -> Hashtbl.add slot_max key bytes
  done;
  let totals = Array.make Buffer_id.count 0 in
  Hashtbl.iter
    (fun key bytes ->
      let b = key mod Buffer_id.count in
      totals.(b) <- totals.(b) + bytes)
    slot_max;
  List.filter_map
    (fun buf ->
      let bytes = totals.(Buffer_id.index buf) in
      if bytes > 0 then Some (buf, bytes) else None)
    Buffer_id.all

let validate (config : Ascend_arch.Config.t) t =
  let module I = Instruction in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let ( let* ) = Result.bind in
  (* the first error [check] gives over [i, n) *)
  let rec first n check i =
    if i = n then Ok ()
    else match check i with Ok () -> first n check (i + 1) | e -> e
  in
  let s = sync t in
  (* an instruction with no lane: an illegal move, then a set or wait
     with an out-of-range flag id *)
  let laneless ~flags i =
    if s.lane.(i) <> -1 then Ok ()
    else
      match s.instrs.(i) with
      | I.Set_flag { flag; _ } | I.Wait_flag { flag; _ } ->
        if flags then err "flag id %d out of range" flag else Ok ()
      | _ ->
        if flags then Ok ()
        else err "instruction %d: no pipe (illegal MTE move)" i
  in
  let* () = first s.length (laneless ~flags:false) 0 in
  let* () = first s.length (laneless ~flags:true) 0 in
  let* () =
    first (Array.length s.used)
      (fun j ->
        if waits s j <= sets s j then Ok ()
        else
          let f, to_, flag = triple s.used.(j) in
          err "flag %s->%s #%d: %d waits but only %d sets" (Pipe.name f)
            (Pipe.name to_) flag (waits s j) (sets s j))
      0
  in
  let* () =
    List.find_map
      (fun (buf, bytes) ->
        match Buffer_id.capacity_bytes config buf with
        | Some cap when bytes > cap ->
          Some
            (err "buffer %s: peak %d B exceeds capacity %d B"
               (Buffer_id.name buf) bytes cap)
        | _ -> None)
      t.buffer_peak
    |> Option.value ~default:(Ok ())
  in
  first s.length
    (fun i ->
      match s.instrs.(i) with
      | I.Cube_matmul { precision; _ }
        when not (Ascend_arch.Config.supports config precision) ->
        err "cube precision %s unsupported on %s"
          (Ascend_arch.Precision.name precision)
          config.name
      | _ -> Ok ())
    0
  |> Result.map (fun () -> s)

let pp ppf t =
  Format.fprintf ppf "program %s (%d instructions)@." t.program_name
    (List.length t.instructions);
  List.iteri
    (fun i instr -> Format.fprintf ppf "%5d  %a@." i Instruction.pp instr)
    t.instructions
