module Pipe = Ascend_isa.Pipe
module Instruction = Ascend_isa.Instruction
module Program = Ascend_isa.Program
module Scratch = Ascend_util.Scratch

type 'tok hooks = {
  issue : Pipe.t -> int -> Instruction.t -> unit;
  post : Pipe.t -> 'tok;
  take : Pipe.t -> int -> Instruction.t -> 'tok -> unit;
  arrive : Pipe.t -> int -> unit;
  release : int -> unit;
}

type outcome = {
  unmapped : int list;
  stuck : string option;
  leftover : (Pipe.t * Pipe.t * int * int) list;
}

(* Whole-program temporaries, reused per domain: the program in an
   array, the pipe queues, and each set's and wait's semaphore id. *)
let instrs_buf = Scratch.create Instruction.Barrier
let queue_buf = Scratch.create 0
let sem_buf = Scratch.create 0

type 'tok state = {
  instrs : Instruction.t array;  (* program order *)
  queue : int array;
      (* pipe [p]'s queue is [queue.(head.(p))] up to [stop.(p)]: program
         indices, and [-1 - id] for barrier [id] *)
  head : int array;
  stop : int array;
  sem_of : int array;
      (* program index -> semaphore id of that set or wait; -1 until the
         instruction first needs it *)
  sem_ids : (Pipe.t * Pipe.t * int, int) Hashtbl.t;
      (* the semaphore table, in first-use order: its iteration order is
         the order of [leftover] *)
  mutable tokens : 'tok Queue.t array;  (* by semaphore id *)
  held : bool array;  (* pipe waits at the pending barrier *)
  mutable arrived : int;
  mutable pending : int;  (* id of the barrier the held pipes wait at *)
}

let pipes = Array.of_list Pipe.all

(* the semaphore of set or wait [i], resolved once *)
let sem d i from_pipe to_pipe flag =
  let s = d.sem_of.(i) in
  if s >= 0 then s
  else begin
    let key = (from_pipe, to_pipe, flag) in
    let s =
      match Hashtbl.find_opt d.sem_ids key with
      | Some s -> s
      | None ->
        let s = Hashtbl.length d.sem_ids in
        Hashtbl.add d.sem_ids key s;
        let q = Queue.create () in
        if s = Array.length d.tokens then begin
          let grown = Array.make (max 8 (2 * s)) q in
          Array.blit d.tokens 0 grown 0 s;
          d.tokens <- grown
        end;
        d.tokens.(s) <- q;
        s
    in
    d.sem_of.(i) <- s;
    s
  end

(* Issue the head of a pipe if possible.  Returns true on progress. *)
let try_advance h d p =
  let k = d.head.(p) in
  if d.held.(p) || k = d.stop.(p) then false
  else
    let e = d.queue.(k) in
    if e < 0 then begin
      d.head.(p) <- k + 1;
      d.held.(p) <- true;
      d.arrived <- d.arrived + 1;
      d.pending <- -1 - e;
      h.arrive pipes.(p) d.pending;
      true
    end
    else
      match d.instrs.(e) with
      | Instruction.Wait_flag { from_pipe; to_pipe; flag } as w ->
        let s = sem d e from_pipe to_pipe flag in
        let q = d.tokens.(s) in
        if Queue.is_empty q then false
        else begin
          d.head.(p) <- k + 1;
          h.take pipes.(p) e w (Queue.pop q);
          true
        end
      | instr ->
        d.head.(p) <- k + 1;
        h.issue pipes.(p) e instr;
        (match instr with
        | Instruction.Set_flag { from_pipe; to_pipe; flag } ->
          let s = sem d e from_pipe to_pipe flag in
          Queue.push (h.post from_pipe) d.tokens.(s)
        | _ -> ());
        true

let describe_stuck d =
  let parts = ref [] in
  for p = 0 to Pipe.count - 1 do
    let k = d.head.(p) in
    if k < d.stop.(p) then
      let e = d.queue.(k) in
      let head =
        if e < 0 then Printf.sprintf "barrier %d" (-1 - e)
        else Format.asprintf "#%d %a" e Instruction.pp d.instrs.(e)
      in
      parts :=
        Printf.sprintf "%s stuck at %s" (Pipe.name pipes.(p)) head :: !parts
  done;
  String.concat "; " (List.rev !parts)

(* the PSQ: every instruction joins its pipe's queue in program order,
   and a barrier joins every queue *)
let fill (program : Program.t) =
  let n = List.length program.Program.instructions in
  let instrs = Scratch.get instrs_buf n in
  let lengths = Array.make Pipe.count 0 in
  let barriers = ref 0 in
  let unmapped = ref [] in
  List.iteri
    (fun i instr ->
      instrs.(i) <- instr;
      match instr with
      | Instruction.Barrier -> incr barriers
      | _ -> (
        match Instruction.pipe_of instr with
        | Some p ->
          let p = Pipe.index p in
          lengths.(p) <- lengths.(p) + 1
        | None -> unmapped := i :: !unmapped))
    program.Program.instructions;
  let head = Array.make Pipe.count 0 in
  for p = 1 to Pipe.count - 1 do
    head.(p) <- head.(p - 1) + lengths.(p - 1) + !barriers
  done;
  let stop = Array.copy head in
  let queue =
    Scratch.get queue_buf
      (head.(Pipe.count - 1) + lengths.(Pipe.count - 1) + !barriers)
  in
  let push p e =
    queue.(stop.(p)) <- e;
    stop.(p) <- stop.(p) + 1
  in
  let barrier_id = ref 0 in
  for i = 0 to n - 1 do
    match instrs.(i) with
    | Instruction.Barrier ->
      for p = 0 to Pipe.count - 1 do
        push p (-1 - !barrier_id)
      done;
      incr barrier_id
    | instr -> (
      match Instruction.pipe_of instr with
      | Some p -> push (Pipe.index p) i
      | None -> ())
  done;
  let sem_of = Scratch.get sem_buf n in
  Array.fill sem_of 0 n (-1);
  ( {
      instrs;
      queue;
      head;
      stop;
      sem_of;
      sem_ids = Hashtbl.create 32;
      tokens = [||];
      held = Array.make Pipe.count false;
      arrived = 0;
      pending = 0;
    },
    List.rev !unmapped )

let drained d =
  let rec from p =
    p = Pipe.count || (d.head.(p) = d.stop.(p) && from (p + 1))
  in
  from 0

let run h program =
  let d, unmapped = fill program in
  let rec loop () =
    let progress = ref false in
    for p = 0 to Pipe.count - 1 do
      (* drain each pipe as far as it can go this pass *)
      while try_advance h d p do
        progress := true
      done
    done;
    if d.arrived = Pipe.count then begin
      d.arrived <- 0;
      Array.fill d.held 0 Pipe.count false;
      h.release d.pending;
      progress := true
    end;
    if d.arrived = 0 && drained d then None
    else if !progress then loop ()
    else Some (describe_stuck d)
  in
  let stuck = loop () in
  let leftover = ref [] in
  Hashtbl.iter
    (fun (f, t, flag) s ->
      let n = Queue.length d.tokens.(s) in
      if n > 0 then leftover := (f, t, flag, n) :: !leftover)
    d.sem_ids;
  { unmapped; stuck; leftover = List.rev !leftover }
