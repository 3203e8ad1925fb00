module Pipe = Ascend_isa.Pipe
module Instruction = Ascend_isa.Instruction
module Program = Ascend_isa.Program

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

type item = Instr of int * Instruction.t | Bar of int

type 'tok state = {
  queues : item Queue.t array;
  sems : (Pipe.t * Pipe.t * int, 'tok Queue.t) Hashtbl.t;
  held : bool array;  (* pipe waits at the pending barrier *)
  mutable arrived : int;
  mutable pending : int;  (* id of the barrier the held pipes wait at *)
}

let pipes = Array.of_list Pipe.all

let sem_queue d key =
  match Hashtbl.find_opt d.sems key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace d.sems key q;
    q

(* Issue the head of a pipe if possible.  Returns true on progress. *)
let try_advance h d p =
  let q = d.queues.(p) in
  if d.held.(p) || Queue.is_empty q then false
  else
    match Queue.peek q with
    | Bar id ->
      ignore (Queue.pop q);
      d.held.(p) <- true;
      d.arrived <- d.arrived + 1;
      d.pending <- id;
      h.arrive pipes.(p) id;
      true
    | Instr (index, (Instruction.Wait_flag { from_pipe; to_pipe; flag } as w)) ->
      let sem = sem_queue d (from_pipe, to_pipe, flag) in
      if Queue.is_empty sem then false
      else begin
        ignore (Queue.pop q);
        h.take pipes.(p) index w (Queue.pop sem);
        true
      end
    | Instr (index, instr) ->
      ignore (Queue.pop q);
      h.issue pipes.(p) index instr;
      (match instr with
      | Instruction.Set_flag { from_pipe; to_pipe; flag } ->
        Queue.push (h.post from_pipe) (sem_queue d (from_pipe, to_pipe, flag))
      | _ -> ());
      true

let describe_stuck d =
  let parts = ref [] in
  Array.iteri
    (fun i q ->
      if not (Queue.is_empty q) then
        let head =
          match Queue.peek q with
          | Bar id -> Printf.sprintf "barrier %d" id
          | Instr (idx, instr) ->
            Format.asprintf "#%d %a" idx Instruction.pp instr
        in
        parts :=
          Printf.sprintf "%s stuck at %s" (Pipe.name pipes.(i)) head
          :: !parts)
    d.queues;
  String.concat "; " (List.rev !parts)

let run h (program : Program.t) =
  let d =
    {
      queues = Array.init Pipe.count (fun _ -> Queue.create ());
      sems = Hashtbl.create 32;
      held = Array.make Pipe.count false;
      arrived = 0;
      pending = 0;
    }
  in
  (* distribute instructions to pipe queues in program order *)
  let barrier_id = ref 0 in
  let unmapped = ref [] in
  List.iteri
    (fun index instr ->
      match instr with
      | Instruction.Barrier ->
        let id = !barrier_id in
        incr barrier_id;
        Array.iter (fun q -> Queue.push (Bar id) q) d.queues
      | _ -> (
        match Instruction.pipe_of instr with
        | Some p -> Queue.push (Instr (index, instr)) d.queues.(Pipe.index p)
        | None -> unmapped := index :: !unmapped))
    program.Program.instructions;
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
    if d.arrived = 0 && Array.for_all Queue.is_empty d.queues then None
    else if !progress then loop ()
    else Some (describe_stuck d)
  in
  let stuck = loop () in
  let leftover = ref [] in
  Hashtbl.iter
    (fun (f, t, flag) q ->
      let n = Queue.length q in
      if n > 0 then leftover := (f, t, flag, n) :: !leftover)
    d.sems;
  { unmapped = List.rev !unmapped; stuck; leftover = List.rev !leftover }
