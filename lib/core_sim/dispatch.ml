module Pipe = Ascend_isa.Pipe
module Instruction = Ascend_isa.Instruction
module Program = Ascend_isa.Program

type hooks = {
  issue : Pipe.t -> int -> Instruction.t -> unit;
  take : Pipe.t -> int -> Instruction.t -> int -> unit;
  arrive : Pipe.t -> int -> unit;
  release : int -> unit;
}

type outcome = {
  stuck : string option;
  leftover : (Pipe.t * Pipe.t * int * int) list;
}

type state = {
  sync : Program.sync;
  head : int array;
      (* pipe [p]'s queue head: the first instruction at or after it in
         program order that is on [p] or a barrier, [sync.length] once
         drained *)
  held : bool array;  (* pipe waits at the pending barrier *)
  mutable arrived : int;
  mutable released : int;  (* barriers released, the pending one's id *)
}

let pipes = Array.of_list Pipe.all

(* the PSQ: pipe [p]'s queue is its instructions and every barrier, in
   program order; its next entry from index [i] on *)
let rec seek (s : Program.sync) p i =
  if i = s.length then i
  else
    let l = s.lane.(i) in
    if l = p || l = Program.every_lane then i else seek s p (i + 1)

let advance d p = d.head.(p) <- seek d.sync p (d.head.(p) + 1)

(* instruction [i] has issued once its pipe's head is past it *)
let issued d i = d.head.(d.sync.Program.lane.(i)) > i

(* Issue the head of a pipe if possible.  Returns true on progress. *)
let try_advance h d p =
  let e = d.head.(p) in
  let s = d.sync in
  if d.held.(p) || e = s.Program.length then false
  else if s.Program.lane.(e) = Program.every_lane then begin
    advance d p;
    d.held.(p) <- true;
    d.arrived <- d.arrived + 1;
    h.arrive pipes.(p) d.released;
    true
  end
  else
    match s.Program.instrs.(e) with
    | Instruction.Wait_flag _ as w ->
      let set = s.Program.set_of.(e) in
      if set < 0 || not (issued d set) then false
      else begin
        advance d p;
        h.take pipes.(p) e w set;
        true
      end
    | instr ->
      advance d p;
      h.issue pipes.(p) e instr;
      true

(* a pipe that could reach a barrier would have, so one stuck at a
   barrier is held at the pending one and faces the next *)
let describe_stuck d =
  let s = d.sync in
  let parts = ref [] in
  for p = 0 to Pipe.count - 1 do
    let e = d.head.(p) in
    if e < s.Program.length then
      let head =
        if s.Program.lane.(e) = Program.every_lane then
          Printf.sprintf "barrier %d" (d.released + 1)
        else Format.asprintf "#%d %a" e Instruction.pp s.Program.instrs.(e)
      in
      parts :=
        Printf.sprintf "%s stuck at %s" (Pipe.name pipes.(p)) head :: !parts
  done;
  String.concat "; " (List.rev !parts)

let drained d =
  let rec from p =
    p = Pipe.count || (d.head.(p) = d.sync.Program.length && from (p + 1))
  in
  from 0

(* per triple, the sets that issued minus the waits that did; a
   triple's sets share one pipe, and so do its waits, so those that
   issued lead them *)
let leftover d =
  let s = d.sync in
  let acc = ref [] in
  for j = Array.length s.Program.used - 1 downto 0 do
    let sets = ref 0 and waits = ref 0 in
    while !sets < Program.sets s j && issued d (Program.set s j !sets) do
      incr sets
    done;
    while !waits < Program.waits s j && issued d (Program.wait s j !waits) do
      incr waits
    done;
    if !sets > !waits then
      let f, to_, flag = Program.triple s.Program.used.(j) in
      acc := (f, to_, flag, !sets - !waits) :: !acc
  done;
  !acc

let run h s =
  let d =
    {
      sync = s;
      head = Array.init Pipe.count (fun p -> seek s p 0);
      held = Array.make Pipe.count false;
      arrived = 0;
      released = 0;
    }
  in
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
      h.release d.released;
      d.released <- d.released + 1;
      progress := true
    end;
    if d.arrived = 0 && drained d then None
    else if !progress then loop ()
    else Some (describe_stuck d)
  in
  let stuck = loop () in
  { stuck; leftover = leftover d }
