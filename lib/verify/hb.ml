(** Happens-before graph over one core program.

    Nodes are instruction indices.  Edges:
    - program order within each pipe's issue queue (the dispatcher
      distributes instructions to per-pipe queues in program order, so
      same-pipe instructions execute in listing order);
    - [Set_flag]/[Wait_flag]: the hardware flag is a counting semaphore
      per (from, to, flag) triple.  All sets of a triple issue from
      [from_pipe] in program order and all waits block [to_pipe] in
      program order, so the k-th wait can proceed exactly when the k-th
      set has executed — giving the precise edge set_k -> wait_k;
    - [Barrier] joins and restarts every pipe.

    A wait whose ordinal is >= the triple's total set count can never be
    satisfied; a cycle through flag edges is a cross-pipe deadlock.  Both
    are detected by Kahn's algorithm: unsatisfiable waits are pinned with
    an extra phantom in-degree, and every node left unprocessed is
    transitively deadlocked.

    Reachability uses per-pipe vector clocks computed along the
    topological order: [vc.(b * Pipe.count + p)] is the highest lane-[p]
    sequence number that happens before (or at) node [b], so [a]
    happens-before [b] iff [seq a <= vc.(b * Pipe.count + lane a)] —
    O(V·pipes) space instead of a quadratic closure.

    The graph lives in int arrays: one flat clock array, successors in
    one array with per-node offsets, and the topological order, which is
    also Kahn's FIFO queue.  A node's successors keep the order the
    edges were added in, reversed (flag edge first, then program order),
    so the topological order, and with it the hazard scan's discovery
    order, does not depend on the representation. *)

open Ascend_isa
module Scratch = Ascend_util.Scratch

type t = {
  instrs : Instruction.t array;
  lane : int array;      (** pipe index of each node; -1 for barriers *)
  seq : int array;       (** position within the node's pipe lane; -1 for barriers *)
  topo : int array;      (** topological order of executable nodes *)
  vc : int array;
      (** vc.(node * Pipe.count + pipe) — valid for executable nodes;
          a per-domain buffer the next [build] there reuses *)
  stuck : bool array;    (** node can never execute under any interleaving *)
  findings : Finding.t list;
}

(* The clock array and the construction temporaries, reused per domain.
   As a fresh block per build, the clock array alone raised a serial
   `lint --all`'s peak RSS from 381 to 468 MiB on a 2-vCPU host.
   [build] initialises the prefix it uses. *)
let vc_buf = Scratch.create 0
let flag_succ_buf = Scratch.create 0
let unsat_buf = Scratch.create false
let indeg_buf = Scratch.create 0
let first_buf = Scratch.create 0
let succ_buf = Scratch.create 0

let build instrs_list =
  let instrs = Array.of_list instrs_list in
  let n = Array.length instrs in
  let lane = Array.make n (-1) in
  let seq = Array.make n (-1) in
  let next_seq = Array.make Pipe.count 0 in
  (* flag instructions per (from, to, flag) triple, newest first *)
  let sets : (Pipe.t * Pipe.t * int, int list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let waits : (Pipe.t * Pipe.t * int, int list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let push tbl key i =
    match Hashtbl.find_opt tbl key with
    | Some r -> r := i :: !r
    | None -> Hashtbl.add tbl key (ref [ i ])
  in
  Array.iteri
    (fun i instr ->
      (match instr with
      | Instruction.Set_flag { from_pipe; to_pipe; flag } ->
        push sets (from_pipe, to_pipe, flag) i
      | Instruction.Wait_flag { from_pipe; to_pipe; flag } ->
        push waits (from_pipe, to_pipe, flag) i
      | _ -> ());
      match Instruction.pipe_of instr with
      | Some p ->
        let pi = Pipe.index p in
        lane.(i) <- pi;
        seq.(i) <- next_seq.(pi);
        next_seq.(pi) <- next_seq.(pi) + 1
      | None ->
        (* a barrier, or an illegal move reported structurally elsewhere *)
        ())
    instrs;
  (* flag edges: the k-th set of a triple -> its k-th wait, pairing the
     two lists in one walk *)
  let flag_succ = Scratch.get flag_succ_buf n in
  Array.fill flag_succ 0 n (-1);
  let unsat = Scratch.get unsat_buf n in
  Array.fill unsat 0 n false;
  let findings = ref [] in
  Hashtbl.iter
    (fun ((f, p, flag) as key) wr ->
      let ss =
        match Hashtbl.find_opt sets key with
        | Some sr -> List.rev !sr
        | None -> []
      in
      let n_sets = List.length ss in
      let rec pair k ss = function
        | [] -> ()
        | w :: ws -> (
          match ss with
          | s :: ss ->
            flag_succ.(s) <- w;
            pair (k + 1) ss ws
          | [] ->
            (* wait ordinal k needs k+1 sets; only n_sets exist *)
            unsat.(w) <- true;
            findings :=
              Finding.make ~index:w ~pipe:p Finding.Deadlock
                (Printf.sprintf
                   "wait #%d on flag %s->%s #%d is unsatisfiable: it is wait \
                    %d of this triple but the program only sets it %d time(s)"
                   w (Pipe.name f) (Pipe.name p) flag (k + 1) n_sets)
              :: !findings;
            pair (k + 1) [] ws)
      in
      pair 0 ss (List.rev !wr))
    waits;
  (* every edge, in the order the graph adds them: program order within
     each pipe lane (a barrier is on every lane), then flag edges *)
  let iter_edges f =
    let last_in_lane = Array.make Pipe.count (-1) in
    let chain p i =
      if last_in_lane.(p) >= 0 then f last_in_lane.(p) i;
      last_in_lane.(p) <- i
    in
    Array.iteri
      (fun i instr ->
        match instr with
        | Instruction.Barrier ->
          for p = 0 to Pipe.count - 1 do
            chain p i
          done
        | _ -> if lane.(i) >= 0 then chain lane.(i) i)
      instrs;
    for s = 0 to n - 1 do
      if flag_succ.(s) >= 0 then f s flag_succ.(s)
    done
  in
  (* successors of [a]: succ.(first.(a)) .. succ.(first.(a + 1) - 1), the
     latest-added edge first; unsatisfiable waits keep a phantom
     in-degree so that Kahn's pass never reaches them *)
  let indeg = Scratch.get indeg_buf n in
  for i = 0 to n - 1 do
    indeg.(i) <- (if unsat.(i) then 1 else 0)
  done;
  let first = Scratch.get first_buf (n + 1) in
  Array.fill first 0 (n + 1) 0;
  iter_edges (fun a b ->
      first.(a) <- first.(a) + 1;
      indeg.(b) <- indeg.(b) + 1);
  for a = 1 to n do
    first.(a) <- first.(a) + first.(a - 1)
  done;
  let succ = Scratch.get succ_buf first.(n) in
  iter_edges (fun a b ->
      first.(a) <- first.(a) - 1;
      succ.(first.(a)) <- b);
  (* Kahn topological pass with vector-clock propagation; [order] is the
     FIFO queue, and the topological order once drained *)
  let vc = Scratch.get vc_buf (n * Pipe.count) in
  Array.fill vc 0 (n * Pipe.count) (-1);
  let order = Array.make n 0 in
  let tail = ref 0 in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  let stuck = Array.make n true in
  let next = ref 0 in
  while !next < !tail do
    let i = order.(!next) in
    incr next;
    stuck.(i) <- false;
    let vi = i * Pipe.count in
    if lane.(i) >= 0 && seq.(i) > vc.(vi + lane.(i)) then
      vc.(vi + lane.(i)) <- seq.(i);
    for e = first.(i) to first.(i + 1) - 1 do
      let j = succ.(e) in
      let vj = j * Pipe.count in
      for p = 0 to Pipe.count - 1 do
        if vc.(vi + p) > vc.(vj + p) then vc.(vj + p) <- vc.(vi + p)
      done;
      indeg.(j) <- indeg.(j) - 1;
      if indeg.(j) = 0 then begin
        order.(!tail) <- j;
        incr tail
      end
    done
  done;
  let n_processed = !tail in
  (* every unprocessed node not explained by an unsatisfiable-ordinal wait
     is stuck behind one, or part of a cross-pipe wait cycle *)
  let unexplained =
    let rec first_wait i =
      if i >= n then None
      else if
        stuck.(i)
        && (not unsat.(i))
        && match instrs.(i) with Instruction.Wait_flag _ -> true | _ -> false
      then Some i
      else first_wait (i + 1)
    in
    first_wait 0
  in
  (match unexplained with
  | Some i ->
    (* does a flag edge from a stuck node target this wait? then it is on
       (or behind) a genuine cross-pipe cycle rather than queued after an
       unsatisfiable wait *)
    let pipe =
      match instrs.(i) with
      | Instruction.Wait_flag { to_pipe; _ } -> Some to_pipe
      | _ -> None
    in
    findings :=
      Finding.make ~index:i ?pipe Finding.Deadlock
        (Printf.sprintf
           "wait #%d can never be reached: it sits on a cross-pipe wait \
            cycle (or behind one) — no interleaving satisfies it" i)
      :: !findings
  | None ->
    (* [findings] holds only unsatisfiable waits so far *)
    if n_processed < n && !findings = [] then
      (* cycle with no wait? cannot happen (program-order edges are
         acyclic), but stay sound *)
      findings :=
        Finding.make Finding.Deadlock
          "happens-before graph contains a cycle" :: !findings);
  {
    instrs;
    lane;
    seq;
    topo = (if n_processed = n then order else Array.sub order 0 n_processed);
    vc;
    stuck;
    findings = List.rev !findings;
  }

let deadlock_free t = t.findings = []

(* [a] happens-before-or-equals [b]; both must be executable pipe-mapped
   nodes (the hazard scan only queries those). *)
let hb t a b =
  a = b
  || t.lane.(a) >= 0 && t.seq.(a) <= t.vc.((b * Pipe.count) + t.lane.(a))
