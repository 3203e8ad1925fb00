(** Happens-before graphs: one Kahn pass behind the program, SoC and
    cluster verifiers.

    The graph lives in int arrays: one flat clock array, successors in
    one array with per-node offsets, and the topological order, which is
    also Kahn's FIFO queue.  A node's successors keep the order the
    edges were added in, reversed (lane edges first, then the front
    end's), so the topological order, and with it every scan's discovery
    order, does not depend on the representation. *)

open Ascend_isa
module Scratch = Ascend_util.Scratch

type 'a t = {
  nodes : 'a array;
  lanes : int;
  lane : int array;      (** node's lane; negative for none or every lane *)
  seq : int array;       (** position within the node's lane; -1 without one *)
  topo : int array;      (** topological order of executable nodes *)
  vc : int array;
      (** vc.(node * lanes + lane) — valid for executable nodes; a
          per-domain buffer the next graph built there reuses *)
  stuck : bool array;    (** node can never execute under any interleaving *)
  findings : Finding.t list;
}

(* the lane of a barrier, which joins and restarts every lane *)
let every_lane = -2

(* The clock array and the construction temporaries, reused per domain.
   As a fresh block per build, the clock array alone raised a serial
   `lint --all`'s peak RSS from 381 to 468 MiB on a 2-vCPU host.  Each
   user initialises the prefix it uses. *)
let vc_buf = Scratch.create 0
let indeg_buf = Scratch.create 0
let first_buf = Scratch.create 0
let succ_buf = Scratch.create 0
let flag_succ_buf = Scratch.create 0
let unsat_buf = Scratch.create false

(* The pass.  [lane.(i)] is node [i]'s lane in [0, lanes), -1 for none
   or [every_lane]; each lane is chained in listing order.  [edges f]
   calls [f a b] for every front-end edge [a -> b], the same edges in the
   same order each time: the pass calls it twice, once to count and once
   to fill.  A [pinned] node keeps a phantom in-degree, so the pass never
   reaches it, and every node left unprocessed is transitively stuck.
   [vc.(b * lanes + l)] ends as the highest lane-[l] sequence number that
   happens before (or at) node [b]. *)
let kahn ?pinned ~lanes ~lane nodes edges =
  let n = Array.length nodes in
  let seq = Array.make n (-1) in
  let next_seq = Array.make lanes 0 in
  for i = 0 to n - 1 do
    let l = lane.(i) in
    if l >= 0 then begin
      seq.(i) <- next_seq.(l);
      next_seq.(l) <- next_seq.(l) + 1
    end
  done;
  (* every edge, in the order the graph adds them: listing order within
     each lane (a barrier is on every lane), then the front end's *)
  let iter_edges f =
    let last_in_lane = Array.make lanes (-1) in
    let chain l i =
      if last_in_lane.(l) >= 0 then f last_in_lane.(l) i;
      last_in_lane.(l) <- i
    in
    for i = 0 to n - 1 do
      if lane.(i) >= 0 then chain lane.(i) i
      else if lane.(i) = every_lane then
        for l = 0 to lanes - 1 do
          chain l i
        done
    done;
    edges f
  in
  (* successors of [a]: succ.(first.(a)) .. succ.(first.(a + 1) - 1), the
     latest-added edge first *)
  let indeg = Scratch.get indeg_buf n in
  (match pinned with
  | Some pinned ->
    for i = 0 to n - 1 do
      indeg.(i) <- (if pinned.(i) then 1 else 0)
    done
  | None -> Array.fill indeg 0 n 0);
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
  let vc = Scratch.get vc_buf (n * lanes) in
  Array.fill vc 0 (n * lanes) (-1);
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
    let vi = i * lanes in
    if lane.(i) >= 0 && seq.(i) > vc.(vi + lane.(i)) then
      vc.(vi + lane.(i)) <- seq.(i);
    for e = first.(i) to first.(i + 1) - 1 do
      let j = succ.(e) in
      let vj = j * lanes in
      for l = 0 to lanes - 1 do
        if vc.(vi + l) > vc.(vj + l) then vc.(vj + l) <- vc.(vi + l)
      done;
      indeg.(j) <- indeg.(j) - 1;
      if indeg.(j) = 0 then begin
        order.(!tail) <- j;
        incr tail
      end
    done
  done;
  {
    nodes;
    lanes;
    lane;
    seq;
    topo = (if !tail = n then order else Array.sub order 0 !tail);
    vc;
    stuck;
    findings = [];
  }

let build instrs_list =
  let instrs = Array.of_list instrs_list in
  let n = Array.length instrs in
  let lane = Array.make n (-1) in
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
      match instr with
      | Instruction.Barrier -> lane.(i) <- every_lane
      | _ -> (
        match Instruction.pipe_of instr with
        | Some p -> lane.(i) <- Pipe.index p
        | None -> (* an illegal move, reported structurally elsewhere *) ()))
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
  let g =
    kahn ~pinned:unsat ~lanes:Pipe.count ~lane instrs (fun f ->
        for s = 0 to n - 1 do
          if flag_succ.(s) >= 0 then f s flag_succ.(s)
        done)
  in
  (* every unprocessed node not explained by an unsatisfiable-ordinal wait
     is stuck behind one, or part of a cross-pipe wait cycle *)
  let unexplained =
    let rec first_wait i =
      if i >= n then None
      else if
        g.stuck.(i)
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
    if Array.length g.topo < n && !findings = [] then
      (* cycle with no wait? cannot happen (program-order edges are
         acyclic), but stay sound *)
      findings :=
        Finding.make Finding.Deadlock
          "happens-before graph contains a cycle" :: !findings);
  { g with findings = List.rev !findings }

let of_deps ?(lanes = 0) ?lane ~id ~deps ~missing ~cycle nodes_list =
  let nodes = Array.of_list nodes_list in
  let n = Array.length nodes in
  let pos = Hashtbl.create (2 * n) in
  Array.iteri (fun i x -> Hashtbl.replace pos (id x) i) nodes;
  let lane =
    match lane with
    | Some lane -> Array.map lane nodes
    | None -> Array.make n (-1)
  in
  let g =
    kahn ~lanes ~lane nodes (fun f ->
        Array.iteri
          (fun i x ->
            List.iter
              (fun d ->
                match Hashtbl.find_opt pos d with
                | Some j when j <> i -> f j i
                | _ -> ())
              (deps x))
          nodes)
  in
  let missing =
    List.concat_map
      (fun x ->
        List.filter_map
          (fun d -> if Hashtbl.mem pos d then None else Some (missing x d))
          (deps x))
      nodes_list
  in
  let stuck = List.filteri (fun i _ -> g.stuck.(i)) nodes_list in
  let cycle = if stuck = [] then [] else [ cycle stuck ] in
  { g with findings = missing @ cycle }

(* [a] happens-before-or-equals [b]; both must be executable nodes with a
   lane (the race scans only query those). *)
let hb t a b =
  a = b || t.lane.(a) >= 0 && t.seq.(a) <= t.vc.((b * t.lanes) + t.lane.(a))
