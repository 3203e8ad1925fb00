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

(* The clock array and the construction temporaries, reused per domain.
   As a fresh block per build, the clock array alone raised a serial
   `lint --all`'s peak RSS from 381 to 468 MiB on a 2-vCPU host.  Each
   user initialises the prefix it uses. *)
let vc_buf = Scratch.create 0
let indeg_buf = Scratch.create 0
let first_buf = Scratch.create 0
let succ_buf = Scratch.create 0
let unsat_buf = Scratch.create false

(* The pass.  [lane.(i)] is node [i]'s lane in [0, lanes), -1 for none
   or [Program.every_lane] for a barrier; each lane is chained in
   listing order.  [edges f] calls [f a b] for every front-end edge
   [a -> b], the same edges in the same order each time: the pass calls
   it twice, once to count and once to fill.  A [pinned] node keeps a
   phantom in-degree, so the pass never reaches it, and every node left
   unprocessed is transitively stuck.
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
      else if lane.(i) = Program.every_lane then
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

let build (s : Program.sync) =
  let n = s.length in
  let instrs = Array.sub s.instrs 0 n in
  (* waits past their triple's set count can never be satisfied *)
  let unsat = Scratch.get unsat_buf n in
  Array.fill unsat 0 n false;
  let findings = ref [] in
  for j = 0 to Array.length s.used - 1 do
    let sets = Program.sets s j in
    for k = sets to Program.waits s j - 1 do
      let w = Program.wait s j k in
      let f, p, flag = Program.triple s.used.(j) in
      unsat.(w) <- true;
      findings :=
        Finding.make ~index:w ~pipe:p Finding.Deadlock
          (Printf.sprintf
             "wait #%d on flag %s->%s #%d is unsatisfiable: it is wait %d of \
              this triple but the program only sets it %d time(s)"
             w (Pipe.name f) (Pipe.name p) flag (k + 1) sets)
        :: !findings
    done
  done;
  (* flag edges: the k-th set of a triple -> its k-th wait.  A set has
     at most one, so their order fixes no node's successor order. *)
  let g =
    kahn ~pinned:unsat ~lanes:Pipe.count ~lane:s.lane instrs (fun f ->
        for j = 0 to Array.length s.used - 1 do
          for k = 0 to Int.min (Program.sets s j) (Program.waits s j) - 1 do
            f (Program.set s j k) (Program.wait s j k)
          done
        done)
  in
  (* report the first stuck wait that is not pinned: it sits on a
     cross-pipe wait cycle or behind one.  A stall with no pinned wait
     has a cycle, and as program-order edges run forward, the cycle
     enters a wait through a flag edge, so no stall goes unreported *)
  let rec cycle i =
    if i < n then
      match instrs.(i) with
      | Instruction.Wait_flag { to_pipe; _ } when g.stuck.(i) && not unsat.(i)
        ->
        findings :=
          Finding.make ~index:i ~pipe:to_pipe Finding.Deadlock
            (Printf.sprintf
               "wait #%d can never be reached: it sits on a cross-pipe wait \
                cycle (or behind one) — no interleaving satisfies it" i)
          :: !findings
      | _ -> cycle (i + 1)
  in
  cycle 0;
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
