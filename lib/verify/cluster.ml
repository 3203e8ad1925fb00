(** Static verifier for cluster-level collective schedules and fleet
    placement plans.

    PR 1 verified single-core programs, PR 5 the multi-core SoC
    schedule; this module is the third rung of the ladder — the
    cluster.  A collective schedule is the explicit expansion of an
    all-reduce algorithm into per-chip send/recv steps over concrete
    links (HCCS edges inside a server, the PCI-E group bus, NIC links
    on the fat tree).  The checks:

    - {b unmatched transfers}: every send in a step must have the
      mirroring recv in the same step (rendezvous rounds) — same link,
      byte count, chunk range and reduce/copy mode;
    - {b deadlock}: the step dependency graph must be acyclic and
      closed (no dependency on a missing step), which [Hb]'s Kahn pass
      decides with no lanes;
    - {b link overcommit}: within one step, the bandwidth claims of all
      transfers sharing a link must not exceed its capacity;
    - {b races}: two steps that no dependency path orders must not
      touch one (chip, chunk) cell when either writes it (a send reads
      the sender's cell and writes the receiver's), or the result
      depends on which runs first;
    - {b reduction completeness}: simulating chunk-contribution flow
      over the schedule, steps in that pass's topological order, every
      chip's contribution to every chunk must reach every chip — the
      all-reduce correctness invariant.  With no race, every
      topological order gives the same result.

    The schedule representation is deliberately neutral — plain ints,
    strings and floats — so this library needs no dependency on
    [lib/cluster]; [Ascend_cluster.Collective_schedule] builds
    schedules from real topologies, and tests build mutated ones by
    hand.  [schedule_seconds] prices a schedule (max over chips of its
    summed step times), which the CLI's differential gate compares
    against the closed-form [Collective.*_seconds].

    The same module lints fleet placement plans: per-node resident
    weights against HBM capacity (steady state under the routing
    policy — an unservable plan is an error) and statically predicted
    cold-start page-in counts, which CI cross-checks against what
    [Fleet.run] actually observes. *)

(* ------------------------------------------------------------------ *)
(* Collective schedules *)

type link = { link_id : string; capacity_bytes_per_s : float }

type op_kind = Send | Recv

type op = {
  chip : int;           (* the chip executing this op *)
  op_kind : op_kind;
  peer : int;           (* the chip on the other end *)
  link : string;        (* link carrying the transfer (sender's name) *)
  op_bytes : float;
  claim_bytes_per_s : float;
      (* bandwidth claimed on [link] while the op runs; transfer time =
         op_bytes / claim.  Concurrent transfers sharing a bus each
         claim a fraction — the overcommit check sums the claims. *)
  chunk_lo : int;       (* half-open chunk range [chunk_lo, chunk_hi) *)
  chunk_hi : int;
  reduce : bool;        (* receiver reduces into its partial (true) or
                           replaces it with the sender's copy (false) *)
}

type step = {
  step_id : int;
  deps : int list;      (* step_ids that must complete first *)
  latency_s : float;    (* per-step link latency, paid once per chip *)
  ops : op list;
}

type schedule = {
  sched_name : string;
  chips : int;
  chunks : int;         (* the reduced buffer is split in [chunks] *)
  links : link list;
  steps : step list;
}

(* ------------------------------------------------------------------ *)
(* Structural sanity: everything else assumes these hold. *)

let structural_findings (s : schedule) =
  let findings = ref [] in
  let bad step fmt =
    Printf.ksprintf
      (fun m ->
        findings := Finding.make ~index:step Finding.Malformed m :: !findings)
      fmt
  in
  if s.chips <= 0 then bad 0 "schedule %s has %d chips" s.sched_name s.chips;
  if s.chunks <= 0 then bad 0 "schedule %s has %d chunks" s.sched_name s.chunks;
  let caps = Hashtbl.create 16 in
  List.iter
    (fun l ->
      if Hashtbl.mem caps l.link_id then
        bad 0 "duplicate link %s" l.link_id
      else Hashtbl.replace caps l.link_id l.capacity_bytes_per_s;
      if l.capacity_bytes_per_s <= 0. then
        bad 0 "link %s has non-positive capacity %g" l.link_id
          l.capacity_bytes_per_s)
    s.links;
  let seen_steps = Hashtbl.create 64 in
  List.iter
    (fun st ->
      if Hashtbl.mem seen_steps st.step_id then
        bad st.step_id "duplicate step id %d" st.step_id;
      Hashtbl.replace seen_steps st.step_id ();
      if st.latency_s < 0. then
        bad st.step_id "step %d has negative latency" st.step_id;
      List.iter
        (fun (o : op) ->
          let id = st.step_id in
          if o.chip < 0 || o.chip >= s.chips then
            bad id "step %d: chip %d out of range [0,%d)" id o.chip s.chips;
          if o.peer < 0 || o.peer >= s.chips then
            bad id "step %d: peer %d out of range [0,%d)" id o.peer s.chips;
          if o.chip = o.peer && s.chips > 0 then
            bad id "step %d: chip %d transfers to itself" id o.chip;
          if o.op_bytes < 0. then
            bad id "step %d: negative bytes on chip %d" id o.chip;
          if o.claim_bytes_per_s <= 0. then
            bad id "step %d: chip %d claims non-positive bandwidth" id o.chip;
          if o.chunk_lo < 0 || o.chunk_hi > s.chunks || o.chunk_lo >= o.chunk_hi
          then
            bad id "step %d: chip %d has bad chunk range [%d,%d) of %d" id
              o.chip o.chunk_lo o.chunk_hi s.chunks;
          if not (Hashtbl.mem caps o.link) then
            bad id "step %d: chip %d uses undeclared link %s" id o.chip o.link)
        st.ops)
    s.steps;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Send/recv matching: steps are rendezvous rounds, so a transfer is a
   send and its mirror recv in the same step agreeing on (src, dst,
   link, bytes, chunk range, reduce mode).  Bag semantics: identical
   pairs may repeat; every send must consume one recv. *)

type transfer_key = {
  k_src : int;
  k_dst : int;
  k_link : string;
  k_bits : int64;  (* byte count, compared exactly *)
  k_lo : int;
  k_hi : int;
  k_red : bool;
}

let key_of_op (o : op) =
  let src, dst = match o.op_kind with Send -> (o.chip, o.peer) | Recv -> (o.peer, o.chip) in
  { k_src = src; k_dst = dst; k_link = o.link;
    k_bits = Int64.bits_of_float o.op_bytes;
    k_lo = o.chunk_lo; k_hi = o.chunk_hi; k_red = o.reduce }

let match_findings (s : schedule) =
  let findings = ref [] in
  List.iter
    (fun st ->
      let bag : (transfer_key, int) Hashtbl.t = Hashtbl.create 64 in
      let bump k d =
        let c = match Hashtbl.find_opt bag k with Some c -> c | None -> 0 in
        Hashtbl.replace bag k (c + d)
      in
      List.iter
        (fun o ->
          let k = key_of_op o in
          bump k (match o.op_kind with Send -> 1 | Recv -> -1))
        st.ops;
      (* report in a deterministic order: sort leftover keys *)
      let leftovers =
        Hashtbl.fold (fun k c acc -> if c <> 0 then (k, c) :: acc else acc)
          bag []
        |> List.sort compare
      in
      List.iter
        (fun (k, c) ->
          let side, n = if c > 0 then ("send", c) else ("recv", -c) in
          let other = if c > 0 then "recv" else "send" in
          findings :=
            Finding.make ~index:st.step_id Finding.Coll_unmatched
              (Printf.sprintf
                 "step %d: %d %s(s) %d->%d on %s (%g B, chunks [%d,%d), %s) \
                  with no matching %s — the transfer can never complete"
                 st.step_id n side k.k_src k.k_dst k.k_link
                 (Int64.float_of_bits k.k_bits) k.k_lo k.k_hi
                 (if k.k_red then "reduce" else "copy")
                 other)
            :: !findings)
        leftovers)
    s.steps;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Link overcommit: within a step all transfers run concurrently, so
   the claims on one link must sum to at most its capacity.  Claims are
   accounted on the send side (the recv mirrors the same transfer). *)

let overcommit_findings (s : schedule) =
  let caps = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace caps l.link_id l.capacity_bytes_per_s)
    s.links;
  let findings = ref [] in
  List.iter
    (fun st ->
      let claimed = Hashtbl.create 16 in
      List.iter
        (fun (o : op) ->
          if o.op_kind = Send then
            let c =
              match Hashtbl.find_opt claimed o.link with
              | Some (c, n) -> (c +. o.claim_bytes_per_s, n + 1)
              | None -> (o.claim_bytes_per_s, 1)
            in
            Hashtbl.replace claimed o.link c)
        st.ops;
      let over =
        Hashtbl.fold
          (fun l (c, n) acc ->
            match Hashtbl.find_opt caps l with
            | Some cap when c > cap *. (1. +. 1e-9) -> (l, c, n, cap) :: acc
            | _ -> acc)
          claimed []
        |> List.sort compare
      in
      List.iter
        (fun (l, c, n, cap) ->
          findings :=
            Finding.make ~index:st.step_id
              (Finding.Coll_overcommit { resource = "link" })
              (Printf.sprintf
                 "step %d: %d transfer(s) claim %g B/s on link %s, exceeding \
                  its %g B/s capacity"
                 st.step_id n c l cap)
            :: !findings)
        over)
    s.steps;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Reduction completeness.  Track, per (chip, chunk), the set of chips
   whose contribution is folded into that chip's current partial value
   — a bitset.  A reduce transfer unions the sender's pre-step set into
   the receiver's; a copy transfer replaces it.  Transfers within one
   step all read pre-step state (rendezvous semantics).  After the last
   step every set must be full, else the all-reduce is wrong. *)

let bs_create chips = Bytes.make ((chips + 7) / 8) '\000'

let bs_set b i =
  let j = i lsr 3 in
  Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lor (1 lsl (i land 7))))

let bs_mem b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bs_union ~into src =
  for j = 0 to Bytes.length into - 1 do
    Bytes.set into j
      (Char.chr (Char.code (Bytes.get into j) lor Char.code (Bytes.get src j)))
  done

(* steps run in the dependency graph's topological order; the caller
   guarantees the graph is acyclic and closed and has no race, so any
   other order gives the same result *)
let completeness_findings (s : schedule) (g : step Hb.t) =
  let know = Array.init s.chips (fun _ -> Array.init s.chunks (fun _ -> bs_create s.chips)) in
  for c = 0 to s.chips - 1 do
    for k = 0 to s.chunks - 1 do
      bs_set know.(c).(k) c
    done
  done;
  Array.iter
    (fun i ->
      let st = g.nodes.(i) in
      (* phase 1: snapshot each transfer's source contribution set *)
      let moves =
        List.filter_map
          (fun (o : op) ->
            match o.op_kind with
            | Recv -> None
            | Send ->
              let snap =
                Array.init (o.chunk_hi - o.chunk_lo) (fun d ->
                    Bytes.copy know.(o.chip).(o.chunk_lo + d))
              in
              Some (o, snap))
          st.ops
      in
      (* phase 2: apply *)
      List.iter
        (fun ((o : op), snap) ->
          for d = 0 to o.chunk_hi - o.chunk_lo - 1 do
            let k = o.chunk_lo + d in
            if o.reduce then bs_union ~into:know.(o.peer).(k) snap.(d)
            else know.(o.peer).(k) <- Bytes.copy snap.(d)
          done)
        moves)
    g.topo;
  let full = bs_create s.chips in
  for c = 0 to s.chips - 1 do
    bs_set full c
  done;
  let missing = ref 0 in
  let example = ref None in
  for c = 0 to s.chips - 1 do
    for k = 0 to s.chunks - 1 do
      if not (Bytes.equal know.(c).(k) full) then begin
        incr missing;
        if !example = None then begin
          let src = ref 0 in
          while bs_mem know.(c).(k) !src do incr src done;
          example := Some (c, k, !src)
        end
      end
    done
  done;
  match !example with
  | None -> []
  | Some (c, k, src) ->
    [
      Finding.make Finding.Coll_incomplete
        (Printf.sprintf
           "all-reduce incomplete: %d (chip, chunk) cell(s) miss \
            contributions — e.g. chip %d's chunk %d never receives chip %d's \
            contribution"
           !missing c k src);
    ]

(* ------------------------------------------------------------------ *)
(* Races.  A send reads chunks of its sender's partials and writes the
   receiver's (a recv mirrors it).  Two steps that no dependency path
   orders may run in either order, so a (chip, chunk) cell one writes
   and the other touches is a race.  Each pair is named lower step id
   first, so the findings do not depend on the listing order.  Every
   step is on its own lane of the graph, so [Hb.hb] decides order. *)

(* a step's (reads, writes) as sorted, distinct (chip, chunk) cells *)
let cells (st : step) =
  let r, w =
    List.fold_left
      (fun (r, w) (o : op) ->
        match o.op_kind with
        | Recv -> (r, w)
        | Send ->
          let on chip =
            List.init (o.chunk_hi - o.chunk_lo) (fun d ->
                (chip, o.chunk_lo + d))
          in
          (on o.chip @ r, on o.peer @ w))
      ([], []) st.ops
  in
  (List.sort_uniq compare r, List.sort_uniq compare w)

let race_findings (g : step Hb.t) =
  let n = Array.length g.nodes in
  let touched = Array.map cells g.nodes in
  let findings = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Hb.hb g i j || Hb.hb g j i) then begin
        let i, j =
          if g.nodes.(i).step_id < g.nodes.(j).step_id then (i, j) else (j, i)
        in
        let a = g.nodes.(i) and b = g.nodes.(j) in
        let (ra, wa), (rb, wb) = (touched.(i), touched.(j)) in
        List.iter
          (fun (dep, xs, ys) ->
            match List.filter (fun c -> List.mem c ys) xs with
            | [] -> ()
            | (chip, chunk) :: _ as common ->
              findings :=
                Finding.make ~index:b.step_id (Finding.Coll_race { dep })
                  (Printf.sprintf
                     "%s race between steps %d and %d on %d (chip, chunk) \
                      cell(s), e.g. chip %d's chunk %d: no dependency orders \
                      them"
                     dep a.step_id b.step_id (List.length common) chip chunk)
                :: !findings)
          [ ("RAW", wa, rb); ("WAR", ra, wb); ("WAW", wa, wb) ]
      end
    done
  done;
  List.sort Finding.compare !findings

(* ------------------------------------------------------------------ *)

let analyze (s : schedule) =
  let structural = structural_findings s in
  if structural <> [] then structural
  else
    (* deadlock: a cycle (or an edge to a missing step) means some step
       can never start.  Step ids are distinct here. *)
    let lane = Hashtbl.create (List.length s.steps) in
    List.iteri (fun i st -> Hashtbl.replace lane st.step_id i) s.steps;
    let g =
      Hb.of_deps ~lanes:(List.length s.steps)
        ~lane:(fun st -> Hashtbl.find lane st.step_id)
        ~id:(fun st -> st.step_id)
        ~deps:(fun st -> st.deps)
        ~missing:(fun st d ->
          Finding.make ~index:st.step_id Finding.Coll_deadlock
            (Printf.sprintf
               "step %d depends on step id %d which is not in the schedule"
               st.step_id d))
        ~cycle:(fun stuck ->
          Finding.make Finding.Coll_deadlock
            (Printf.sprintf
               "step dependency graph is cyclic: %d step(s) can never start \
                (%s)"
               (List.length stuck)
               (String.concat ", "
                  (List.map (fun st -> string_of_int st.step_id) stuck))))
        s.steps
    in
    let unmatched = match_findings s in
    let overcommit = overcommit_findings s in
    (* order is only meaningful on a deadlock-free graph *)
    let races = if g.findings = [] then race_findings g else [] in
    (* completeness simulation only makes sense on a schedule whose
       transfers all run, in an order the dependencies fix: gate it on
       the other checks *)
    let incomplete =
      if g.findings = [] && unmatched = [] && races = [] then
        completeness_findings s g
      else []
    in
    g.findings @ unmatched @ overcommit @ races @ incomplete

let schedule_seconds (s : schedule) =
  let time = Array.make (max 1 s.chips) 0. in
  List.iter
    (fun st ->
      let per_chip : (int, float) Hashtbl.t = Hashtbl.create 32 in
      List.iter
        (fun (o : op) ->
          if o.chip >= 0 && o.chip < s.chips && o.claim_bytes_per_s > 0. then begin
            let d = o.op_bytes /. o.claim_bytes_per_s in
            let cur =
              match Hashtbl.find_opt per_chip o.chip with
              | Some c -> c
              | None -> 0.
            in
            if d >= cur then Hashtbl.replace per_chip o.chip d
          end)
        st.ops;
      Hashtbl.iter
        (fun chip d -> time.(chip) <- time.(chip) +. d +. st.latency_s)
        per_chip)
    s.steps;
  Array.fold_left max 0. time

(* ------------------------------------------------------------------ *)
(* Fleet placement plans *)

type placement = {
  plan_name : string;
  nodes : int;
  hbm_bytes_per_node : int option;
  policy : string;  (* "round-robin" | "least-loaded" | "affinity" *)
  models : (string * int * int list) list;
      (* model name, weight bytes, nodes where its weights start
         resident (the replica set) *)
}

let known_policies = [ "round-robin"; "least-loaded"; "affinity" ]

(* the nodes the routing policy can ever send a model to: affinity pins
   requests to the replica set; the load-spreading policies reach every
   node, paging the model in on first touch *)
let reachable_nodes (p : placement) ~replicas =
  if p.policy = "affinity" then List.sort_uniq compare replicas
  else List.init (max 0 p.nodes) (fun i -> i)

let predicted_page_ins (p : placement) =
  let counts = Array.make (max 1 p.nodes) 0 in
  List.iter
    (fun (_, _, replicas) ->
      List.iter
        (fun n ->
          if n >= 0 && n < p.nodes && not (List.mem n replicas) then
            counts.(n) <- counts.(n) + 1)
        (reachable_nodes p ~replicas))
    p.models;
  counts

let lint_placement (p : placement) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  if p.nodes <= 0 then
    add
      (Finding.make Finding.Malformed
         (Printf.sprintf "placement %s has %d nodes" p.plan_name p.nodes));
  if not (List.mem p.policy known_policies) then
    add
      (Finding.make Finding.Malformed
         (Printf.sprintf "placement %s routes with unknown policy %S"
            p.plan_name p.policy));
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, weight, replicas) ->
      if Hashtbl.mem seen name then
        add
          (Finding.make Finding.Malformed
             (Printf.sprintf "model %s appears twice in placement %s" name
                p.plan_name));
      Hashtbl.replace seen name ();
      if weight < 0 then
        add
          (Finding.make Finding.Malformed
             (Printf.sprintf "model %s has negative weight bytes" name));
      if replicas = [] then
        add
          (Finding.make Finding.Malformed
             (Printf.sprintf "model %s is resident nowhere in placement %s"
                name p.plan_name));
      List.iter
        (fun n ->
          if n < 0 || n >= p.nodes then
            add
              (Finding.make Finding.Malformed
                 (Printf.sprintf
                    "model %s replica node %d out of range [0,%d)" name n
                    p.nodes)))
        replicas)
    p.models;
  if !findings = [] then begin
    match p.hbm_bytes_per_node with
    | None -> ()
    | Some cap ->
      for n = 0 to p.nodes - 1 do
        let initial = ref 0 and steady = ref 0 and names = ref [] in
        List.iter
          (fun (name, weight, replicas) ->
            let resident0 = List.mem n replicas in
            let reaches = List.mem n (reachable_nodes p ~replicas) in
            if resident0 then initial := !initial + weight;
            if resident0 || reaches then begin
              steady := !steady + weight;
              names := name :: !names
            end)
          p.models;
        if !steady > cap then
          add
            (Finding.make ~index:n
               (Finding.Coll_overcommit { resource = "HBM" })
               (Printf.sprintf
                  "node %d: %d B of %s-reachable resident weights (%s) exceed \
                   its %d B HBM (%d B resident at start)"
                  n !steady p.policy
                  (String.concat ", " (List.rev !names))
                  cap !initial))
      done
  end;
  List.rev !findings
