(** Expand the closed-form all-reduce algorithms into explicit per-chip
    step schedules over concrete links, in the neutral IR of
    [Ascend_verify.Cluster].

    Each builder is the constructive counterpart of a
    [Collective.*_seconds] formula: the schedule's derived time
    ([Verify.Cluster.schedule_seconds] — max over chips of summed step
    times) equals the closed form, which is exactly what the
    [lint --cluster] differential gate checks.  By construction the
    schedules are matched, acyclic, capacity-respecting and complete —
    which is what [Verify.Cluster.analyze] verifies, and what the
    mutation tests falsify.

    Concurrent transfers sharing a physical bus (the PCI-E group bus,
    a server's NIC) each claim an equal fraction of its capacity, so a
    transfer's time is [bytes / claim] and the per-(step, link) claims
    sum to at most the capacity. *)

module V = Ascend_verify.Cluster

let default_latency_s = 5e-6

(* ------------------------------------------------------------------ *)
(* Assembly helpers: builders emit (send, recv) op pairs into numbered
   steps; links are declared once and listed sorted for determinism. *)

type builder = {
  mutable links : (string * float) list;
  link_seen : (string, unit) Hashtbl.t;
  mutable rev_steps : V.step list;  (* accumulated in reverse *)
  mutable next_step : int;
}

let builder () =
  { links = []; link_seen = Hashtbl.create 64; rev_steps = []; next_step = 0 }

let declare_link b id capacity =
  if not (Hashtbl.mem b.link_seen id) then begin
    Hashtbl.replace b.link_seen id ();
    b.links <- (id, capacity) :: b.links
  end

let transfer ~src ~dst ~link ~bytes ~claim ~lo ~hi ~reduce =
  [
    { V.chip = src; op_kind = V.Send; peer = dst; link; op_bytes = bytes;
      claim_bytes_per_s = claim; chunk_lo = lo; chunk_hi = hi; reduce };
    { V.chip = dst; op_kind = V.Recv; peer = src; link; op_bytes = bytes;
      claim_bytes_per_s = claim; chunk_lo = lo; chunk_hi = hi; reduce };
  ]

(* append a step depending on its predecessor; [fill] pushes transfers *)
let step b ~latency_s fill =
  let ops = ref [] in
  fill (fun tr -> ops := tr :: !ops);
  let id = b.next_step in
  b.next_step <- id + 1;
  b.rev_steps <-
    { V.step_id = id; deps = (if id = 0 then [] else [ id - 1 ]);
      latency_s; ops = List.concat (List.rev !ops) }
    :: b.rev_steps

let finish b ~name ~chips ~chunks =
  {
    V.sched_name = name;
    chips;
    chunks = max 1 chunks;
    links =
      List.sort compare b.links
      |> List.map (fun (link_id, capacity_bytes_per_s) ->
             { V.link_id; capacity_bytes_per_s });
    steps = List.rev b.rev_steps;
  }

(* ------------------------------------------------------------------ *)
(* Ring reduce-scatter / all-gather over [n] abstract positions.
   Abstract chunk [c] covers global chunks [chunk_base + c*width,
   chunk_base + (c+1)*width); every transfer moves one abstract chunk
   of [chunk_bytes].  [chip_of] and [link_of] map positions onto real
   chips and links — the flat ring uses the identity, the hierarchical
   phases map group positions or server indices. *)

type ring_ctx = {
  n : int;
  chip_of : int -> int;
  link_of : src:int -> dst:int -> string;
  claim : float;
  chunk_base : int;
  width : int;
  chunk_bytes : float;
}

let ring_transfer c ~src ~dst ~chunk ~reduce =
  transfer ~src:(c.chip_of src) ~dst:(c.chip_of dst)
    ~link:(c.link_of ~src ~dst) ~bytes:c.chunk_bytes ~claim:c.claim
    ~lo:(c.chunk_base + (chunk * c.width))
    ~hi:(c.chunk_base + ((chunk + 1) * c.width))
    ~reduce

(* reduce-scatter step [k] of [n-1]: position i passes chunk (i-k) mod n
   along the ring, reducing; afterwards position i owns chunk (i+1) mod n *)
let ring_rs_step c ~k emit =
  for i = 0 to c.n - 1 do
    let chunk = (((i - k) mod c.n) + c.n) mod c.n in
    emit (ring_transfer c ~src:i ~dst:((i + 1) mod c.n) ~chunk ~reduce:true)
  done

(* all-gather step [k] of [n-1]: position i passes chunk (i+1-k) mod n
   along, copying — starting from owning chunk (i+1) mod n *)
let ring_ag_step c ~k emit =
  for i = 0 to c.n - 1 do
    let chunk = (((i + 1 - k) mod c.n) + c.n) mod c.n in
    emit (ring_transfer c ~src:i ~dst:((i + 1) mod c.n) ~chunk ~reduce:false)
  done

let ring_declare_links b c ~capacity =
  if c.n > 1 then
    for i = 0 to c.n - 1 do
      declare_link b (c.link_of ~src:i ~dst:((i + 1) mod c.n)) capacity
    done

(* ------------------------------------------------------------------ *)
(* Recursive halving/doubling over [n] abstract positions: pairwise
   exchanges at distances p/2, p/4, ..., 1 over the largest power of
   two p <= n; the n-p extras fold their whole buffer into a base
   first and get the result back last.  [width] chunks per abstract
   hd chunk, p abstract chunks, [bytes_total] for the whole range. *)

type hd_ctx = {
  hn : int;
  hchip_of : int -> int;
  hlink_of : src:int -> dst:int -> string;
  hclaim : float;
  hchunk_base : int;
  hwidth : int;
  bytes_total : float;
}

let hd_plan c =
  let p = Collective.pow2_floor c.hn in
  let l = Collective.floor_log2 p in
  (p, c.hn - p, l)

(* the half of the buffer position i holds after exchange level k:
   abstract chunks [top_k(i)*d, (top_k(i)+1)*d) with d = p >> k *)
let hd_range ~p ~l ~k i =
  let d = p lsr k in
  let lo = (i lsr (l - k)) * d in
  (lo, lo + d)

let hd_transfer c ~src ~dst ~lo ~hi ~reduce =
  let w = c.hwidth in
  transfer ~src:(c.hchip_of src) ~dst:(c.hchip_of dst)
    ~link:(c.hlink_of ~src ~dst)
    ~bytes:(c.bytes_total *. float_of_int (hi - lo) /. float_of_int (Collective.pow2_floor c.hn))
    ~claim:c.hclaim
    ~lo:(c.hchunk_base + (lo * w))
    ~hi:(c.hchunk_base + (hi * w))
    ~reduce

let hd_fold_step c emit =
  let p, r, _ = hd_plan c in
  for t = 0 to r - 1 do
    emit (hd_transfer c ~src:(p + t) ~dst:t ~lo:0 ~hi:p ~reduce:true)
  done

let hd_unfold_step c emit =
  let p, r, _ = hd_plan c in
  for t = 0 to r - 1 do
    emit (hd_transfer c ~src:t ~dst:(p + t) ~lo:0 ~hi:p ~reduce:false)
  done

(* reduce-scatter level k in 1..l: partners at distance p >> k swap the
   halves they are giving up *)
let hd_rs_step c ~k emit =
  let p, _, l = hd_plan c in
  let d = p lsr k in
  for i = 0 to p - 1 do
    let j = i lxor d in
    if i < j then begin
      let jlo, jhi = hd_range ~p ~l ~k j in
      let ilo, ihi = hd_range ~p ~l ~k i in
      emit (hd_transfer c ~src:i ~dst:j ~lo:jlo ~hi:jhi ~reduce:true);
      emit (hd_transfer c ~src:j ~dst:i ~lo:ilo ~hi:ihi ~reduce:true)
    end
  done

(* all-gather level k in l..1: partners swap the halves they hold *)
let hd_ag_step c ~k emit =
  let p, _, l = hd_plan c in
  let d = p lsr k in
  for i = 0 to p - 1 do
    let j = i lxor d in
    if i < j then begin
      let ilo, ihi = hd_range ~p ~l ~k i in
      let jlo, jhi = hd_range ~p ~l ~k j in
      emit (hd_transfer c ~src:i ~dst:j ~lo:ilo ~hi:ihi ~reduce:false);
      emit (hd_transfer c ~src:j ~dst:i ~lo:jlo ~hi:jhi ~reduce:false)
    end
  done

let hd_declare_links b c ~capacity =
  let p, r, l = hd_plan c in
  for t = 0 to r - 1 do
    declare_link b (c.hlink_of ~src:(p + t) ~dst:t) capacity;
    declare_link b (c.hlink_of ~src:t ~dst:(p + t)) capacity
  done;
  for k = 1 to l do
    let d = p lsr k in
    for i = 0 to p - 1 do
      let j = i lxor d in
      if i < j then begin
        declare_link b (c.hlink_of ~src:i ~dst:j) capacity;
        declare_link b (c.hlink_of ~src:j ~dst:i) capacity
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Flat topologies: n peers on dedicated directional links of the given
   bandwidth — the abstract setting of the closed forms. *)

let check_flat ~bytes ~nodes ~bandwidth =
  if bytes < 0. then invalid_arg "Collective_schedule: negative bytes";
  if nodes <= 0 then invalid_arg "Collective_schedule: no nodes";
  if bandwidth <= 0. then invalid_arg "Collective_schedule: no bandwidth"

let flat_link ~src ~dst = Printf.sprintf "wire:%d->%d" src dst

let ring ~bytes ~nodes ~bandwidth ?(latency_s = default_latency_s) () =
  check_flat ~bytes ~nodes ~bandwidth;
  let b = builder () in
  let name = Printf.sprintf "ring(n=%d)" nodes in
  if nodes = 1 then finish b ~name ~chips:1 ~chunks:1
  else begin
    let c =
      { n = nodes; chip_of = Fun.id; link_of = flat_link; claim = bandwidth;
        chunk_base = 0; width = 1;
        chunk_bytes = bytes /. float_of_int nodes }
    in
    ring_declare_links b c ~capacity:bandwidth;
    for k = 0 to nodes - 2 do
      step b ~latency_s (ring_rs_step c ~k)
    done;
    for k = 0 to nodes - 2 do
      step b ~latency_s (ring_ag_step c ~k)
    done;
    finish b ~name ~chips:nodes ~chunks:nodes
  end

let halving_doubling ~bytes ~nodes ~bandwidth
    ?(latency_s = default_latency_s) () =
  check_flat ~bytes ~nodes ~bandwidth;
  let b = builder () in
  let name = Printf.sprintf "halving-doubling(n=%d)" nodes in
  if nodes = 1 then finish b ~name ~chips:1 ~chunks:1
  else begin
    let c =
      { hn = nodes; hchip_of = Fun.id; hlink_of = flat_link;
        hclaim = bandwidth; hchunk_base = 0; hwidth = 1; bytes_total = bytes }
    in
    let p, r, l = hd_plan c in
    hd_declare_links b c ~capacity:bandwidth;
    if r > 0 then step b ~latency_s (hd_fold_step c);
    for k = 1 to l do
      step b ~latency_s (hd_rs_step c ~k)
    done;
    for k = l downto 1 do
      step b ~latency_s (hd_ag_step c ~k)
    done;
    if r > 0 then step b ~latency_s (hd_unfold_step c);
    finish b ~name ~chips:nodes ~chunks:p
  end

(* ------------------------------------------------------------------ *)
(* Server topologies.  Chips of server r are numbered [r*chips ..
   (r+1)*chips); within a server, group G holds locals [G*g .. G*g+g).
   HCCS links are per chip pair within a group; the inter-group PCI-E
   bus is one shared link per server, so its concurrent transfers each
   claim a g-th of it. *)

let check_server (server : Server.t) =
  if server.Server.groups <> 1 && server.Server.groups <> 2 then
    invalid_arg "Collective_schedule: only 1- or 2-group servers";
  if server.Server.chips <> server.Server.groups * Server.chips_per_group server
  then invalid_arg "Collective_schedule: chips not divisible into groups"

let hccs_link ~server_id ~chip_base ~g ~group ~src ~dst =
  Printf.sprintf "hccs:s%d:%d->%d" server_id
    (chip_base + (group * g) + src)
    (chip_base + (group * g) + dst)

let pcie_link ~server_id = Printf.sprintf "pcie:s%d" server_id

(* the three intra-server phases shared by [intra_server] and
   [hierarchical]: group-ring reduce-scatter, the B->A / A->B shard
   exchanges over the PCI-E bus, group-ring all-gather.  Shards are
   [width] global chunks; after reduce-scatter, local position i of
   every group owns shard (i+1) mod g. *)

let group_ring_ctx (server : Server.t) ~server_id ~chip_base ~group ~bytes
    ~width =
  let g = Server.chips_per_group server in
  {
    n = g;
    chip_of = (fun i -> chip_base + (group * g) + i);
    link_of = (fun ~src ~dst -> hccs_link ~server_id ~chip_base ~g ~group ~src ~dst);
    claim = server.Server.hccs_bytes_per_s;
    chunk_base = 0;
    width;
    chunk_bytes = bytes /. float_of_int g;
  }

let intra_phases b (server : Server.t) ~server_ids ~bytes ~width
    ~chip_base_of ~mid =
  check_server server;
  let g = Server.chips_per_group server in
  let groups = server.Server.groups in
  let ctxs =
    List.concat_map
      (fun sid ->
        List.init groups (fun group ->
            group_ring_ctx server ~server_id:sid ~chip_base:(chip_base_of sid)
              ~group ~bytes ~width))
      server_ids
  in
  List.iter (fun c -> ring_declare_links b c ~capacity:server.Server.hccs_bytes_per_s) ctxs;
  if groups = 2 then
    List.iter
      (fun sid ->
        declare_link b (pcie_link ~server_id:sid) server.Server.pcie_bytes_per_s)
      server_ids;
  (* phase 1: reduce-scatter inside every group of every server *)
  for k = 0 to g - 2 do
    step b ~latency_s:0. (fun emit ->
        List.iter (fun c -> ring_rs_step c ~k emit) ctxs)
  done;
  let shard_of i = (i + 1) mod g in
  let pcie_claim = server.Server.pcie_bytes_per_s /. float_of_int g in
  let shard_bytes = bytes /. float_of_int g in
  (* phase 2: group B folds its shard partials into group A *)
  if groups = 2 then
    step b ~latency_s:0. (fun emit ->
        List.iter
          (fun sid ->
            let base = chip_base_of sid in
            for i = 0 to g - 1 do
              let s = shard_of i in
              emit
                (transfer ~src:(base + g + i) ~dst:(base + i)
                   ~link:(pcie_link ~server_id:sid) ~bytes:shard_bytes
                   ~claim:pcie_claim ~lo:(s * width)
                   ~hi:((s + 1) * width)
                   ~reduce:true)
            done)
          server_ids);
  (* the caller's inter-server phase runs while group A owns the shards *)
  mid ();
  (* phase 4: group A copies the finished shards back to group B *)
  if groups = 2 then
    step b ~latency_s:0. (fun emit ->
        List.iter
          (fun sid ->
            let base = chip_base_of sid in
            for i = 0 to g - 1 do
              let s = shard_of i in
              emit
                (transfer ~src:(base + i) ~dst:(base + g + i)
                   ~link:(pcie_link ~server_id:sid) ~bytes:shard_bytes
                   ~claim:pcie_claim ~lo:(s * width)
                   ~hi:((s + 1) * width)
                   ~reduce:false)
            done)
          server_ids);
  (* phase 5: all-gather inside every group *)
  for k = 0 to g - 2 do
    step b ~latency_s:0. (fun emit ->
        List.iter (fun c -> ring_ag_step c ~k emit) ctxs)
  done

let intra_server ~server ~bytes =
  if bytes < 0. then invalid_arg "Collective_schedule: negative bytes";
  check_server server;
  let g = Server.chips_per_group server in
  let b = builder () in
  intra_phases b server ~server_ids:[ 0 ] ~bytes ~width:1
    ~chip_base_of:(fun _ -> 0)
    ~mid:(fun () -> ());
  finish b
    ~name:(Printf.sprintf "intra-server(%s)" server.Server.server_name)
    ~chips:server.Server.chips ~chunks:g

let nic_link ~src ~dst = Printf.sprintf "nic:%d->%d" src dst

let hierarchical ~server ~network ~servers ~bytes =
  if bytes < 0. then invalid_arg "Collective_schedule: negative bytes";
  if servers <= 0 then invalid_arg "Collective_schedule: no servers";
  check_server server;
  let g = Server.chips_per_group server in
  let nic = Ascend_noc.Fat_tree.server_bandwidth network in
  let net_latency_s =
    Ascend_noc.Fat_tree.latency_us network ~src:0 ~dst:(max 0 (servers - 1))
    *. 1e-6
  in
  let _, algorithm =
    Collective.best_allreduce_seconds ~bytes ~nodes:servers ~bandwidth:nic
      ~latency_s:net_latency_s ()
  in
  (* the inter phase all-reduces each shard across servers; its chunk
     granularity decides the shard width *)
  let width =
    if servers = 1 then 1
    else if algorithm = "ring" then servers
    else Collective.pow2_floor servers
  in
  let b = builder () in
  let chip_base_of sid = sid * server.Server.chips in
  let shard_of i = (i + 1) mod g in
  let nic_claim = nic /. float_of_int g in
  let shard_bytes = bytes /. float_of_int g in
  let mid () =
    if servers > 1 then begin
      (* shard (i+1) mod g is owned by group-A local i of every server;
         each owner set runs the picked collective across servers,
         claiming a g-th of every NIC link it crosses *)
      if algorithm = "ring" then begin
        let ctx i =
          {
            n = servers;
            chip_of = (fun r -> chip_base_of r + i);
            link_of = (fun ~src ~dst -> nic_link ~src ~dst);
            claim = nic_claim;
            chunk_base = shard_of i * width;
            width = 1;
            chunk_bytes = shard_bytes /. float_of_int servers;
          }
        in
        for i = 0 to g - 1 do
          ring_declare_links b (ctx i) ~capacity:nic
        done;
        for k = 0 to servers - 2 do
          step b ~latency_s:net_latency_s (fun emit ->
              for i = 0 to g - 1 do
                ring_rs_step (ctx i) ~k emit
              done)
        done;
        for k = 0 to servers - 2 do
          step b ~latency_s:net_latency_s (fun emit ->
              for i = 0 to g - 1 do
                ring_ag_step (ctx i) ~k emit
              done)
        done
      end
      else begin
        let ctx i =
          {
            hn = servers;
            hchip_of = (fun r -> chip_base_of r + i);
            hlink_of = (fun ~src ~dst -> nic_link ~src ~dst);
            hclaim = nic_claim;
            hchunk_base = shard_of i * width;
            hwidth = 1;
            bytes_total = shard_bytes;
          }
        in
        let p, r, l = hd_plan (ctx 0) in
        ignore p;
        for i = 0 to g - 1 do
          hd_declare_links b (ctx i) ~capacity:nic
        done;
        if r > 0 then
          step b ~latency_s:net_latency_s (fun emit ->
              for i = 0 to g - 1 do
                hd_fold_step (ctx i) emit
              done);
        for k = 1 to l do
          step b ~latency_s:net_latency_s (fun emit ->
              for i = 0 to g - 1 do
                hd_rs_step (ctx i) ~k emit
              done)
        done;
        for k = l downto 1 do
          step b ~latency_s:net_latency_s (fun emit ->
              for i = 0 to g - 1 do
                hd_ag_step (ctx i) ~k emit
              done)
        done;
        if r > 0 then
          step b ~latency_s:net_latency_s (fun emit ->
              for i = 0 to g - 1 do
                hd_unfold_step (ctx i) emit
              done)
      end
    end
  in
  intra_phases b server
    ~server_ids:(List.init servers Fun.id)
    ~bytes ~width ~chip_base_of ~mid;
  finish b
    ~name:
      (Printf.sprintf "hierarchical(s=%d,%s)" servers
         (if servers = 1 then "intra" else algorithm))
    ~chips:(servers * server.Server.chips)
    ~chunks:(g * width)

(* ------------------------------------------------------------------ *)
(* The lint --cluster sweep: every builder at several node counts
   (power-of-two and not) and message sizes, over the real topologies —
   flat algorithms on the fat-tree NIC rate, the intra-server hierarchy
   on the 910 board, and the full hierarchical cluster collective. *)

type point = {
  algorithm : string;
  peers : int;
  bytes : float;
  closed_form_s : float;
  build : unit -> V.schedule;
}

let sweep () =
  let nic = Ascend_noc.Fat_tree.(server_bandwidth ascend_cluster) in
  let server = Server.ascend910_server in
  let bytes_axis = [ 1e6; 1e8 ] in
  let flat =
    List.concat_map
      (fun nodes ->
        List.concat_map
          (fun bytes ->
            [
              { algorithm = "ring"; peers = nodes; bytes;
                closed_form_s =
                  Collective.ring_allreduce_seconds ~bytes ~nodes
                    ~bandwidth:nic ();
                build = (fun () -> ring ~bytes ~nodes ~bandwidth:nic ()) };
              { algorithm = "halving-doubling"; peers = nodes; bytes;
                closed_form_s =
                  Collective.halving_doubling_seconds ~bytes ~nodes
                    ~bandwidth:nic ();
                build =
                  (fun () -> halving_doubling ~bytes ~nodes ~bandwidth:nic ())
              };
            ])
          bytes_axis)
      [ 2; 3; 4; 5; 8; 16; 17 ]
  in
  let intra =
    List.map
      (fun bytes ->
        { algorithm = "intra-server"; peers = server.Server.chips; bytes;
          closed_form_s = Server.intra_server_allreduce_seconds server ~bytes;
          build = (fun () -> intra_server ~server ~bytes) })
      bytes_axis
  in
  let hier =
    List.concat_map
      (fun servers ->
        let network = Ascend_noc.Fat_tree.create ~servers () in
        List.map
          (fun bytes ->
            { algorithm = "hierarchical"; peers = servers; bytes;
              closed_form_s =
                Collective.hierarchical_allreduce_seconds ~server ~network
                  ~servers ~bytes;
              build = (fun () -> hierarchical ~server ~network ~servers ~bytes)
            })
          bytes_axis)
      [ 1; 2; 3; 4; 8; 16 ]
  in
  flat @ intra @ hier
