(* Verify.Cluster (lib/verify) + Collective_schedule (lib/cluster):
   mutation tests provoke every collective Finding.kind, qcheck holds
   the schedule-derived time within the 1e-6 differential gate of the
   closed forms, and placement lint predicts page-ins per policy. *)

module V = Ascend.Verify.Cluster
module Finding = Ascend.Verify.Finding
module Collective = Ascend.Cluster.Collective
module Sched = Ascend.Cluster.Collective_schedule
module Server = Ascend.Cluster.Server
module Fat_tree = Ascend.Noc.Fat_tree

let has pred findings =
  List.exists (fun (f : Finding.t) -> pred f.Finding.kind) findings

let is_unmatched = function Finding.Coll_unmatched -> true | _ -> false
let is_deadlock = function Finding.Coll_deadlock -> true | _ -> false
let is_incomplete = function Finding.Coll_incomplete -> true | _ -> false

let is_overcommit resource = function
  | Finding.Coll_overcommit { resource = r } -> r = resource
  | _ -> false

let gate = 1e-6

let rel_err a b = Float.abs (a -. b) /. Float.max (Float.abs b) 1e-300

(* ------------------------------------------------------------------ *)
(* Mutations: each collective finding kind must be provokable          *)

let base () = Sched.ring ~bytes:1e6 ~nodes:4 ~bandwidth:10e9 ()

let test_clean_base () =
  Alcotest.(check int) "ring schedule clean" 0 (List.length (V.analyze (base ())))

let test_dropped_recv_unmatched () =
  (* drop the first recv: its mirroring send can never complete *)
  let s = base () in
  let dropped = ref false in
  let steps =
    List.map
      (fun (st : V.step) ->
        { st with
          V.ops =
            List.filter
              (fun (o : V.op) ->
                if (not !dropped) && o.V.op_kind = V.Recv then begin
                  dropped := true;
                  false
                end
                else true)
              st.V.ops })
      s.V.steps
  in
  let fs = V.analyze { s with V.steps } in
  Alcotest.(check bool) "a recv was dropped" true !dropped;
  Alcotest.(check bool) "coll-unmatched reported" true (has is_unmatched fs);
  Alcotest.(check bool) "unmatched is an error" true
    (List.exists
       (fun (f : Finding.t) ->
         is_unmatched f.Finding.kind && Finding.is_error f)
       fs)

let test_reordered_deps_deadlock () =
  (* close the dependency chain into a cycle: step 0 waits on the last
     step, which (transitively) waits on step 0 *)
  let s = base () in
  let last = List.length s.V.steps - 1 in
  let steps =
    List.map
      (fun (st : V.step) ->
        if st.V.step_id = 0 then { st with V.deps = [ last ] } else st)
      s.V.steps
  in
  let fs = V.analyze { s with V.steps } in
  Alcotest.(check bool) "coll-deadlock reported" true (has is_deadlock fs);
  (* a dependency on a step that does not exist is also a deadlock *)
  let steps =
    List.map
      (fun (st : V.step) ->
        if st.V.step_id = 0 then { st with V.deps = [ 999 ] } else st)
      (base ()).V.steps
  in
  Alcotest.(check bool) "dangling dep reported" true
    (has is_deadlock (V.analyze { s with V.steps }))

let test_shrunk_capacity_overcommit () =
  (* the schedule's claims were sized for the declared capacity; shrink
     every link and the per-(step, link) claim sums overcommit *)
  let s = base () in
  let links =
    List.map
      (fun (l : V.link) ->
        { l with V.capacity_bytes_per_s = l.V.capacity_bytes_per_s /. 4. })
      s.V.links
  in
  let fs = V.analyze { s with V.links } in
  Alcotest.(check bool) "coll-overcommit/link reported" true
    (has (is_overcommit "link") fs)

let test_copy_instead_of_reduce_incomplete () =
  (* flip every reduce into a plain copy: partial sums get overwritten,
     so contributions never reach every chip *)
  let s = base () in
  let steps =
    List.map
      (fun (st : V.step) ->
        { st with
          V.ops = List.map (fun (o : V.op) -> { o with V.reduce = false }) st.V.ops })
      s.V.steps
  in
  let fs = V.analyze { s with V.steps } in
  Alcotest.(check bool) "coll-incomplete reported" true (has is_incomplete fs)

let test_structural_malformed () =
  let s = base () in
  let steps =
    match s.V.steps with
    | (st : V.step) :: rest ->
      { st with
        V.ops =
          List.map (fun (o : V.op) -> { o with V.chip = s.V.chips + 3 }) st.V.ops }
      :: rest
    | [] -> []
  in
  let fs = V.analyze { s with V.steps } in
  Alcotest.(check bool) "out-of-range chip is malformed" true
    (has (function Finding.Malformed -> true | _ -> false) fs)

(* Steps no dependency orders that touch one (chip, chunk) cell race:
   A waits on D and has no ops, B reduces chip 0 into chip 1, C (after
   B) copies chip 0 over chip 1, D copies chip 1 over chip 0.  B and C
   each race D, so every listing gets the same verdict. *)
let test_unordered_steps_race () =
  let op chip op_kind peer reduce =
    { V.chip; op_kind; peer; link = "l"; op_bytes = 1.;
      claim_bytes_per_s = 1.; chunk_lo = 0; chunk_hi = 1; reduce }
  in
  let transfer src dst reduce =
    [ op src V.Send dst reduce; op dst V.Recv src reduce ]
  in
  let step step_id deps ops = { V.step_id; deps; latency_s = 0.; ops } in
  let a = step 0 [ 3 ] []
  and b = step 1 [] (transfer 0 1 true)
  and c = step 2 [ 1 ] (transfer 0 1 false)
  and d = step 3 [] (transfer 1 0 false) in
  let verdict steps =
    List.sort Finding.compare
      (V.analyze
         { V.sched_name = "probe"; chips = 2; chunks = 1;
           links = [ { V.link_id = "l"; capacity_bytes_per_s = 1. } ];
           steps })
  in
  let reference = verdict [ a; b; c; d ] in
  List.iter
    (fun steps ->
      Alcotest.(check (list string)) "same findings in every listing"
        (List.map Finding.to_string reference)
        (List.map Finding.to_string (verdict steps)))
    [ [ b; c; d; a ]; [ a; d; b; c ]; [ d; b; c; a ] ];
  Alcotest.(check (list string)) "B and C each race D"
    [ "coll-race/RAW"; "coll-race/RAW"; "coll-race/WAR"; "coll-race/WAR" ]
    (List.map (fun (f : Finding.t) -> Finding.kind_name f.Finding.kind)
       reference);
  Alcotest.(check bool) "no completeness verdict over a race" false
    (has is_incomplete reference)

(* ------------------------------------------------------------------ *)
(* The differential gate: schedule-derived time = closed form          *)

let test_ring_schedule_time_pinned () =
  (* ring, zero latency: 2(n-1)/n * bytes / bw = 0.15 s *)
  let s = Sched.ring ~bytes:1e9 ~nodes:4 ~bandwidth:10e9 ~latency_s:0. () in
  Alcotest.(check (float 1e-9)) "0.15 s" 0.15 (V.schedule_seconds s)

let flat_params =
  QCheck.(
    triple (1 -- 20) (float_range 1e3 1e9) (float_range 1e9 1e11))

let ring_differential_prop =
  QCheck.Test.make ~count:100
    ~name:"ring schedule within 1e-6 of the closed form (and clean)"
    flat_params
    (fun (nodes, bytes, bandwidth) ->
      let s = Sched.ring ~bytes ~nodes ~bandwidth () in
      let closed =
        Collective.ring_allreduce_seconds ~bytes ~nodes ~bandwidth ()
      in
      V.analyze s = [] && rel_err (V.schedule_seconds s) closed <= gate)

let hd_differential_prop =
  QCheck.Test.make ~count:100
    ~name:"halving/doubling schedule within 1e-6 of the closed form"
    flat_params
    (fun (nodes, bytes, bandwidth) ->
      let s = Sched.halving_doubling ~bytes ~nodes ~bandwidth () in
      let closed =
        Collective.halving_doubling_seconds ~bytes ~nodes ~bandwidth ()
      in
      V.analyze s = [] && rel_err (V.schedule_seconds s) closed <= gate)

let intra_differential_prop =
  QCheck.Test.make ~count:50
    ~name:"intra-server schedule within 1e-6 of the closed form"
    QCheck.(float_range 0. 1e10)
    (fun bytes ->
      let server = Server.ascend910_server in
      let s = Sched.intra_server ~server ~bytes in
      let closed = Server.intra_server_allreduce_seconds server ~bytes in
      V.analyze s = [] && rel_err (V.schedule_seconds s) closed <= gate)

let hierarchical_differential_prop =
  QCheck.Test.make ~count:40
    ~name:"hierarchical schedule within 1e-6 of the closed form"
    QCheck.(pair (1 -- 12) (float_range 1e3 1e9))
    (fun (servers, bytes) ->
      let server = Server.ascend910_server in
      let network = Fat_tree.create ~servers () in
      let s = Sched.hierarchical ~server ~network ~servers ~bytes in
      let closed =
        Collective.hierarchical_allreduce_seconds ~server ~network ~servers
          ~bytes
      in
      V.analyze s = [] && rel_err (V.schedule_seconds s) closed <= gate)

(* ------------------------------------------------------------------ *)
(* Algorithm trade-offs (closed forms, now schedule-backed)            *)

let hd_beats_ring_iff_latency_dominated_prop =
  (* power-of-two peers: same bandwidth term, 2*log2 n latency steps
     against the ring's 2(n-1) — halving/doubling never loses, and wins
     outright as soon as latency matters (n > 2) *)
  QCheck.Test.make ~count:100
    ~name:"pow2 halving/doubling never slower than ring"
    QCheck.(pair (2 -- 6) (float_range 1e3 1e9))
    (fun (log_n, bytes) ->
      let nodes = 1 lsl log_n in
      let bw = 12.5e9 in
      let ring = Collective.ring_allreduce_seconds ~bytes ~nodes ~bandwidth:bw () in
      let hd =
        Collective.halving_doubling_seconds ~bytes ~nodes ~bandwidth:bw ()
      in
      hd <= ring +. 1e-15)

let test_hd_ring_crossover_non_pow2 () =
  (* non-power-of-two peers pay the whole-buffer fold, so the winner
     flips with the regime: halving/doubling on latency-dominated small
     messages, ring on bandwidth-dominated large ones *)
  let bw = 12.5e9 and nodes = 5 in
  let t alg bytes =
    (match alg with
    | `Ring -> Collective.ring_allreduce_seconds
    | `Hd -> Collective.halving_doubling_seconds)
      ~bytes ~nodes ~bandwidth:bw ~latency_s:1e-4 ()
  in
  Alcotest.(check bool) "small messages: halving/doubling wins" true
    (t `Hd 1e3 < t `Ring 1e3);
  Alcotest.(check bool) "large messages: ring wins" true
    (t `Ring 1e9 < t `Hd 1e9)

let fold_penalty_monotone_prop =
  (* n = 5 and n = 4 share p = 4 and the same level count, so their
     difference is exactly the non-power-of-two fold penalty
     2*(bytes/bw + latency): monotone in bytes *)
  QCheck.Test.make ~count:100
    ~name:"non-pow2 fold penalty monotone in bytes"
    QCheck.(pair (float_range 1e3 1e10) (float_range 1e3 1e10))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      let penalty bytes =
        Collective.halving_doubling_seconds ~bytes ~nodes:5 ~bandwidth:10e9 ()
        -. Collective.halving_doubling_seconds ~bytes ~nodes:4 ~bandwidth:10e9
             ()
      in
      penalty lo <= penalty hi +. 1e-15)

(* ------------------------------------------------------------------ *)
(* Placement lint + predicted page-ins                                 *)

let plan ?hbm ?(policy = "round-robin") ?(nodes = 3) models =
  { V.plan_name = "test plan"; nodes; hbm_bytes_per_node = hbm; policy;
    models }

let test_placement_hbm_overcommit () =
  (* two cold models, load-spreading policy: every node must eventually
     hold both resident, which overflows a 100 B HBM *)
  let p =
    plan ~hbm:100 ~policy:"least-loaded"
      [ ("a", 80, [ 0 ]); ("b", 60, [ 1 ]) ]
  in
  let fs = V.lint_placement p in
  Alcotest.(check int) "every node overcommits" 3
    (List.length (List.filter (fun (f : Finding.t) -> is_overcommit "HBM" f.Finding.kind) fs));
  Alcotest.(check bool) "HBM overcommit is an error" true
    (List.for_all Finding.is_error fs);
  (* affinity never leaves the replica sets: each node holds one model *)
  let p = plan ~hbm:100 ~policy:"affinity" [ ("a", 80, [ 0 ]); ("b", 60, [ 1 ]) ] in
  Alcotest.(check int) "affinity plan fits" 0 (List.length (V.lint_placement p))

let test_placement_malformed () =
  let bad policy models = V.lint_placement (plan ~policy models) in
  Alcotest.(check bool) "unknown policy" true
    (has (function Finding.Malformed -> true | _ -> false)
       (bad "random" [ ("a", 1, [ 0 ]) ]));
  Alcotest.(check bool) "replica out of range" true
    (has (function Finding.Malformed -> true | _ -> false)
       (bad "affinity" [ ("a", 1, [ 7 ]) ]));
  Alcotest.(check bool) "nowhere resident" true
    (has (function Finding.Malformed -> true | _ -> false)
       (bad "affinity" [ ("a", 1, []) ]))

let test_predicted_page_ins () =
  let models = [ ("cold", 10, [ 0 ]); ("hot", 10, [ 0; 1; 2 ]) ] in
  Alcotest.(check (array int)) "round-robin pages cold in everywhere else"
    [| 0; 1; 1 |]
    (V.predicted_page_ins (plan ~policy:"round-robin" models));
  Alcotest.(check (array int)) "least-loaded reaches every node"
    [| 0; 1; 1 |]
    (V.predicted_page_ins (plan ~policy:"least-loaded" models));
  Alcotest.(check (array int)) "affinity never pages" [| 0; 0; 0 |]
    (V.predicted_page_ins (plan ~policy:"affinity" models))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "verify_cluster"
    [
      ( "mutations",
        [
          Alcotest.test_case "base is clean" `Quick test_clean_base;
          Alcotest.test_case "dropped recv" `Quick test_dropped_recv_unmatched;
          Alcotest.test_case "dependency cycle" `Quick
            test_reordered_deps_deadlock;
          Alcotest.test_case "shrunk capacity" `Quick
            test_shrunk_capacity_overcommit;
          Alcotest.test_case "copy instead of reduce" `Quick
            test_copy_instead_of_reduce_incomplete;
          Alcotest.test_case "malformed" `Quick test_structural_malformed;
          Alcotest.test_case "unordered steps race" `Quick
            test_unordered_steps_race;
        ] );
      ( "differential",
        [
          Alcotest.test_case "ring time pinned" `Quick
            test_ring_schedule_time_pinned;
          q ring_differential_prop;
          q hd_differential_prop;
          q intra_differential_prop;
          q hierarchical_differential_prop;
        ] );
      ( "trade-offs",
        [
          q hd_beats_ring_iff_latency_dominated_prop;
          Alcotest.test_case "non-pow2 crossover" `Quick
            test_hd_ring_crossover_non_pow2;
          q fold_penalty_monotone_prop;
        ] );
      ( "placement",
        [
          Alcotest.test_case "HBM overcommit" `Quick
            test_placement_hbm_overcommit;
          Alcotest.test_case "malformed plans" `Quick test_placement_malformed;
          Alcotest.test_case "predicted page-ins" `Quick
            test_predicted_page_ins;
        ] );
    ]
