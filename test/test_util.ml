open Ascend.Util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Fp16                                                               *)

let test_fp16_known_values () =
  check_float "one" 1. (Fp16.to_float Fp16.one);
  check_float "zero" 0. (Fp16.to_float Fp16.zero);
  check_float "max" 65504. (Fp16.to_float (Fp16.of_float 65504.));
  check_float "half" 0.5 (Fp16.to_float (Fp16.of_float 0.5));
  check_float "third rounds" 0.333251953125 (Fp16.round_float (1. /. 3.));
  Alcotest.(check bool) "inf" true (Fp16.is_inf (Fp16.of_float 1e6));
  Alcotest.(check bool) "neg inf" true (Fp16.is_inf (Fp16.of_float (-1e6)));
  Alcotest.(check bool) "nan" true (Fp16.is_nan (Fp16.of_float nan));
  Alcotest.(check bool)
    "subnormal" true
    (Fp16.is_subnormal (Fp16.of_float 1e-7))

let test_fp16_boundaries () =
  (* 65519.999 rounds down to 65504; 65520 is the tie to infinity *)
  check_float "just below overflow" 65504. (Fp16.round_float 65519.9);
  Alcotest.(check bool) "tie overflows" true
    (Fp16.is_inf (Fp16.of_float 65520.));
  check_float "min normal" Fp16.min_positive_normal
    (Fp16.round_float Fp16.min_positive_normal);
  check_float "min subnormal" Fp16.min_positive_subnormal
    (Fp16.round_float Fp16.min_positive_subnormal);
  check_float "underflow" 0. (Fp16.round_float 1e-9);
  check_float "neg zero keeps sign" 0. (Fp16.round_float (-1e-9));
  Alcotest.(check int) "neg zero bits" 0x8000
    (Fp16.bits (Fp16.of_float (-1e-9)))

let test_fp16_neg () =
  check_float "neg" (-2.5) (Fp16.to_float (Fp16.neg (Fp16.of_float 2.5)))

let fp16_roundtrip_prop =
  QCheck.Test.make ~count:1000 ~name:"fp16 roundtrip is idempotent"
    QCheck.(float_range (-65000.) 65000.)
    (fun x ->
      let once = Fp16.round_float x in
      let twice = Fp16.round_float once in
      once = twice)

let fp16_error_bound_prop =
  QCheck.Test.make ~count:1000 ~name:"fp16 relative error < 2^-10 (normals)"
    QCheck.(float_range 0.001 60000.)
    (fun x ->
      let r = Fp16.round_float x in
      Float.abs (r -. x) /. x <= Fp16.epsilon)

let fp16_order_prop =
  QCheck.Test.make ~count:500 ~name:"fp16 rounding is monotone"
    QCheck.(pair (float_range (-60000.) 60000.) (float_range (-60000.) 60000.))
    (fun (a, b) ->
      let a, b = if a <= b then (a, b) else (b, a) in
      Fp16.round_float a <= Fp16.round_float b)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)

let test_stats () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "mean empty" 0. (Stats.mean []);
  check_float "geomean" 2. (Stats.geomean [ 1.; 2.; 4. ]);
  check_float "stddev" 0. (Stats.stddev [ 5.; 5.; 5. ]);
  check_float "p50" 2. (Stats.percentile 50. [ 3.; 1.; 2. ]);
  check_float "p0" 1. (Stats.percentile 0. [ 3.; 1.; 2. ]);
  check_float "p100" 3. (Stats.percentile 100. [ 3.; 1.; 2. ]);
  check_float "ratio" 2. (Stats.ratio 4. 2.);
  Alcotest.(check bool) "ratio by zero" true (Stats.ratio 1. 0. = infinity);
  check_float "ratio zero zero" 0. (Stats.ratio 0. 0.);
  Alcotest.(check int) "divide_round_up exact" 4 (Stats.divide_round_up 16 4);
  Alcotest.(check int) "divide_round_up up" 5 (Stats.divide_round_up 17 4);
  Alcotest.check_raises "bad divisor" (Invalid_argument
    "Stats.divide_round_up: non-positive divisor") (fun () ->
      ignore (Stats.divide_round_up 1 0))

let test_percentile_nearest_rank () =
  (* pinned semantics: nearest-rank, value at rank ceil(p/100 * n) —
     always an element of the sample *)
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Stats.percentile: empty list") (fun () ->
      ignore (Stats.percentile 50. []));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p outside [0,100]") (fun () ->
      ignore (Stats.percentile 101. [ 1. ]));
  (* singleton: every p returns the element *)
  List.iter
    (fun p -> check_float "singleton" 7. (Stats.percentile p [ 7. ]))
    [ 0.; 1.; 50.; 99.; 100. ];
  (* two samples: p <= 50 -> first, p > 50 -> second *)
  check_float "two p0" 10. (Stats.percentile 0. [ 20.; 10. ]);
  check_float "two p50" 10. (Stats.percentile 50. [ 20.; 10. ]);
  check_float "two p50.1" 20. (Stats.percentile 50.1 [ 20.; 10. ]);
  check_float "two p75" 20. (Stats.percentile 75. [ 20.; 10. ]);
  check_float "two p100" 20. (Stats.percentile 100. [ 20.; 10. ]);
  (* n=10 over 1..10: p95 is the 10th order statistic, not 9.55 *)
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  check_float "ten p50" 5. (Stats.percentile 50. xs);
  check_float "ten p90" 9. (Stats.percentile 90. xs);
  check_float "ten p95" 10. (Stats.percentile 95. xs);
  check_float "ten p99" 10. (Stats.percentile 99. xs);
  (* the array form keeps its own messages *)
  Alcotest.check_raises "empty array raises"
    (Invalid_argument "Stats.percentile_in_place: empty array") (fun () ->
      ignore (Stats.percentile_in_place 50. [||]));
  Alcotest.check_raises "array p out of range"
    (Invalid_argument "Stats.percentile_in_place: p outside [0,100]")
    (fun () -> ignore (Stats.percentile_in_place (-1.) [| 1. |]))

let percentile_member_prop =
  QCheck.Test.make ~count:500
    ~name:"nearest-rank percentile is an element of the sample"
    QCheck.(
      pair (float_range 0. 100.)
        (list_of_size (Gen.int_range 1 20) (float_range (-50.) 50.)))
    (fun (p, xs) -> List.mem (Stats.percentile p xs) xs)

(* 1..2000 quarter-steps in [-5, 5]: duplicates are the rule, and the
   sample straddles zero *)
let sample_arb =
  QCheck.(
    array_of_size (Gen.int_range 1 2000)
      (map (fun i -> float_of_int i /. 4.) (int_range (-20) 20)))

let percentile_arb =
  QCheck.(oneof [ float_range 0. 100.; oneofl [ 0.; 50.; 95.; 99.; 100. ] ])

(* the nearest rank read off a sorted copy *)
let sorted_percentile p a =
  let sorted = Array.copy a in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let percentile_in_place_prop =
  QCheck.Test.make ~count:500
    ~name:"percentile_in_place agrees with a sorted reference"
    QCheck.(pair percentile_arb sample_arb)
    (fun (p, a) ->
      let expected = sorted_percentile p a in
      Stats.percentile_in_place p (Array.copy a) = expected
      && Stats.percentile p (Array.to_list a) = expected)

let percentile_in_place_reuse_prop =
  QCheck.Test.make ~count:200
    ~name:"percentile_in_place: queries on one reordered array = on copies"
    sample_arb
    (fun a ->
      let shared = Array.copy a in
      List.for_all
        (fun p ->
          Stats.percentile_in_place p shared
          = Stats.percentile_in_place p (Array.copy a))
        [ 50.; 95.; 99.; 100. ])

let div_up_prop =
  QCheck.Test.make ~count:500 ~name:"divide_round_up is a ceiling"
    QCheck.(pair (int_range 0 100000) (int_range 1 1000))
    (fun (a, b) ->
      let q = Stats.divide_round_up a b in
      (q * b >= a) && ((q - 1) * b < a || q = 0))

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create ~seed:42 in
  let child = Prng.split a in
  Alcotest.(check bool) "diverged" true (Prng.bits64 a <> Prng.bits64 child)

let prng_int_bound_prop =
  QCheck.Test.make ~count:500 ~name:"prng int respects bound"
    QCheck.(pair (int_range 1 10000) (int_range 0 1000))
    (fun (bound, seed) ->
      let rng = Prng.create ~seed in
      let v = Prng.int rng ~bound in
      v >= 0 && v < bound)

let test_prng_shuffle_permutes () =
  let rng = Prng.create ~seed:7 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_prng_gaussian_moments () =
  let rng = Prng.create ~seed:11 in
  let n = 20000 in
  let xs = List.init n (fun _ -> Prng.gaussian rng ~mu:3. ~sigma:2.) in
  Alcotest.(check bool) "mean near 3" true (Float.abs (Stats.mean xs -. 3.) < 0.1);
  Alcotest.(check bool) "stddev near 2" true
    (Float.abs (Stats.stddev xs -. 2.) < 0.1)

(* ------------------------------------------------------------------ *)
(* Fairness                                                           *)

let test_max_min_fair_basic () =
  let a = Fairness.max_min_fair ~capacity:10. ~demands:[| 2.; 20. |] in
  check_float "small demand satisfied" 2. a.(0);
  check_float "big demand gets rest" 8. a.(1)

let test_max_min_fair_equal_split () =
  let a = Fairness.max_min_fair ~capacity:9. ~demands:[| 100.; 100.; 100. |] in
  Array.iter (fun v -> check_float "equal thirds" 3. v) a

let fairness_props =
  QCheck.Test.make ~count:300 ~name:"max-min fair: feasible and demand-capped"
    QCheck.(pair (float_range 0. 100.) (list_of_size (Gen.int_range 1 8)
      (float_range 0. 50.)))
    (fun (capacity, demands) ->
      let demands = Array.of_list demands in
      let a = Fairness.max_min_fair ~capacity ~demands in
      let total = Array.fold_left ( +. ) 0. a in
      total <= capacity +. 1e-6
      && Array.for_all2 (fun alloc d -> alloc <= d +. 1e-6) a demands)

let fairness_work_conserving =
  QCheck.Test.make ~count:300
    ~name:"max-min fair is work conserving when demand exceeds capacity"
    QCheck.(pair (float_range 1. 100.) (list_of_size (Gen.int_range 1 8)
      (float_range 1. 50.)))
    (fun (capacity, demands) ->
      let demands = Array.of_list demands in
      let total_demand = Array.fold_left ( +. ) 0. demands in
      let a = Fairness.max_min_fair ~capacity ~demands in
      let total = Array.fold_left ( +. ) 0. a in
      Float.abs (total -. Float.min capacity total_demand) < 1e-4)

(* ------------------------------------------------------------------ *)
(* Units / Table                                                      *)

let test_units () =
  check_float "4TB/s at 1GHz" 4000. (Units.bytes_per_cycle_of_gbps
    ~bandwidth_gb_s:4000. ~frequency_ghz:1.);
  check_float "768GB/s at 0.75GHz" 1024. (Units.bytes_per_cycle_of_gbps
    ~bandwidth_gb_s:768. ~frequency_ghz:0.75);
  check_float "cycles to seconds" 1e-6
    (Units.seconds_of_cycles ~cycles:1000 ~frequency_ghz:1.);
  Alcotest.(check string) "pp_bytes" "64.0 KiB"
    (Format.asprintf "%a" Units.pp_bytes (64 * 1024));
  Alcotest.(check string) "pp_seconds ms" "1.50 ms"
    (Format.asprintf "%a" Units.pp_seconds 1.5e-3)

let test_table () =
  let t = Table.create ~header:[ "a"; "b" ] () in
  Table.add_row t [ "1"; "2" ];
  Table.add_separator t;
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  Alcotest.(check bool) "contains cells" true (String.contains s '3');
  Alcotest.(check bool) "has rules" true (String.contains s '+');
  Alcotest.check_raises "row width mismatch"
    (Invalid_argument "Table.add_row: expected 2 cells, got 1") (fun () ->
      Table.add_row t [ "x" ]);
  Alcotest.(check string) "ratio cell" "1.71x" (Table.cell_ratio 1.71)

(* ------------------------------------------------------------------ *)
(* Json                                                               *)

module Json = Ascend.Util.Json

let test_json_rendering () =
  let doc =
    Json.Obj
      [
        ("name", Json.String "a\"b\\c\nd\t");
        ("n", Json.Int (-3));
        ("xs", Json.List [ Json.Bool true; Json.Null; Json.Float 0.5 ]);
        ("empty", Json.Obj []);
      ]
  in
  Alcotest.(check string) "compact"
    {|{"name":"a\"b\\c\nd\t","n":-3,"xs":[true,null,0.5],"empty":{}}|}
    (Json.to_string doc);
  (* pretty output parses back the same structure textually *)
  Alcotest.(check bool) "pretty is multi-line" true
    (String.contains (Json.to_string ~pretty:true doc) '\n')

let test_json_float_repr () =
  let s f = Json.to_string (Json.Float f) in
  (* integers render with a trailing .0, everything else via %.9g, and
     non-finite values become null (valid JSON, unlike nan/inf) *)
  Alcotest.(check string) "integer-valued" "2.0" (s 2.);
  Alcotest.(check string) "negative zero is zero" "-0.0" (s (-0.));
  Alcotest.(check string) "fractional" "0.333333333" (s (1. /. 3.));
  Alcotest.(check string) "nan -> null" "null" (s Float.nan);
  Alcotest.(check string) "inf -> null" "null" (s Float.infinity)

let test_json_escape_goldens () =
  (* pinned escaping table: named short escapes for the common control
     characters, \u00XX for the rest, and nothing else is touched *)
  Alcotest.(check string) "quote" {|a\"b|} (Json.escape "a\"b");
  Alcotest.(check string) "backslash" {|a\\b|} (Json.escape "a\\b");
  Alcotest.(check string) "newline" {|\n|} (Json.escape "\n");
  Alcotest.(check string) "carriage return" {|\r|} (Json.escape "\r");
  Alcotest.(check string) "tab" {|\t|} (Json.escape "\t");
  Alcotest.(check string) "SOH" {|\u0001|} (Json.escape "\x01");
  Alcotest.(check string) "backspace" {|\u0008|} (Json.escape "\b");
  Alcotest.(check string) "form feed" {|\u000c|} (Json.escape "\x0c");
  Alcotest.(check string) "unit sep" {|\u001f|} (Json.escape "\x1f");
  Alcotest.(check string) "0x20 untouched" " ~" (Json.escape " ~");
  (* bytes >= 0x80 pass through: UTF-8 payloads survive unmangled *)
  Alcotest.(check string) "utf8 passthrough" "caf\xc3\xa9"
    (Json.escape "caf\xc3\xa9")

let test_json_float_repr_goldens () =
  (* pinned boundary behaviour of the %.1f / %.9g switchover at 1e15 *)
  Alcotest.(check string) "below cutoff keeps .0" "999999999999999.0"
    (Json.float_repr 999999999999999.0);
  Alcotest.(check string) "at cutoff uses %.9g" "1e+15"
    (Json.float_repr 1e15);
  Alcotest.(check string) "tiny" "1e-300" (Json.float_repr 1e-300);
  Alcotest.(check string) "neg inf -> null" "null"
    (Json.float_repr Float.neg_infinity);
  Alcotest.(check string) "agrees with renderer" (Json.float_repr 0.25)
    (Json.to_string (Json.Float 0.25))

let test_json_parse_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\t\x01 caf\xc3\xa9");
        ("i", Json.Int (-42));
        ("f", Json.Float 0.125);
        ("flags", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]) ]);
        ("empty_list", Json.List []);
        ("empty_obj", Json.Obj []);
      ]
  in
  (match Json.of_string (Json.to_string doc) with
  | Ok doc' -> Alcotest.(check bool) "compact round-trip" true (doc = doc')
  | Error e -> Alcotest.fail ("parse failed: " ^ e));
  (match Json.of_string (Json.to_string ~pretty:true doc) with
  | Ok doc' -> Alcotest.(check bool) "pretty round-trip" true (doc = doc')
  | Error e -> Alcotest.fail ("pretty parse failed: " ^ e));
  (* \uXXXX escapes decode to UTF-8, including surrogate pairs *)
  (match Json.of_string {|"\u00e9 \ud83d\ude00"|} with
  | Ok (Json.String s) ->
    Alcotest.(check string) "unicode escapes" "\xc3\xa9 \xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escape parse failed");
  (* malformed inputs are errors, not exceptions *)
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; {|{"a":1,}|}; "tru"; {|"\ud800"|}; "1 2"; "nan" ]

let test_json_deterministic () =
  (* field order is the construction order: two structurally equal
     documents print identically — the serving layer's byte-identical
     reproducibility contract rests on this *)
  let mk () =
    Json.Obj
      [ ("a", Json.Float 0.1); ("b", Json.List [ Json.Int 1; Json.Int 2 ]) ]
  in
  Alcotest.(check string) "stable" (Json.to_string (mk ()))
    (Json.to_string (mk ()));
  Alcotest.(check string) "stable pretty"
    (Json.to_string ~pretty:true (mk ()))
    (Json.to_string ~pretty:true (mk ()))

(* ------------------------------------------------------------------ *)
(* Stable_hash                                                        *)

let test_stable_hash_known () =
  (* FNV-1a reference vectors: the digest must never drift, it is the
     execution service's cache address *)
  let hex s = Stable_hash.(to_hex (string empty s)) in
  Alcotest.(check string)
    "offset basis" "cbf29ce484222325"
    Stable_hash.(to_hex empty);
  Alcotest.(check string)
    "FNV-1a of 'a'" "af63dc4c8601ec8c"
    Stable_hash.(to_hex (char empty 'a'));
  Alcotest.(check bool) "distinct strings" true (hex "abc" <> hex "abd");
  (* length prefix: concatenation is not ambiguous *)
  Alcotest.(check bool)
    "ab+c <> a+bc" true
    Stable_hash.(
      to_hex (string (string empty "ab") "c")
      <> to_hex (string (string empty "a") "bc"))

let test_stable_hash_floats () =
  let h f = Stable_hash.(to_hex (float empty f)) in
  Alcotest.(check string) "same float same hash" (h 3.14) (h 3.14);
  Alcotest.(check bool) "different float" true (h 3.14 <> h 3.15);
  Alcotest.(check bool) "+0 vs -0 distinct bits" true (h 0. <> h (-0.))

let test_domain_pool_ordered () =
  let pool = Domain_pool.create ~jobs:4 () in
  let xs = List.init 100 (fun i -> i) in
  let ys = Domain_pool.map pool (fun i -> i * i) xs in
  Domain_pool.shutdown pool;
  Alcotest.(check (list int)) "submission order" (List.map (fun i -> i * i) xs) ys

let test_domain_pool_exception () =
  let pool = Domain_pool.create ~jobs:2 () in
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      ignore (Domain_pool.map pool (fun i -> if i = 3 then failwith "boom" else i)
                [ 1; 2; 3; 4 ]));
  (* the pool survives a failed batch *)
  let ys = Domain_pool.map pool (fun i -> i + 1) [ 1; 2; 3 ] in
  Domain_pool.shutdown pool;
  Alcotest.(check (list int)) "reusable after failure" [ 2; 3; 4 ] ys

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)

(* (key, seq) pairs in lexicographic order: with unique seqs this is a
   strict total order even when many keys repeat *)
module Pair_heap = Heap.Make (struct
  type t = int * int

  let precedes (k1, s1) (k2, s2) = k1 < k2 || (k1 = k2 && s1 < s2)
end)

let rec drain h =
  match Pair_heap.pop h with None -> [] | Some x -> x :: drain h

(* keys are drawn from 0..5, so most pushes tie on the key and the
   push position, the second component, decides *)
let heap_sorts_prop =
  QCheck.Test.make ~count:300 ~name:"heap pops in List.sort compare order"
    QCheck.(list_of_size Gen.(0 -- 1000) (int_bound 5))
    (fun keys ->
      let xs = List.mapi (fun seq k -> (k, seq)) keys in
      let h = Pair_heap.create () in
      List.iter (Pair_heap.push h) xs;
      Pair_heap.length h = List.length xs
      && drain h = List.sort compare xs
      && Pair_heap.length h = 0)

(* interleaved pushes and pops against a sorted-list reference model:
   [Some k] pushes key [k], [None] pops; every pop, peek and length
   agrees with the model *)
let heap_model_prop =
  QCheck.Test.make ~count:300 ~name:"interleaved push/pop matches a sorted list"
    QCheck.(list_of_size Gen.(0 -- 200) (option (int_bound 5)))
    (fun ops ->
      let h = Pair_heap.create () in
      let model = ref [] in
      List.for_all
        (fun (seq, op) ->
          (match op with
          | Some k ->
            Pair_heap.push h (k, seq);
            model := List.merge compare [ (k, seq) ] !model;
            true
          | None ->
            let expect =
              match !model with
              | [] -> None
              | x :: rest ->
                model := rest;
                Some x
            in
            Pair_heap.pop h = expect)
          && Pair_heap.peek h = List.nth_opt !model 0
          && Pair_heap.length h = List.length !model)
        (List.mapi (fun seq op -> (seq, op)) ops))

let test_heap_empty () =
  let h = Pair_heap.create () in
  let opt = Alcotest.(option (pair int int)) in
  Alcotest.(check opt) "peek on empty" None (Pair_heap.peek h);
  Alcotest.(check opt) "pop on empty" None (Pair_heap.pop h);
  Alcotest.(check int) "length of empty" 0 (Pair_heap.length h);
  Pair_heap.push h (3, 0);
  Alcotest.(check opt) "peek leaves the element" (Some (3, 0))
    (Pair_heap.peek h);
  Alcotest.(check int) "length after push" 1 (Pair_heap.length h);
  Alcotest.(check opt) "pop the only element" (Some (3, 0)) (Pair_heap.pop h);
  Alcotest.(check opt) "empty again: peek" None (Pair_heap.peek h);
  Alcotest.(check opt) "empty again: pop" None (Pair_heap.pop h);
  Alcotest.(check int) "empty again: length" 0 (Pair_heap.length h)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ( "fp16",
        [
          Alcotest.test_case "known values" `Quick test_fp16_known_values;
          Alcotest.test_case "boundaries" `Quick test_fp16_boundaries;
          Alcotest.test_case "neg" `Quick test_fp16_neg;
          q fp16_roundtrip_prop;
          q fp16_error_bound_prop;
          q fp16_order_prop;
        ] );
      ( "stats",
        [
          Alcotest.test_case "descriptive" `Quick test_stats;
          Alcotest.test_case "percentile nearest-rank" `Quick
            test_percentile_nearest_rank;
          q percentile_member_prop;
          q percentile_in_place_prop;
          q percentile_in_place_reuse_prop;
          q div_up_prop;
        ] );
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "gaussian" `Quick test_prng_gaussian_moments;
          q prng_int_bound_prop;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "basic" `Quick test_max_min_fair_basic;
          Alcotest.test_case "equal split" `Quick test_max_min_fair_equal_split;
          q fairness_props;
          q fairness_work_conserving;
        ] );
      ( "units-table",
        [
          Alcotest.test_case "units" `Quick test_units;
          Alcotest.test_case "table" `Quick test_table;
        ] );
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "float repr" `Quick test_json_float_repr;
          Alcotest.test_case "escape goldens" `Quick test_json_escape_goldens;
          Alcotest.test_case "float repr goldens" `Quick
            test_json_float_repr_goldens;
          Alcotest.test_case "parse round-trip" `Quick
            test_json_parse_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_json_deterministic;
        ] );
      ( "stable-hash",
        [
          Alcotest.test_case "known vectors" `Quick test_stable_hash_known;
          Alcotest.test_case "floats" `Quick test_stable_hash_floats;
        ] );
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          q heap_sorts_prop;
          q heap_model_prop;
        ] );
      ( "domain-pool",
        [
          Alcotest.test_case "ordered" `Quick test_domain_pool_ordered;
          Alcotest.test_case "exception" `Quick test_domain_pool_exception;
        ] );
    ]
