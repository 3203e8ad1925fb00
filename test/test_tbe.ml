open Ascend.Tbe
module Tensor = Ascend.Tensor.Tensor
module Shape = Ascend.Tensor.Shape
module Ops = Ascend.Tensor.Ops
module Prng = Ascend.Util.Prng
module Config = Ascend.Arch.Config

let t1 data = Tensor.of_array (Shape.vector (Array.length data)) data

(* ------------------------------------------------------------------ *)
(* Expr                                                               *)

let test_eval_scalar () =
  let e = Expr.(Add (Mul (x0, x0), Const 1.)) in
  Alcotest.(check (float 1e-12)) "x^2+1 at 3" 10. (Expr.eval_scalar e [| 3. |]);
  Alcotest.(check int) "arity" 1 (Expr.arity e);
  Alcotest.(check int) "passes" 2 (Expr.passes e)

let test_eval_tensorwise () =
  let e = Expr.(Max (x0, x1)) in
  let a = t1 [| 1.; 5.; -2. |] and b = t1 [| 3.; 2.; -7. |] in
  let out = Expr.eval e [ a; b ] in
  Alcotest.(check (float 0.)) "max0" 3. (Tensor.get_flat out 0);
  Alcotest.(check (float 0.)) "max1" 5. (Tensor.get_flat out 1);
  Alcotest.(check (float 0.)) "max2" (-2.) (Tensor.get_flat out 2)

let test_eval_errors () =
  let e = Expr.(Add (x0, x1)) in
  Alcotest.(check bool) "missing input raises" true
    (try
       ignore (Expr.eval e [ t1 [| 1. |] ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "shape mismatch raises" true
    (try
       ignore (Expr.eval e [ t1 [| 1. |]; t1 [| 1.; 2. |] ]);
       false
     with Invalid_argument _ -> true)

let sigmoid_matches_reference =
  QCheck.Test.make ~count:100 ~name:"DSL sigmoid == Ops.sigmoid"
    QCheck.(float_range (-10.) 10.)
    (fun x ->
      let dsl = Expr.eval_scalar (Expr.sigmoid Expr.x0) [| x |] in
      let reference = Tensor.get_flat (Ops.sigmoid (t1 [| x |])) 0 in
      Float.abs (dsl -. reference) < 1e-12)

let gelu_matches_reference =
  QCheck.Test.make ~count:100 ~name:"DSL gelu == Ops.gelu"
    QCheck.(float_range (-10.) 10.)
    (fun x ->
      let dsl = Expr.eval_scalar (Expr.gelu_tanh Expr.x0) [| x |] in
      let reference = Tensor.get_flat (Ops.gelu (t1 [| x |])) 0 in
      Float.abs (dsl -. reference) < 1e-9)

let test_operators_sugar () =
  let e = Expr.(x0 + (x1 * c 2.)) in
  Alcotest.(check (float 1e-12)) "1 + 3*2" 7. (Expr.eval_scalar e [| 1.; 3. |])

let test_pp () =
  let s = Format.asprintf "%a" Expr.pp Expr.(Relu (x0 - c 1.)) in
  Alcotest.(check string) "pretty" "(relu (x0 - 1))" s

(* ------------------------------------------------------------------ *)
(* Kernel lowering                                                    *)

let test_kernel_program_validates () =
  let k =
    Kernel.make ~name:"gelu" ~expr:(Expr.gelu_tanh Expr.x0) ~elems:100_000 ()
  in
  List.iter
    (fun config ->
      if Ascend.Arch.Config.supports config Ascend.Arch.Precision.Fp16 then begin
        let p = Kernel.to_program config k in
        match Ascend.Isa.Program.validate config p with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s: %s" config.Config.name e
      end)
    Config.all

let test_kernel_simulates () =
  let k =
    Kernel.make ~name:"axpy" ~expr:Expr.(x0 + (x1 * c 3.)) ~elems:65536 ()
  in
  match Kernel.simulate Config.max k with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "vector cycles present" true
      ((Ascend.Core_sim.Simulator.pipe_stats r Ascend.Isa.Pipe.Vector)
         .Ascend.Core_sim.Simulator.busy_cycles
      > 0);
    (* no cube work in an elementwise kernel *)
    Alcotest.(check int) "no cube work" 0
      (Ascend.Core_sim.Simulator.pipe_stats r Ascend.Isa.Pipe.Cube)
        .Ascend.Core_sim.Simulator.busy_cycles

let test_estimate_tracks_simulation () =
  let k =
    Kernel.make ~name:"relu" ~expr:(Expr.Relu Expr.x0) ~elems:1_000_000 ()
  in
  match Kernel.simulate Config.max k with
  | Error e -> Alcotest.fail e
  | Ok r ->
    let est = Kernel.estimated_cycles Config.max k in
    let sim = r.Ascend.Core_sim.Simulator.total_cycles in
    Alcotest.(check bool) "within 4x" true
      (float_of_int sim /. float_of_int est < 4.
      && float_of_int est /. float_of_int sim < 4.)

let test_kernel_run_numeric () =
  let k = Kernel.make ~name:"square" ~expr:Expr.(x0 * x0) ~elems:8 () in
  let rng = Prng.create ~seed:1 in
  let x = Tensor.random rng (Shape.vector 8) in
  let y = Kernel.run k [ x ] in
  for i = 0 to 7 do
    Alcotest.(check (float 1e-12)) "squared"
      (Tensor.get_flat x i *. Tensor.get_flat x i)
      (Tensor.get_flat y i)
  done

let test_kernel_bad_elems () =
  Alcotest.(check bool) "0 elems raises" true
    (try
       ignore (Kernel.make ~name:"x" ~expr:Expr.x0 ~elems:0 ());
       false
     with Invalid_argument _ -> true)

let deeper_expr_costs_more_prop =
  (* below ~3 passes the kernel is streaming-bound (the MTE pipes hide
     the vector work), so monotonicity in passes only holds once the
     vector unit is the bottleneck *)
  QCheck.Test.make ~count:20 ~name:"more passes, more simulated cycles"
    QCheck.(int_range 3 8)
    (fun depth ->
      let rec build d = if d = 0 then Expr.x0 else Expr.Relu (build (d - 1)) in
      let cycles d =
        let k = Kernel.make ~name:"d" ~expr:(build d) ~elems:500_000 () in
        match Kernel.simulate Config.max k with
        | Ok r -> r.Ascend.Core_sim.Simulator.total_cycles
        | Error _ -> -1
      in
      cycles depth <= cycles (depth + 1))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tbe"
    [
      ( "expr",
        [
          Alcotest.test_case "eval scalar" `Quick test_eval_scalar;
          Alcotest.test_case "eval tensor" `Quick test_eval_tensorwise;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "operators" `Quick test_operators_sugar;
          Alcotest.test_case "pp" `Quick test_pp;
          q sigmoid_matches_reference;
          q gelu_matches_reference;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "program validates" `Quick
            test_kernel_program_validates;
          Alcotest.test_case "simulates" `Quick test_kernel_simulates;
          Alcotest.test_case "estimate tracks sim" `Quick
            test_estimate_tracks_simulation;
          Alcotest.test_case "numeric run" `Quick test_kernel_run_numeric;
          Alcotest.test_case "bad elems" `Quick test_kernel_bad_elems;
          q deeper_expr_costs_more_prop;
        ] );
    ]
