(* HLS baseline model tests: the model computes through Dahlia.Eval (which
   test_polybench checks against the Calyx hardware flow), and its
   schedule must produce the comparison shapes of the paper. *)

open Calyx

let kernel_prog k ~unrolled = Polybench.Harness.program k ~unrolled

let test_hls_faster_than_calyx () =
  (* Figure 8a's direction: the mature-HLS model beats Dahlia→Calyx on
     sequential kernels by a small factor. *)
  List.iter
    (fun name ->
      let k = Polybench.Kernels.find name in
      let calyx = Polybench.Harness.run k ~unrolled:false in
      let hls =
        Hls_model.run (kernel_prog k ~unrolled:false)
          ~inputs:k.Polybench.Kernels.inputs
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: HLS %d < Calyx %d" name hls.Hls_model.cycles
           calyx.Polybench.Harness.cycles)
        true
        (hls.Hls_model.cycles < calyx.Polybench.Harness.cycles))
    [ "gemm"; "atax"; "trisolv" ]

let test_matmul_baseline () =
  let src = Hls_model.matmul_source ~n:4 in
  let prog = Dahlia.Parser.parse_string src in
  let a = List.init 16 (fun i -> i + 1) in
  let b = List.init 16 (fun i -> 2 * (i + 1)) in
  let report = Hls_model.run prog ~inputs:[ ("A", a); ("B", b) ] in
  Alcotest.(check bool) "positive cycles" true (report.Hls_model.cycles > 0);
  let outs = Dahlia.Eval.run prog ~inputs:[ ("A", a); ("B", b) ] in
  let c = List.assoc "C" outs in
  (* C[0][0] = sum over k of A[0][k]*B[k][0]. *)
  let expected00 =
    List.fold_left ( + ) 0
      (List.init 4 (fun k -> List.nth a k * List.nth b (k * 4)))
  in
  Alcotest.(check int) "C[0][0]" expected00 c.(0)

let test_port_pressure_grows () =
  (* The straightforward HLS matmul is memory-port bound: its cycles grow
     ~cubically while the systolic array's grow quadratically — the
     Figure 7a crossover mechanism. *)
  let cycles n =
    let prog = Dahlia.Parser.parse_string (Hls_model.matmul_source ~n) in
    (Hls_model.run prog ~inputs:[]).Hls_model.cycles
  in
  let c2 = cycles 2 and c4 = cycles 4 and c8 = cycles 8 in
  Alcotest.(check bool) "monotone" true (c2 < c4 && c4 < c8);
  Alcotest.(check bool)
    (Printf.sprintf "superquadratic growth: %d %d %d" c2 c4 c8)
    true
    (c8 * 1 > c4 * 4)

let test_systolic_beats_hls () =
  (* The headline Figure 7a direction at one size. *)
  let n = 4 in
  let d = { Systolic.rows = n; cols = n; depth = n; width = 32 } in
  let ctx = Pipelines.compile (Systolic.generate d) in
  let sim = Calyx_sim.Sim.create ctx in
  let systolic_cycles = Calyx_sim.Sim.run sim in
  let prog = Dahlia.Parser.parse_string (Hls_model.matmul_source ~n) in
  let hls_cycles = (Hls_model.run prog ~inputs:[]).Hls_model.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "systolic %d < HLS %d" systolic_cycles hls_cycles)
    true
    (systolic_cycles < hls_cycles)

let test_while_trip_counts () =
  (* Data-dependent loops are measured, not guessed. *)
  let src = {|
    decl out: ubit<32>[1];
    let i: ubit<32> = 0
    ---
    while (i < 37) { i := i + 1 }
    ---
    out[0] := i
  |} in
  let prog = Dahlia.Parser.parse_string src in
  let report = Hls_model.run prog ~inputs:[] in
  let outs = Dahlia.Eval.run prog ~inputs:[] in
  Alcotest.(check int) "loop result" 37 (List.assoc "out" outs).(0);
  (* Pipelined with II=1: roughly depth + iters. *)
  Alcotest.(check bool)
    (Printf.sprintf "pipelined cost (%d)" report.Hls_model.cycles)
    true
    (report.Hls_model.cycles < 2 * 37)

let test_area_positive () =
  let k = Polybench.Kernels.find "gemm" in
  let report =
    Hls_model.run (kernel_prog k ~unrolled:false)
      ~inputs:k.Polybench.Kernels.inputs
  in
  Alcotest.(check bool) "has DSPs" true (report.Hls_model.area.Calyx_synth.Area.dsps > 0);
  Alcotest.(check bool) "has LUTs" true (report.Hls_model.area.Calyx_synth.Area.luts > 0)

let () =
  Alcotest.run "hls"
    [
      ( "functional",
        [
          Alcotest.test_case "matmul baseline" `Quick test_matmul_baseline;
          Alcotest.test_case "while trip counts" `Quick test_while_trip_counts;
        ] );
      ( "schedule shapes",
        [
          Alcotest.test_case "HLS beats sequential Calyx" `Slow
            test_hls_faster_than_calyx;
          Alcotest.test_case "port pressure grows with size" `Quick
            test_port_pressure_grows;
          Alcotest.test_case "systolic beats HLS matmul" `Quick
            test_systolic_beats_hls;
          Alcotest.test_case "area estimates" `Quick test_area_positive;
        ] );
    ]
