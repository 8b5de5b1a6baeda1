(* Systolic array generator tests: functional correctness against the
   generator's software matmul ([Systolic.product]), the test bench's
   check, latency inference, and compiled-vs-interpreted agreement. *)

open Calyx

let test_matrices d =
  let a =
    Array.init d.Systolic.rows (fun r ->
        Array.init d.Systolic.depth (fun k -> (r * 3) + k + 1))
  in
  let b =
    Array.init d.Systolic.depth (fun k ->
        Array.init d.Systolic.cols (fun c -> (k * 2) + c + 1))
  in
  (a, b)

let check_result name d got expected =
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c v ->
          Alcotest.(check int)
            (Printf.sprintf "%s: C[%d][%d]" name r c)
            expected.(r).(c) v)
        row)
    got;
  ignore d

(* Simulate [ctx] on the test matrices: (result, software product,
   cycles). *)
let run_on ctx d =
  let a, b = test_matrices d in
  let sim = Calyx_sim.Sim.create ctx in
  let io = Calyx_sim.Testbench.of_sim sim in
  Systolic.load d ~a ~b io;
  let cycles = Calyx_sim.Sim.run sim in
  (Systolic.result d io, Systolic.product d a b, cycles)

let run_interp d =
  let ctx = Systolic.generate d in
  Well_formed.check ctx;
  run_on ctx d

let run_compiled config d =
  run_on (Pipelines.compile ~config (Systolic.generate d)) d

let square n = { Systolic.rows = n; cols = n; depth = n; width = 32 }

let test_interp_2x2 () =
  let got, expected, _ = run_interp (square 2) in
  check_result "interp" (square 2) got expected

let test_interp_rectangular () =
  let d = { Systolic.rows = 2; cols = 3; depth = 4; width = 32 } in
  let got, expected, _ = run_interp d in
  check_result "rect" d got expected

let test_compiled_insensitive () =
  let d = square 3 in
  let got, expected, _ = run_compiled Pipelines.insensitive_config d in
  check_result "insensitive" d got expected

let test_compiled_static () =
  let d = square 3 in
  let got, expected, _ = run_compiled Pipelines.default_config d in
  check_result "static" d got expected

let test_static_speedup () =
  let d = square 3 in
  let _, _, insensitive = run_compiled Pipelines.insensitive_config d in
  let sensitive_config =
    {
      Pipelines.insensitive_config with
      Pipelines.infer_latency = true;
      Pipelines.static_timing = true;
    }
  in
  let _, _, static = run_compiled sensitive_config d in
  Alcotest.(check bool)
    (Printf.sprintf "static %d < insensitive %d" static insensitive)
    true (static < insensitive)

let test_latency_fully_inferred () =
  (* The generator emits no static attributes; inference recovers them for
     every group and for the whole array (Section 6.1). *)
  let ctx = Systolic.generate (square 2) in
  let main = Ir.entry ctx in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "no frontend annotation on %s" g.Ir.group_name)
        true
        (Attrs.static g.Ir.group_attrs = None))
    main.Ir.groups;
  let inferred = Pass.run Infer_latency.pass ctx in
  let main = Ir.entry inferred in
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (Printf.sprintf "inferred latency for %s" g.Ir.group_name)
        true
        (Attrs.static g.Ir.group_attrs <> None))
    main.Ir.groups;
  Alcotest.(check bool) "whole array latency inferred" true
    (Attrs.static main.Ir.comp_attrs <> None);
  let pe = Ir.find_component inferred "mac_pe" in
  Alcotest.(check (option int)) "PE latency = mult + accumulate"
    (Some (Prims.mult_latency + 1))
    (Attrs.static pe.Ir.comp_attrs)

let test_sizes_agree () =
  (* Interpreter and fully optimized compilation agree on all small sizes. *)
  List.iter
    (fun n ->
      let d = square n in
      let got_i, expected, _ = run_interp d in
      check_result "interp" d got_i expected;
      let got_c, _, _ = run_compiled Pipelines.default_config d in
      check_result "compiled" d got_c expected)
    [ 2; 4 ]

let test_sad_pe () =
  (* PE-parametricity: the same generator with a SAD processing element
     computes C[r][c] = sum_k |A[r][k] - B[k][c]|. *)
  let d = square 3 in
  let ctx =
    Pipelines.compile (Systolic.generate ~pe:(Systolic.sad_pe ~width:32) d)
  in
  let a = [| [| 9; 2; 7 |]; [| 1; 8; 3 |]; [| 4; 4; 4 |] |] in
  let b = [| [| 5; 5; 5 |]; [| 2; 9; 1 |]; [| 7; 0; 6 |] |] in
  let sim = Calyx_sim.Sim.create ctx in
  let io = Calyx_sim.Testbench.of_sim sim in
  Systolic.load d ~a ~b io;
  ignore (Calyx_sim.Sim.run sim);
  let got = Systolic.result d io in
  let expected =
    Array.init 3 (fun r ->
        Array.init 3 (fun c ->
            let acc = ref 0 in
            for k = 0 to 2 do
              acc := !acc + abs (a.(r).(k) - b.(k).(c))
            done;
            !acc))
  in
  check_result "sad" d got expected;
  (* The SAD PE is single-cycle, so latency inference applies here too. *)
  let inferred =
    Pass.run Infer_latency.pass
      (Systolic.generate ~pe:(Systolic.sad_pe ~width:32) d)
  in
  Alcotest.(check (option int)) "sad PE static" (Some 1)
    (Attrs.static (Ir.find_component inferred "sad_pe").Ir.comp_attrs)

(* Sizes and matrix entries both derive from the Fuzz_seed program seed,
   so a failing case replays from CALYX_TEST_SEED alone. *)
let prop_random_matrices =
  QCheck.Test.make ~name:"random matrices multiply correctly" ~count:10
    (Fuzz_seed.seed_arb "systolic-matrices")
    (fun seed ->
      let st = Fuzz_seed.state_of seed in
      let n = 2 + Random.State.int st 2 in
      let d = square n in
      let a =
        Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int st 256))
      in
      let b =
        Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int st 256))
      in
      let ctx = Pipelines.compile (Systolic.generate d) in
      let sim = Calyx_sim.Sim.create ctx in
      let io = Calyx_sim.Testbench.of_sim sim in
      Systolic.load d ~a ~b io;
      ignore (Calyx_sim.Sim.run sim);
      Systolic.result d io = Systolic.product d a b)

(* The compiled square array of size [n] run under [tb]; returns its
   final state. *)
let simulate n (tb : Calyx_sim.Testbench.t) =
  let sim =
    Calyx_sim.Sim.create (Pipelines.compile (Systolic.generate (square n)))
  in
  let io = Calyx_sim.Testbench.of_sim sim in
  tb.load io;
  ignore (Calyx_sim.Sim.run sim);
  io

(* The test bench's check bites: after a correct run, one corrupted
   entry of the result memory is reported with exactly the message the
   farm records. *)
let test_check_bites () =
  let d = square 2 in
  let a, b = Systolic.sample d in
  let tb = Systolic.testbench d ~a ~b in
  let io = simulate 2 tb in
  Alcotest.(check (list string)) "correct run" [] (tb.check io);
  let out = Array.copy (io.read_memory Systolic.out_memory) in
  out.(3) <- Bitvec.of_int ~width:d.width 42;
  io.write_memory Systolic.out_memory out;
  Alcotest.(check (list string)) "one corrupted entry"
    [ "product mismatch at C[1][1]: 42 <> 43" ]
    (tb.check io)

(* Entries of 70 000 make every product exceed 2^32: the 32-bit
   accumulators wrap, and so does the reference. *)
let test_wraparound () =
  let d = square 2 in
  let a = [| [| 70_000; 70_001 |]; [| 70_002; 70_003 |] |] in
  let b = [| [| 80_000; 80_001 |]; [| 80_002; 80_003 |] |] in
  Alcotest.(check bool) "a dot product exceeds 2^32" true
    ((a.(0).(0) * b.(0).(0)) + (a.(0).(1) * b.(1).(0)) > 1 lsl 32);
  let tb = Systolic.testbench d ~a ~b in
  let io = simulate 2 tb in
  check_result "wrapped" d (Systolic.result d io) (Systolic.product d a b);
  Alcotest.(check (list string)) "check passes" [] (tb.check io)

(* Shapes whose grid indices reach two digits, where "pe_1_11" and
   "pe_11_1" must stay apart, up to 32x32, plus single-row, single-column
   and fully rectangular arrays: each compiles, runs and passes its test
   bench. *)
let test_large_shapes () =
  List.iter
    (fun (rows, cols, depth) ->
      let d = { Systolic.rows; cols; depth; width = 32 } in
      let a, b = Systolic.sample d in
      let tb = Systolic.testbench d ~a ~b in
      let _, check =
        Calyx_sim.Testbench.run tb (Pipelines.compile (Systolic.generate d))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "%dx%dx%d" rows cols depth)
        [] check)
    [
      (12, 12, 12);
      (16, 16, 16);
      (24, 24, 24);
      (32, 32, 32);
      (1, 12, 12);
      (12, 1, 12);
      (5, 12, 7);
    ]

(* A dimension below 1 is rejected by name, before any cell is made. *)
let test_empty_dimensions () =
  List.iter
    (fun (rows, cols, depth) ->
      let what = Printf.sprintf "%dx%dx%d" rows cols depth in
      Alcotest.check_raises what
        (Invalid_argument
           (Printf.sprintf
              "Systolic.generate: dimensions %s, each must be at least 1" what))
        (fun () ->
          ignore (Systolic.generate { Systolic.rows; cols; depth; width = 32 })))
    [ (0, 2, 2); (2, 0, 2); (2, 2, 0); (-1, 1, 1) ]

let () =
  Alcotest.run "systolic"
    [
      ( "functional",
        [
          Alcotest.test_case "2x2 interpreter" `Quick test_interp_2x2;
          Alcotest.test_case "rectangular array" `Quick test_interp_rectangular;
          Alcotest.test_case "3x3 compiled (insensitive)" `Quick
            test_compiled_insensitive;
          Alcotest.test_case "3x3 compiled (all optimizations)" `Quick
            test_compiled_static;
          Alcotest.test_case "sizes 2 and 4 agree" `Slow test_sizes_agree;
          Alcotest.test_case "SAD processing element" `Quick test_sad_pe;
          QCheck_alcotest.to_alcotest prop_random_matrices;
          Alcotest.test_case "wrap-around at the data width" `Quick
            test_wraparound;
          Alcotest.test_case "shapes above 10x10" `Quick test_large_shapes;
          Alcotest.test_case "dimensions below 1" `Quick test_empty_dimensions;
        ] );
      ( "test bench",
        [
          Alcotest.test_case "a corrupted entry is reported" `Quick
            test_check_bites;
        ] );
      ( "latency",
        [
          Alcotest.test_case "static beats insensitive" `Quick
            test_static_speedup;
          Alcotest.test_case "latencies fully inferred" `Quick
            test_latency_fully_inferred;
        ] );
    ]
