(* PolyBench kernel tests: every kernel (sequential and unrolled) must
   compute what its Dahlia source means (Dahlia.Eval), under the
   interpreter and under compiled configurations. *)

let quick_kernels = [ "gemm"; "atax"; "trisolv"; "cholesky"; "durbin" ]

let check_result name (r : Polybench.Harness.result) =
  if not r.Polybench.Harness.correct then
    Alcotest.failf "%s: mismatching outputs: %s" name
      (String.concat ", " r.Polybench.Harness.mismatches);
  Alcotest.(check bool) (name ^ " ran") true (r.Polybench.Harness.cycles > 0)

(* The structured program, before the compilation pipeline, under the
   simulator's control interpreter. *)
let test_interp_quick () =
  List.iter
    (fun name ->
      let k = Polybench.Kernels.find name in
      let prog = Polybench.Harness.program k ~unrolled:false in
      let cycles, mismatches =
        Calyx_sim.Testbench.run
          (Polybench.Harness.testbench k prog)
          (Dahlia.To_calyx.compile prog)
      in
      if mismatches <> [] then
        Alcotest.failf "%s/interp: mismatching outputs: %s" name
          (String.concat ", " mismatches);
      Alcotest.(check bool) (name ^ "/interp ran") true (cycles > 0))
    quick_kernels

let test_compiled_all_kernels () =
  List.iter
    (fun k ->
      check_result
        (k.Polybench.Kernels.name ^ "/compiled")
        (Polybench.Harness.run k ~unrolled:false))
    Polybench.Kernels.all

let test_compiled_insensitive () =
  List.iter
    (fun name ->
      let k = Polybench.Kernels.find name in
      check_result (name ^ "/insensitive")
        (Polybench.Harness.run ~config:Calyx.Pipelines.insensitive_config k
           ~unrolled:false))
    quick_kernels

let test_unrolled_variants () =
  List.iter
    (fun k ->
      check_result
        (k.Polybench.Kernels.name ^ "/unrolled")
        (Polybench.Harness.run k ~unrolled:true))
    Polybench.Kernels.unrollable

let test_unrolled_faster () =
  (* Unrolling unlocks parallelism: fewer cycles than sequential. *)
  List.iter
    (fun name ->
      let k = Polybench.Kernels.find name in
      let seq = Polybench.Harness.run k ~unrolled:false in
      let par = Polybench.Harness.run k ~unrolled:true in
      Alcotest.(check bool)
        (Printf.sprintf "%s: unrolled %d < sequential %d" name
           par.Polybench.Harness.cycles seq.Polybench.Harness.cycles)
        true
        (par.Polybench.Harness.cycles < seq.Polybench.Harness.cycles))
    [ "gemm"; "atax"; "gesummv" ]

let test_static_speedup_all () =
  (* The Sensitive pass speeds up every kernel (Figure 9c's direction). *)
  List.iter
    (fun name ->
      let k = Polybench.Kernels.find name in
      let stat = Polybench.Harness.run k ~unrolled:false in
      let insens =
        Polybench.Harness.run ~config:Calyx.Pipelines.insensitive_config k
          ~unrolled:false
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: static %d < insensitive %d" name
           stat.Polybench.Harness.cycles insens.Polybench.Harness.cycles)
        true
        (stat.Polybench.Harness.cycles < insens.Polybench.Harness.cycles))
    quick_kernels

let test_register_sharing_reduces_registers () =
  (* Figure 9b's direction: register sharing reduces register cells. *)
  let open Calyx.Pipelines in
  let count config name =
    let k = Polybench.Kernels.find name in
    let r = Polybench.Harness.run ~config k ~unrolled:false in
    (r.Polybench.Harness.area.Calyx_synth.Area.register_cells,
     r.Polybench.Harness.correct)
  in
  List.iter
    (fun name ->
      let base, ok1 = count insensitive_config name in
      let shared, ok2 =
        count { insensitive_config with register_sharing = true } name
      in
      Alcotest.(check bool) (name ^ " correct") true (ok1 && ok2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d <= %d registers" name shared base)
        true (shared <= base))
    [ "gemm"; "gemver"; "trisolv" ]

let test_inputs_deterministic () =
  let k = Polybench.Kernels.find "gemm" in
  let k' = Polybench.Kernels.find "gemm" in
  Alcotest.(check bool) "same inputs" true
    (k.Polybench.Kernels.inputs = k'.Polybench.Kernels.inputs)

(* Every variant on two random input sets: values in 1..19, like the
   kernels' own data, and full 32-bit values, whose sums and products
   wrap. The test bench compares the simulated final contents of every
   declared memory, scratch memories included, with Dahlia.Eval.run on
   the same inputs. *)
let test_random_inputs () =
  let rng = Random.State.make [| 5 |] in
  let input_sets =
    [
      ("values in 1..19", fun () -> 1 + Random.State.int rng 19);
      ( "32-bit values",
        fun () -> Random.State.bits rng lor (Random.State.int rng 4 lsl 30) );
    ]
  in
  let variants =
    List.map (fun k -> (k, false)) Polybench.Kernels.all
    @ List.map (fun k -> (k, true)) Polybench.Kernels.unrollable
  in
  List.iter
    (fun ((k : Polybench.Kernels.kernel), unrolled) ->
      let prog = Polybench.Harness.program k ~unrolled in
      let lowered = Calyx.Pipelines.compile (Dahlia.To_calyx.compile prog) in
      List.iter
        (fun (label, draw) ->
          let inputs =
            List.map
              (fun (name, values) -> (name, List.map (fun _ -> draw ()) values))
              k.inputs
          in
          let tb = Polybench.Harness.testbench { k with inputs } prog in
          match Calyx_sim.Testbench.run tb lowered with
          | _, [] -> ()
          | _, mismatches ->
              Alcotest.failf "%s%s on %s: %s" k.name
                (if unrolled then "-unrolled" else "")
                label
                (String.concat ", " mismatches))
        input_sets)
    variants

(* The kernel's test bench bites: after a correct run, one corrupted
   element of an output memory is reported with exactly the message the
   farm records. *)
let test_check_bites () =
  let k = Polybench.Kernels.find "gemm" in
  let prog = Polybench.Harness.program k ~unrolled:false in
  let tb = Polybench.Harness.testbench k prog in
  let sim =
    Calyx_sim.Sim.create
      (Calyx.Pipelines.compile (Dahlia.To_calyx.compile prog))
  in
  let io = Calyx_sim.Testbench.of_sim sim in
  tb.load io;
  ignore (Calyx_sim.Sim.run sim);
  Alcotest.(check (list string)) "correct run" [] (tb.check io);
  let c = Array.copy (io.read_memory "C") in
  c.(5) <- Calyx.Bitvec.(of_int ~width:(width c.(5)) (to_int c.(5) + 1));
  io.write_memory "C" c;
  Alcotest.(check (list string)) "one corrupted element"
    [ "golden mismatch in memory C" ]
    (tb.check io)

let test_kernel_count () =
  Alcotest.(check int) "19 kernels" 19 (List.length Polybench.Kernels.all);
  Alcotest.(check int) "11 unrollable" 11
    (List.length Polybench.Kernels.unrollable)

let () =
  Alcotest.run "polybench"
    [
      ( "structure",
        [
          Alcotest.test_case "kernel inventory" `Quick test_kernel_count;
          Alcotest.test_case "deterministic inputs" `Quick
            test_inputs_deterministic;
        ] );
      ( "correctness",
        [
          Alcotest.test_case "interpreter (subset)" `Quick test_interp_quick;
          Alcotest.test_case "all kernels compiled" `Slow
            test_compiled_all_kernels;
          Alcotest.test_case "insensitive configuration" `Quick
            test_compiled_insensitive;
          Alcotest.test_case "all unrolled variants" `Slow
            test_unrolled_variants;
          Alcotest.test_case "random inputs match Dahlia.Eval" `Slow
            test_random_inputs;
          Alcotest.test_case "a corrupted output is reported" `Quick
            test_check_bites;
        ] );
      ( "performance shape",
        [
          Alcotest.test_case "unrolling speeds up" `Slow test_unrolled_faster;
          Alcotest.test_case "static compilation speeds up" `Slow
            test_static_speedup_all;
          Alcotest.test_case "register sharing reduces registers" `Slow
            test_register_sharing_reduces_registers;
        ] );
    ]
