(* The compiled evaluation engine: unit tests for the Compiled level-plan
   module (level bucketing, cyclic-component steps), compiled simulations
   sharded across domains, and
   observable-equivalence checks against the reference fixpoint engine on
   the shared sample programs — including every error path (Conflict,
   Unstable/diverged and Timeout must fire at the same cycle with the
   same message under both engines). *)

open Calyx

module Sim = Calyx_sim.Sim
module Sched = Calyx_sim.Sched
module Compiled = Calyx_sim.Compiled
module Pool = Calyx_pool.Pool

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Compiled: the level plan in isolation                               *)
(* ------------------------------------------------------------------ *)

(* The same diamond DAG test_sched uses: node 0 writes a; nodes 1,2 read
   a and write b,c; node 3 reads b,c. *)
let diamond () =
  Sched.build ~slots:4
    ~nodes:[| ([], [ 0 ]); ([ 0 ], [ 1 ]); ([ 0 ], [ 2 ]); ([ 1; 2 ], [ 3 ]) |]

let test_plan_diamond () =
  let p = Compiled.plan (diamond ()) in
  Alcotest.(check int) "nodes" 4 p.Compiled.p_nodes;
  Alcotest.(check int) "levels" 3 p.Compiled.p_levels;
  Alcotest.(check int) "no cycles" 0 p.Compiled.p_cyclic;
  let steps =
    Array.to_list p.Compiled.p_steps
    |> List.map (function
         | lvl, Compiled.Straight ns -> (lvl, Array.to_list ns)
         | _, Compiled.Iterate _ -> Alcotest.fail "unexpected Iterate step")
  in
  Alcotest.(check (list (pair int (list int))))
    "one straight step per level, ascending node order"
    [ (0, [ 0 ]); (1, [ 1; 2 ]); (2, [ 3 ]) ]
    steps

(* A 2-node cycle feeding an acyclic reader becomes one Iterate step for
   the component followed by a Straight step for the reader. *)
let test_plan_cycle () =
  let g =
    Sched.build ~slots:3
      ~nodes:[| ([ 1 ], [ 0 ]); ([ 0 ], [ 1 ]); ([ 0; 1 ], [ 2 ]) |]
  in
  let p = Compiled.plan g in
  Alcotest.(check int) "nodes" 3 p.Compiled.p_nodes;
  Alcotest.(check int) "one cyclic component" 1 p.Compiled.p_cyclic;
  let kinds =
    Array.to_list p.Compiled.p_steps
    |> List.map (function
         | _, Compiled.Iterate ns -> ("iterate", Array.to_list ns)
         | _, Compiled.Straight ns -> ("straight", Array.to_list ns))
  in
  Alcotest.(check (list (pair string (list int))))
    "cycle swept before its reader"
    [ ("iterate", [ 0; 1 ]); ("straight", [ 2 ]) ]
    kinds

let test_plan_render () =
  let p = Compiled.plan (diamond ()) in
  let text = Compiled.render ~label:(fun k -> Printf.sprintf "node%d" k) p in
  Alcotest.(check bool) "header" true
    (String.length text > 0
    && String.sub text 0 (String.length "4 nodes") = "4 nodes");
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (contains text needle))
    [ "level 0:"; "level 1:"; "level 2:"; "node0"; "node3" ]

(* ------------------------------------------------------------------ *)
(* Domain-parallel simulation                                          *)
(* ------------------------------------------------------------------ *)

(* Results come back in input order regardless of sharding, and real
   simulations can run concurrently (each call owns its instance). *)
let test_pool_order () =
  let squares = List.init 17 (fun i -> i * i) in
  Alcotest.(check (list int))
    "in order, parallel" squares
    (Pool.map ~jobs:4 (fun i -> i * i) (List.init 17 Fun.id));
  Alcotest.(check (list int))
    "in order, sequential" squares
    (Pool.map ~jobs:1 (fun i -> i * i) (List.init 17 Fun.id))

let test_pool_sims () =
  let cycles =
    Pool.map ~jobs:4
      (fun i ->
        Sim.run (Sim.create ~engine:`Compiled (Progs.counter ~limit:(i + 2) ())))
      (List.init 8 Fun.id)
  in
  let expected =
    List.init 8 (fun i ->
        Sim.run
          (Sim.create ~engine:`Fixpoint (Progs.counter ~limit:(i + 2) ())))
  in
  Alcotest.(check (list int)) "batched = sequential oracle" expected cycles

(* ------------------------------------------------------------------ *)
(* Engine equivalence on the shared sample programs                    *)
(* ------------------------------------------------------------------ *)

let run_both ctx =
  let go engine =
    let sim = Sim.create ~engine ctx in
    let cycles = Sim.run sim in
    (sim, cycles)
  in
  let f, fc = go `Fixpoint in
  let c, cc = go `Compiled in
  Alcotest.(check int) "cycle counts agree" fc cc;
  (f, c)

let check_reg name f c =
  Alcotest.(check int64) ("register " ^ name)
    (Bitvec.to_int64 (Sim.read_register f name))
    (Bitvec.to_int64 (Sim.read_register c name))

let test_counter () =
  let f, c = run_both (Progs.counter ~limit:5 ()) in
  check_reg "r" f c

let test_seq () =
  let f, c = run_both (Progs.two_writes_seq ()) in
  check_reg "x" f c

let test_par () =
  let f, c = run_both (Progs.two_writes_par ()) in
  check_reg "x" f c;
  check_reg "y" f c

let test_if () =
  let f, c = run_both (Progs.if_program ~x:3 ~y:7 ()) in
  check_reg "r" f c;
  let f, c = run_both (Progs.if_program ~x:7 ~y:3 ()) in
  check_reg "r" f c

let test_hierarchy () =
  let f, c = run_both (Progs.hierarchy ~input:21 ()) in
  check_reg "r" f c;
  Alcotest.(check int64) "doubler result" 42L
    (Bitvec.to_int64 (Sim.read_register c "r"))

let test_mult () =
  let f, c = run_both (Progs.mult_program ~x:12 ~y:11 ()) in
  check_reg "r" f c;
  Alcotest.(check int64) "product" 132L
    (Bitvec.to_int64 (Sim.read_register c "r"))

let test_reduction_tree () =
  let ctx = Progs.reduction_tree ~len:4 () in
  let go engine =
    let sim = Sim.create ~engine ctx in
    List.iteri
      (fun i m ->
        Sim.write_memory_ints sim m ~width:32
          (List.init 4 (fun j -> (10 * i) + j)))
      [ "m0"; "m1"; "m2"; "m3" ];
    let cycles = Sim.run sim in
    (cycles, Sim.read_memory_ints sim "out")
  in
  let fc, fm = go `Fixpoint in
  let cc, cm = go `Compiled in
  Alcotest.(check int) "cycles" fc cc;
  Alcotest.(check (list int)) "output memory" fm cm

(* Lowered (flat, FSM-driven) programs — no control tree at all. *)
let test_lowered () =
  List.iter
    (fun ctx ->
      let lowered = Pipelines.compile ctx in
      let f, c = run_both lowered in
      ignore f;
      ignore c)
    [
      Progs.counter ~limit:4 ();
      Progs.two_writes_seq ();
      Progs.reduction_tree ~len:2 ();
    ]

(* ------------------------------------------------------------------ *)
(* Error-path parity                                                   *)
(* ------------------------------------------------------------------ *)

let error_info run ctx engine =
  let sim = Sim.create ~engine ctx in
  match run sim with
  | exception Sim.Conflict { cycle; message; snapshot } ->
      Alcotest.(check bool) "snapshot non-empty" true (snapshot <> "");
      ("conflict", cycle, message)
  | exception Sim.Unstable { cycle; message; snapshot } ->
      Alcotest.(check bool) "snapshot non-empty" true (snapshot <> "");
      ("unstable", cycle, message)
  | exception Sim.Timeout { budget; snapshot } ->
      Alcotest.(check bool) "snapshot non-empty" true (snapshot <> "");
      ("timeout", budget, "")
  | _ -> Alcotest.fail "expected a simulation error"

let check_parity kind ctx run =
  let fk, fc, fm = error_info run ctx `Fixpoint in
  let ck, cc, cm = error_info run ctx `Compiled in
  Alcotest.(check string) "kind" kind fk;
  Alcotest.(check string) "same kind" fk ck;
  Alcotest.(check int) "same cycle" fc cc;
  Alcotest.(check string) "same message" fm cm

let test_conflict_parity () =
  check_parity "conflict" (Progs.conflict_program ()) (fun sim -> Sim.run sim)

(* The diverged path: a combinational cycle trips the compiled engine's
   sweep budget with the fixpoint engine's exact message and cycle. *)
let test_unstable_parity () =
  check_parity "unstable" (Progs.unstable_program ()) (fun sim -> Sim.run sim)

let test_timeout_parity () =
  check_parity "timeout"
    (Progs.counter ~limit:200 ())
    (fun sim -> Sim.run ~max_cycles:10 sim)

(* ------------------------------------------------------------------ *)
(* Engine plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let test_engine_accessor () =
  let ctx = Progs.counter ~limit:2 () in
  Alcotest.(check bool) "default is compiled" true
    (Sim.engine (Sim.create ctx) = `Compiled);
  Alcotest.(check bool) "fixpoint reported" true
    (Sim.engine (Sim.create ~engine:`Fixpoint ctx) = `Fixpoint);
  Alcotest.(check (list string)) "engine names" [ "fixpoint"; "compiled" ]
    (List.map Sim.engine_name [ `Fixpoint; `Compiled ])

(* compiled_plan: Some under `Compiled (mentioning levels and the fold
   annotations), None under the fixpoint engine. *)
let test_compiled_plan () =
  let ctx = Progs.counter ~limit:3 () in
  Alcotest.(check bool) "fixpoint has no plan" true
    (Sim.compiled_plan (Sim.create ~engine:`Fixpoint ctx) = None);
  match Sim.compiled_plan (Sim.create ~engine:`Compiled ctx) with
  | None -> Alcotest.fail "compiled engine must expose its plan"
  | Some text ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " present") true
            (contains text needle))
        [ "component main"; "guards folded"; "level 0" ]

(* A test-bench register write behind the compiled plan's back must be
   picked up by the next settle. *)
let test_testbench_write () =
  let ctx = Progs.counter ~limit:10 () in
  let go engine =
    let sim = Sim.create ~engine ctx in
    Sim.set_input sim "go" (Bitvec.one 1);
    for _ = 1 to 8 do
      Sim.cycle sim
    done;
    Sim.write_register sim "r" (Bitvec.of_int ~width:8 9);
    let extra = ref 0 in
    while not (Sim.done_seen sim) do
      Sim.cycle sim;
      incr extra
    done;
    (!extra, Bitvec.to_int64 (Sim.read_register sim "r"))
  in
  let fe, fr = go `Fixpoint in
  let ce, cr = go `Compiled in
  Alcotest.(check int) "same remaining cycles" fe ce;
  Alcotest.(check int64) "same final value" fr cr

(* ev_iters under the compiled engine counts executed plan nodes. *)
let test_iters_stat () =
  let ctx = Progs.counter ~limit:5 () in
  let sim = Sim.create ~engine:`Compiled ctx in
  let total = ref 0 in
  Sim.add_sink sim (fun ev -> total := !total + ev.Sim.ev_iters);
  ignore (Sim.run sim);
  Alcotest.(check bool) "plan nodes recorded" true (!total > 0)

let () =
  Alcotest.run "compiled"
    [
      ( "plan",
        [
          Alcotest.test_case "diamond levels" `Quick test_plan_diamond;
          Alcotest.test_case "cyclic component" `Quick test_plan_cycle;
          Alcotest.test_case "render" `Quick test_plan_render;
        ] );
      ( "batch",
        [
          Alcotest.test_case "domain-parallel order" `Quick test_pool_order;
          Alcotest.test_case "domain-parallel sims" `Quick test_pool_sims;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "seq" `Quick test_seq;
          Alcotest.test_case "par" `Quick test_par;
          Alcotest.test_case "if" `Quick test_if;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy;
          Alcotest.test_case "pipelined mult" `Quick test_mult;
          Alcotest.test_case "reduction tree" `Quick test_reduction_tree;
          Alcotest.test_case "lowered programs" `Quick test_lowered;
        ] );
      ( "errors",
        [
          Alcotest.test_case "conflict parity" `Quick test_conflict_parity;
          Alcotest.test_case "unstable (diverged) parity" `Quick
            test_unstable_parity;
          Alcotest.test_case "timeout parity" `Quick test_timeout_parity;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "engine accessor" `Quick test_engine_accessor;
          Alcotest.test_case "compiled plan" `Quick test_compiled_plan;
          Alcotest.test_case "test-bench write" `Quick test_testbench_write;
          Alcotest.test_case "iters stat" `Quick test_iters_stat;
        ] );
    ]
