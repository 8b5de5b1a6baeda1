(* Compiler pass tests: each lowering/optimization pass individually, plus
   differential testing of compiled designs against the reference
   interpreter across pass configurations. *)

open Calyx
open Calyx.Ir

let interp_run ?inputs ctx =
  let sim = Calyx_sim.Sim.create ~engine:`Fixpoint ctx in
  Option.iter (fun f -> f sim) inputs;
  let cycles = Calyx_sim.Sim.run sim in
  (sim, cycles)

let compiled_run ?inputs ~config ctx =
  let lowered = Pipelines.compile ~config ctx in
  let main = entry lowered in
  Alcotest.(check int) "no groups left" 0 (List.length main.groups);
  Alcotest.(check bool) "control empty" true (main.control = Empty);
  let sim = Calyx_sim.Sim.create lowered in
  Option.iter (fun f -> f sim) inputs;
  let cycles = Calyx_sim.Sim.run sim in
  (sim, cycles)

let configs =
  [
    ("insensitive", Pipelines.insensitive_config);
    ( "static",
      { Pipelines.insensitive_config with Pipelines.static_timing = true } );
    ( "infer+static",
      {
        Pipelines.insensitive_config with
        Pipelines.infer_latency = true;
        Pipelines.static_timing = true;
      } );
    ( "sharing",
      {
        Pipelines.insensitive_config with
        Pipelines.resource_sharing = true;
        Pipelines.register_sharing = true;
      } );
    ("all", Pipelines.default_config);
  ]

(* Differential check on register values (configs without register sharing
   keep register names stable). *)
let check_registers ctx regs =
  let reference, _ = interp_run ctx in
  List.iter
    (fun (name, config) ->
      if not config.Pipelines.register_sharing then begin
        let sim, _ = compiled_run ~config ctx in
        List.iter
          (fun r ->
            Alcotest.(check int64)
              (Printf.sprintf "%s: register %s" name r)
              (Bitvec.to_int64 (Calyx_sim.Sim.read_register reference r))
              (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim r)))
          regs
      end)
    configs

let test_diff_seq () = check_registers (Progs.two_writes_seq ()) [ "x" ]
let test_diff_par () = check_registers (Progs.two_writes_par ()) [ "x"; "y" ]
let test_diff_counter () = check_registers (Progs.counter ~limit:5 ()) [ "r" ]
let test_diff_if () =
  check_registers (Progs.if_program ~x:2 ~y:7 ()) [ "r" ];
  check_registers (Progs.if_program ~x:7 ~y:2 ()) [ "r" ]
let test_diff_mult () = check_registers (Progs.mult_program ~x:9 ~y:5 ()) [ "r" ]
let test_diff_hierarchy () = check_registers (Progs.hierarchy ~input:13 ()) [ "r" ]

(* The reduction tree has external memories: compare them under every
   configuration, including with sharing enabled. *)
let test_diff_reduction_tree () =
  let ctx = Progs.reduction_tree ~len:4 () in
  let inputs sim =
    List.iteri
      (fun i m ->
        Calyx_sim.Sim.write_memory_ints sim m ~width:32
          [ (i * 7) + 1; (i * 7) + 2; (i * 7) + 3; (i * 7) + 4 ])
      [ "m0"; "m1"; "m2"; "m3" ]
  in
  let reference, ref_cycles = interp_run ~inputs ctx in
  let expected = Calyx_sim.Sim.read_memory_ints reference "out" in
  List.iter
    (fun (name, config) ->
      let sim, cycles = compiled_run ~inputs ~config ctx in
      Alcotest.(check (list int))
        (Printf.sprintf "%s: output memory" name)
        expected
        (Calyx_sim.Sim.read_memory_ints sim "out");
      if String.equal name "insensitive" then
        Alcotest.(check bool)
          "insensitive FSM at least as slow as the ideal schedule" true
          (cycles >= ref_cycles))
    configs

let test_static_faster () =
  let ctx = Progs.reduction_tree ~len:4 () in
  let _, insensitive = compiled_run ~config:Pipelines.insensitive_config ctx in
  let _, static =
    compiled_run
      ~config:
        {
          Pipelines.insensitive_config with
          Pipelines.infer_latency = true;
          Pipelines.static_timing = true;
        }
      ctx
  in
  Alcotest.(check bool)
    (Printf.sprintf "static (%d) faster than insensitive (%d)" static insensitive)
    true (static < insensitive)

(* --- individual pass behaviour --- *)

let test_go_insertion () =
  let ctx = Pass.run Go_insertion.pass (Progs.two_writes_seq ()) in
  let main = entry ctx in
  let one = Hashtbl.find (group_index main) "one" in
  List.iter
    (fun a ->
      match a.dst with
      | Hole (_, "done") ->
          Alcotest.(check bool) "done write unguarded" true (a.guard = True)
      | _ -> (
          match a.guard with
          | And (Atom (Port (Hole ("one", "go"))), _)
          | Atom (Port (Hole ("one", "go"))) ->
              ()
          | g ->
              Alcotest.failf "missing go guard: %s"
                (Format.asprintf "%a" pp_guard g)))
    one.assigns

let test_compile_control_shapes () =
  let ctx =
    Pass.run_all
      [ Go_insertion.pass; Compile_control.pass ]
      (Progs.reduction_tree ())
  in
  let main = entry ctx in
  (match main.control with
  | Enable (g, _) ->
      Alcotest.(check bool) "top is a while group" true
        (String.length g >= 5 && String.equal (String.sub g 0 5) "while")
  | _ -> Alcotest.fail "control not reduced to a single enable");
  (* seq, par, while compilation groups plus the originals. *)
  Alcotest.(check bool) "compilation groups added" true
    (List.length main.groups > 7)

let test_remove_groups_flat () =
  let ctx =
    Pass.run_all
      [ Go_insertion.pass; Compile_control.pass; Remove_groups.pass ]
      (Progs.counter ~limit:3 ())
  in
  let main = entry ctx in
  Alcotest.(check int) "no groups" 0 (List.length main.groups);
  Alcotest.(check bool) "control gone" true (main.control = Empty);
  Alcotest.(check bool) "has a done wire" true
    (List.exists (fun a -> a.dst = This "done") main.continuous);
  (* No holes survive. *)
  List.iter
    (fun a ->
      let check_atom = function
        | Port (Hole _) -> Alcotest.fail "hole survived lowering"
        | _ -> ()
      in
      (match a.dst with
      | Hole _ -> Alcotest.fail "hole destination survived"
      | _ -> ());
      List.iter check_atom (assignment_atoms a))
    main.continuous

let test_dead_cell_removal () =
  let open Builder in
  let main =
    component "main"
    |> with_cells
         [ reg "used" 8; reg "unused" 8;
           mem_d1 ~external_:true "keep" ~width:8 ~size:2 ~idx:1 ]
    |> with_groups [ Progs.write_group "w" ~reg:"used" ~value:(lit ~width:8 1) ]
    |> with_control (enable "w")
  in
  let ctx = Pass.run Dead_cell_removal.pass (context [ main ]) in
  Alcotest.(check (list string)) "cells" [ "used"; "keep" ]
    (List.map (fun c -> c.cell_name) (entry ctx).cells)

(* Figure 3 of the paper: incr_r0 and incr_r1 never run in parallel, so
   their adders can be shared; let_r0/let_r1 run in parallel so nothing
   else may be shared. *)
let figure3 () =
  let open Builder in
  let let_group name r =
    Progs.write_group name ~reg:r ~value:(lit ~width:8 0)
  in
  let incr_group name r a =
    group name
      [
        assign (port a "left") (pa r "out");
        assign (port a "right") (lit ~width:8 1);
        assign (port r "in") (pa a "out");
        assign (port r "write_en") (bit true);
        assign (hole name "done") (pa r "done");
      ]
  in
  component "main"
  |> with_cells
       [ reg "r0" 8; reg "r1" 8; add_over "a0" 8; add_over "a1" 8 ]
  |> with_groups
       [
         let_group "let_r0" "r0";
         let_group "let_r1" "r1";
         incr_group "incr_r0" "r0" "a0";
         incr_group "incr_r1" "r1" "a1";
       ]
  |> with_control
       (seq
          [
            par [ enable "let_r0"; enable "let_r1" ];
            enable "incr_r0";
            enable "incr_r1";
          ])

let test_resource_sharing_fig3 () =
  let ctx = Builder.context [ figure3 () ] in
  let mapping = Resource_sharing.sharing_map ctx (entry ctx) in
  Alcotest.(check string) "a1 maps to a0" "a0"
    (String_map.find "a1" mapping);
  (* And the rewritten program still computes the same values. *)
  check_registers ctx [ "r0"; "r1" ]

let test_resource_sharing_parallel_blocked () =
  let open Builder in
  (* Two adders used in parallel groups must NOT be shared. *)
  let adder_group name a r v =
    group name
      [
        assign (port a "left") (lit ~width:8 v);
        assign (port a "right") (lit ~width:8 1);
        assign (port r "in") (pa a "out");
        assign (port r "write_en") (bit true);
        assign (hole name "done") (pa r "done");
      ]
  in
  let main =
    component "main"
    |> with_cells [ reg "r0" 8; reg "r1" 8; add_over "a0" 8; add_over "a1" 8 ]
    |> with_groups
         [ adder_group "g0" "a0" "r0" 10; adder_group "g1" "a1" "r1" 20 ]
    |> with_control (par [ enable "g0"; enable "g1" ])
  in
  let ctx = Builder.context [ main ] in
  let mapping = Resource_sharing.sharing_map ctx (entry ctx) in
  Alcotest.(check string) "a1 stays" "a1" (String_map.find "a1" mapping)

let test_register_sharing_disjoint () =
  let open Builder in
  (* t0 is dead after g1 reads it; t1 can reuse it. *)
  let main =
    component "main" ~outputs:[ ("o0", 8); ("o1", 8) ]
    |> with_cells
         [ reg "t0" 8; reg "t1" 8; reg "out0" 8; reg "out1" 8;
           prim "a" "std_add" [ 8 ] ]
    |> with_continuous
         (* Results are observable on output ports, keeping out0/out1 live
            to the end (they must not be merged with each other). *)
         [ assign (this "o0") (pa "out0" "out");
           assign (this "o1") (pa "out1" "out") ]
    |> with_groups
         [
           Progs.write_group "w0" ~reg:"t0" ~value:(lit ~width:8 3);
           group "use0"
             [
               assign (port "a" "left") (pa "t0" "out");
               assign (port "a" "right") (lit ~width:8 1);
               assign (port "out0" "in") (pa "a" "out");
               assign (port "out0" "write_en") (bit true);
               assign (hole "use0" "done") (pa "out0" "done");
             ];
           Progs.write_group "w1" ~reg:"t1" ~value:(lit ~width:8 9);
           group "use1"
             [
               assign (port "a" "left") (pa "t1" "out");
               assign (port "a" "right") (lit ~width:8 1);
               assign (port "out1" "in") (pa "a" "out");
               assign (port "out1" "write_en") (bit true);
               assign (hole "use1" "done") (pa "out1" "done");
             ];
         ]
    |> with_control
         (seq [ enable "w0"; enable "use0"; enable "w1"; enable "use1" ])
  in
  let ctx = Builder.context [ main ] in
  let mapping = Register_sharing.sharing_map ctx (entry ctx) in
  Alcotest.(check string) "t1 reuses t0" "t0" (String_map.find "t1" mapping);
  Alcotest.(check bool) "out0 not merged with t0" true
    (not (String.equal (String_map.find "out0" mapping) "t0")
    || not (String.equal (String_map.find "t0" mapping) "t0"));
  (* Semantics preserved: out0 = 4, out1 = 10 via interp of shared design. *)
  let shared = Pass.run Register_sharing.pass ctx in
  let sim, _ = interp_run shared in
  Alcotest.(check int64) "out0" 4L
    (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "out0"));
  Alcotest.(check int64) "out1" 10L
    (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "out1"))

let test_cost_guided_sharing () =
  (* Wide adders are worth sharing; tiny comparators are not. *)
  Alcotest.(check bool) "32-bit adder" true
    (Resource_sharing.cost_guided (Prim ("std_add", [ 32 ])));
  Alcotest.(check bool) "8-bit equality" false
    (Resource_sharing.cost_guided (Prim ("std_eq", [ 8 ])));
  Alcotest.(check bool) "2-bit adder" false
    (Resource_sharing.cost_guided (Prim ("std_add", [ 2 ])));
  Alcotest.(check bool) "components" true
    (Resource_sharing.cost_guided (Comp "pe"));
  (* The heuristic refuses to merge cheap comparators the plain pass
     would merge. *)
  let open Builder in
  let cmp_group name c r v =
    group name
      [
        assign (port c "left") (lit ~width:8 v);
        assign (port c "right") (lit ~width:8 1);
        assign (port r "in") (pa c "out");
        assign (port r "write_en") (bit true);
        assign (hole name "done") (pa r "done");
      ]
  in
  let main =
    component "main"
    |> with_cells
         [ reg "r0" 1; reg "r1" 1;
           prim ~attrs:(Attrs.of_list [ ("share", 1) ]) "e0" "std_eq" [ 8 ];
           prim ~attrs:(Attrs.of_list [ ("share", 1) ]) "e1" "std_eq" [ 8 ] ]
    |> with_groups [ cmp_group "g0" "e0" "r0" 1; cmp_group "g1" "e1" "r1" 2 ]
    |> with_control (seq [ enable "g0"; enable "g1" ])
  in
  let ctx = Builder.context [ main ] in
  let plain = Resource_sharing.sharing_map ctx (entry ctx) in
  let guided =
    Resource_sharing.sharing_map
      ~profitable:Resource_sharing.cost_guided ctx (entry ctx)
  in
  Alcotest.(check string) "plain merges" "e0" (String_map.find "e1" plain);
  Alcotest.(check bool) "heuristic declines" true
    (String_map.find_opt "e1" guided = None);
  (* The heuristic pass still preserves semantics. *)
  let lowered = Pass.run Resource_sharing.heuristic_pass ctx in
  let sim, _ = interp_run lowered in
  (* g0 compares 1 == 1 (true), g1 compares 2 == 1 (false). *)
  Alcotest.(check int64) "r0" 1L
    (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "r0"));
  Alcotest.(check int64) "r1" 0L
    (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "r1"))

let test_register_sharing_parallel_blocked () =
  let ctx = Progs.two_writes_par () in
  let mapping = Register_sharing.sharing_map ctx (entry ctx) in
  (* x and y are written in parallel and hold final values: no merging. *)
  Alcotest.(check string) "x" "x" (String_map.find "x" mapping);
  Alcotest.(check string) "y" "y" (String_map.find "y" mapping)

let test_infer_latency_rules () =
  let ctx = Pass.run Infer_latency.pass (Progs.mult_program ~x:2 ~y:3 ()) in
  let main = entry ctx in
  let mul = Hashtbl.find (group_index main) "mul" in
  Alcotest.(check (option int)) "mult group = mult latency + 1"
    (Some (Prims.mult_latency + 1))
    (Attrs.static mul.group_attrs);
  let ctx = Pass.run Infer_latency.pass (Progs.two_writes_seq ()) in
  let main = entry ctx in
  Alcotest.(check (option int)) "register write group" (Some 1)
    (Attrs.static (Hashtbl.find (group_index main) "one").group_attrs);
  (* Whole component: seq of two 1-cycle groups. *)
  Alcotest.(check (option int)) "component latency" (Some 2)
    (Attrs.static main.comp_attrs)

let test_infer_latency_hierarchy () =
  let ctx = Pass.run Infer_latency.pass (Progs.hierarchy ~input:4 ()) in
  let doubler = find_component ctx "doubler" in
  Alcotest.(check (option int)) "doubler static" (Some 1)
    (Attrs.static doubler.comp_attrs);
  let main = entry ctx in
  Alcotest.(check (option int)) "invoke group inherits" (Some 1)
    (Attrs.static (Hashtbl.find (group_index main) "call_d").group_attrs);
  Alcotest.(check (option int)) "main static" (Some 2)
    (Attrs.static main.comp_attrs)

let test_static_exact_latency () =
  (* Two 1-cycle writes compiled statically: component takes exactly
     2 work cycles + 1 done-observation cycle at the top level. *)
  let config =
    {
      Pipelines.insensitive_config with
      Pipelines.infer_latency = true;
      Pipelines.static_timing = true;
    }
  in
  let _, cycles = compiled_run ~config (Progs.two_writes_seq ()) in
  Alcotest.(check int) "2 + 1 cycles" 3 cycles;
  let _, insensitive = compiled_run ~config:Pipelines.insensitive_config
      (Progs.two_writes_seq ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "insensitive (%d) slower" insensitive)
    true
    (insensitive > cycles)

let test_schedule_conflicts () =
  let ctx = Progs.reduction_tree () in
  let conflicts = Schedule_conflicts.conflicts (entry ctx).control in
  let has a b =
    List.exists
      (fun (x, y) ->
        (String.equal x a && String.equal y b)
        || (String.equal x b && String.equal y a))
      conflicts
  in
  Alcotest.(check bool) "add0 vs add1" true (has "add0" "add1");
  Alcotest.(check bool) "add0 vs add2 disjoint" false (has "add0" "add2");
  Alcotest.(check bool) "cond vs add0 disjoint" false (has "cond" "add0")

let test_graph_coloring () =
  let g = Graph_coloring.create () in
  List.iter (Graph_coloring.add_node g) [ "a"; "b"; "c"; "d" ];
  Graph_coloring.add_edge g "a" "b";
  Graph_coloring.add_edge g "b" "c";
  let m =
    Graph_coloring.greedy g ~cls:(fun _ -> "x") ~order:[ "a"; "b"; "c"; "d" ]
  in
  Alcotest.(check string) "a self" "a" (String_map.find "a" m);
  Alcotest.(check bool) "b not with a" true
    (not (String.equal (String_map.find "b" m) "a"));
  Alcotest.(check string) "c reuses a" "a" (String_map.find "c" m);
  Alcotest.(check string) "d reuses a" "a" (String_map.find "d" m)

(* --- pass algebra --- *)

let test_pipeline_deterministic () =
  (* Compilation is a pure function: same input, same output text. *)
  List.iter
    (fun ctx ->
      let once = Printer.to_string (Pipelines.compile ctx) in
      let twice = Printer.to_string (Pipelines.compile ctx) in
      Alcotest.(check string) "deterministic" once twice)
    [ Progs.counter ~limit:3 (); Progs.reduction_tree (); Progs.hierarchy ~input:2 () ]

let test_dead_cell_idempotent () =
  let ctx = Pipelines.compile (Progs.reduction_tree ()) in
  let once = Pass.run Dead_cell_removal.pass ctx in
  let twice = Pass.run Dead_cell_removal.pass once in
  Alcotest.(check string) "idempotent" (Printer.to_string once)
    (Printer.to_string twice)

let test_sharing_idempotent () =
  (* Re-running resource sharing on an already-shared program changes
     nothing: the rewrite maps every shared cell to itself. *)
  let ctx = figure3 () |> fun m -> Builder.context [ m ] in
  let once = Pass.run Resource_sharing.pass ctx in
  let twice = Pass.run Resource_sharing.pass once in
  Alcotest.(check string) "idempotent" (Printer.to_string once)
    (Printer.to_string twice)

let prop_simplify_guard_idempotent =
  QCheck.Test.make ~name:"guard simplification is idempotent" ~count:200
    QCheck.(
      make
        ~print:(fun g -> Format.asprintf "%a" pp_guard g)
        Gen.(
          let atom = oneof [
            return (Atom (Port (This "go")));
            return True;
            map (fun b -> if b then True else Not True) bool;
          ] in
          let rec guard n =
            if n = 0 then atom
            else
              oneof [
                atom;
                map2 (fun a b -> And (a, b)) (guard (n - 1)) (guard (n - 1));
                map2 (fun a b -> Or (a, b)) (guard (n - 1)) (guard (n - 1));
                map (fun a -> Not a) (guard (n - 1));
              ]
          in
          guard 4))
    (fun g ->
      let once = simplify_guard g in
      equal_guard once (simplify_guard once))

(* Property: random counter/if programs compute identical results compiled
   vs interpreted under every configuration. *)
let arb_program =
  QCheck.make
    ~print:(fun ctx -> Printer.to_string ctx)
    QCheck.Gen.(
      let* choice = int_bound 2 in
      let* a = int_range 1 10 in
      let* b = int_range 1 10 in
      return
        (match choice with
        | 0 -> Progs.counter ~limit:a ()
        | 1 -> Progs.if_program ~x:a ~y:b ()
        | _ -> Progs.mult_program ~x:a ~y:b ()))

let prop_compile_preserves_semantics =
  QCheck.Test.make ~name:"compiled designs match the interpreter" ~count:30
    arb_program (fun ctx ->
      let reference, _ = interp_run ctx in
      let r = Bitvec.to_int64 (Calyx_sim.Sim.read_register reference "r") in
      List.for_all
        (fun (_, config) ->
          if config.Pipelines.register_sharing then true
          else begin
            let sim, _ = compiled_run ~config ctx in
            Int64.equal r
              (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "r"))
          end)
        configs)

let () =
  Alcotest.run "passes"
    [
      ( "differential",
        [
          Alcotest.test_case "seq writes" `Quick test_diff_seq;
          Alcotest.test_case "par writes" `Quick test_diff_par;
          Alcotest.test_case "counter" `Quick test_diff_counter;
          Alcotest.test_case "if branches" `Quick test_diff_if;
          Alcotest.test_case "pipelined mult" `Quick test_diff_mult;
          Alcotest.test_case "hierarchy" `Quick test_diff_hierarchy;
          Alcotest.test_case "reduction tree memories" `Quick
            test_diff_reduction_tree;
          Alcotest.test_case "static beats insensitive" `Quick
            test_static_faster;
          QCheck_alcotest.to_alcotest prop_compile_preserves_semantics;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "go insertion" `Quick test_go_insertion;
          Alcotest.test_case "compile control" `Quick test_compile_control_shapes;
          Alcotest.test_case "remove groups" `Quick test_remove_groups_flat;
          Alcotest.test_case "dead cells" `Quick test_dead_cell_removal;
          Alcotest.test_case "static exact latency" `Quick
            test_static_exact_latency;
        ] );
      ( "optimization",
        [
          Alcotest.test_case "resource sharing (Figure 3)" `Quick
            test_resource_sharing_fig3;
          Alcotest.test_case "resource sharing blocked by par" `Quick
            test_resource_sharing_parallel_blocked;
          Alcotest.test_case "cost-guided sharing heuristic" `Quick
            test_cost_guided_sharing;
          Alcotest.test_case "register sharing disjoint ranges" `Quick
            test_register_sharing_disjoint;
          Alcotest.test_case "register sharing blocked by par" `Quick
            test_register_sharing_parallel_blocked;
          Alcotest.test_case "latency inference rules" `Quick
            test_infer_latency_rules;
          Alcotest.test_case "latency inference through hierarchy" `Quick
            test_infer_latency_hierarchy;
        ] );
      ( "analyses",
        [
          Alcotest.test_case "schedule conflicts" `Quick test_schedule_conflicts;
          Alcotest.test_case "greedy coloring" `Quick test_graph_coloring;
        ] );
      ( "pass algebra",
        [
          Alcotest.test_case "pipeline deterministic" `Quick
            test_pipeline_deterministic;
          Alcotest.test_case "dead-cell removal idempotent" `Quick
            test_dead_cell_idempotent;
          Alcotest.test_case "resource sharing idempotent" `Quick
            test_sharing_idempotent;
          QCheck_alcotest.to_alcotest prop_simplify_guard_idempotent;
        ] );
    ]
