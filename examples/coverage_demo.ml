(* Coverage demo: the coverage collectors of calyx_obs driven from
   OCaml.

   Builds a small program with a genuine coverage hole — a bounds check
   whose overflow branch the chosen input never exercises — and shows the
   three collectors sharing one simulation pass:

   - Coverage: group activation, if/while branch coverage, toggles;
   - Spans: the control tree's activity, cycle by cycle;
   - Crit_path: per-arm cycles and slack for the par statement.

   The same run also compiles the program and reports FSM-state coverage
   of the generated schedule registers — what `calyx cover FILE` does for
   a source file. Both simulations' spans go into one Chrome trace
   (load coverage_demo_spans.json at https://ui.perfetto.dev).

   Run with: dune exec examples/coverage_demo.exe *)

open Calyx
open Calyx.Ir
open Calyx.Builder
module Sim = Calyx_sim.Sim
module Coverage = Calyx_obs.Coverage
module Spans = Calyx_obs.Spans
module Crit_path = Calyx_obs.Crit_path

let width = 8

(* acc := acc + step, capped: if (acc < 100) skip else acc := 100.
   With step = 7 and 5 iterations acc peaks at 35, so the clamp branch —
   and its "clamp" group — never run: a real coverage hole. *)
let program =
  let write g reg value =
    group g
      [
        assign (port reg "in") value;
        assign (port reg "write_en") (bit true);
        assign (hole g "done") (pa reg "done");
      ]
  in
  let main =
    component "main"
    |> with_cells
         [
           reg "acc" width; reg "i" width; reg "scratch" width;
           prim "add" "std_add" [ width ];
           prim "iadd" "std_add" [ width ];
           prim "lt" "std_lt" [ width ];
           prim "cap" "std_lt" [ width ];
         ]
    |> with_groups
         [
           write "init" "acc" (lit ~width 0);
           write "init_i" "i" (lit ~width 0);
           group "accum"
             [
               assign (port "add" "left") (pa "acc" "out");
               assign (port "add" "right") (lit ~width 7);
               assign (port "acc" "in") (pa "add" "out");
               assign (port "acc" "write_en") (bit true);
               assign (hole "accum" "done") (pa "acc" "done");
             ];
           group "incr"
             [
               assign (port "iadd" "left") (pa "i" "out");
               assign (port "iadd" "right") (lit ~width 1);
               assign (port "i" "in") (pa "iadd" "out");
               assign (port "i" "write_en") (bit true);
               assign (hole "incr" "done") (pa "i" "done");
             ];
           group "loop_cond"
             [
               assign (port "lt" "left") (pa "i" "out");
               assign (port "lt" "right") (lit ~width 5);
               assign (hole "loop_cond" "done") (bit true);
             ];
           group "cap_cond"
             [
               assign (port "cap" "left") (pa "acc" "out");
               assign (port "cap" "right") (lit ~width 100);
               assign (hole "cap_cond" "done") (bit true);
             ];
           write "clamp" "acc" (lit ~width 100);
           write "note" "scratch" (lit ~width 1);
         ]
    |> with_control
         (seq
            [
              par [ enable "init"; enable "init_i" ];
              while_ ~cond:"loop_cond"
                (Cell_port ("lt", "out"))
                (seq
                   [
                     enable "accum";
                     if_ ~cond:"cap_cond"
                       (Cell_port ("cap", "out"))
                       (enable "note") (enable "clamp");
                     enable "incr";
                   ]);
            ])
  in
  context [ main ]

let () =
  Well_formed.check program;

  (* One simulation, all three collectors attached before running. *)
  let sim = Sim.create program in
  let cov = Coverage.create program sim in
  let sp = Spans.create program sim in
  let cycles = Sim.run sim in

  Printf.printf "=== structured run: %d cycles ===\n\n" cycles;
  print_string (Coverage.render cov);

  Printf.printf "\n=== par critical path ===\n";
  print_string (Crit_path.render (Crit_path.analyze program sim sp));

  (* The compiled form: FSM-state coverage of the generated schedule. Its
     spans are the values of the generated fsm registers. *)
  let lowered = Pipelines.compile program in
  let csim = Sim.create lowered in
  let ccov = Coverage.create lowered csim in
  let csp = Spans.create lowered csim in
  let ccycles = Sim.run csim in
  Printf.printf "\n=== compiled run: %d cycles ===\n\n" ccycles;
  print_string (Coverage.render ccov);

  (* Both runs' spans in one trace, Perfetto-ready. *)
  let out = "coverage_demo_spans.json" in
  let oc = open_out out in
  output_string oc
    (Calyx_telemetry.Trace.chrome (Spans.events sp @ Spans.events csp));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s (load it at https://ui.perfetto.dev)\n" out
