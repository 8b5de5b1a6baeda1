(* SystemVerilog backend and area model tests. *)

open Calyx

let lowered_counter () = Pipelines.compile (Progs.counter ~limit:5 ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let count_occurrences s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.equal (String.sub s i m) sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_emits_module () =
  let sv = Calyx_verilog.Verilog.emit (lowered_counter ()) in
  Alcotest.(check bool) "main module" true (contains sv "module main (");
  Alcotest.(check bool) "reg primitive" true (contains sv "module std_reg");
  Alcotest.(check bool) "adder primitive" true (contains sv "module std_add");
  Alcotest.(check bool) "clk threaded" true (contains sv ".clk(clk)");
  Alcotest.(check int) "balanced module/endmodule"
    (count_occurrences sv "\nendmodule")
    (count_occurrences sv "module " - count_occurrences sv "endmodule" + count_occurrences sv "\nendmodule")

let test_balanced () =
  let sv = Calyx_verilog.Verilog.emit (lowered_counter ()) in
  (* Each "module NAME" has a matching "endmodule". *)
  let opens =
    List.length
      (List.filter
         (fun l ->
           let l = String.trim l in
           String.length l > 7 && String.equal (String.sub l 0 7) "module ")
         (String.split_on_char '\n' sv))
  in
  Alcotest.(check int) "balanced" opens (count_occurrences sv "endmodule")

let test_not_lowered_rejected () =
  let ctx = Progs.counter ~limit:3 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Calyx_verilog.Verilog.emit ctx);
       false
     with Calyx_verilog.Verilog.Not_lowered _ -> true)

let test_no_holes_in_output () =
  let sv = Calyx_verilog.Verilog.emit (lowered_counter ()) in
  Alcotest.(check bool) "no hole syntax" false (contains sv "[go]");
  Alcotest.(check bool) "no done hole" false (contains sv "[done]")

let test_loc_counting () =
  Alcotest.(check int) "loc" 3 (Calyx_verilog.Verilog.loc "a\n\n b\nc\n  \n")

let test_systolic_emission () =
  let d = { Systolic.rows = 2; cols = 2; depth = 2; width = 32 } in
  let ctx = Pipelines.compile (Systolic.generate d) in
  let sv = Calyx_verilog.Verilog.emit ctx in
  Alcotest.(check bool) "PE module present" true (contains sv "module mac_pe (");
  Alcotest.(check bool) "PE instantiated" true (contains sv "mac_pe pe_00");
  Alcotest.(check bool) "substantial output" true
    (Calyx_verilog.Verilog.loc sv > 200)

let test_extern_blackbox () =
  let src = {|
extern "sqrt.sv" {
  component ext_sqrt(left: 32, go: 1) -> (out: 32, done: 1);
}
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(32); }
  wires {
    r.in = 32'd4;
    r.write_en = go;
    done = r.done;
  }
  control {}
}
|} in
  let ctx = Parser.parse_string src in
  let sv = Calyx_verilog.Verilog.emit ctx in
  Alcotest.(check bool) "black box comment" true
    (contains sv "black box: ext_sqrt from sqrt.sv")

(* --- area model --- *)

let test_primitive_costs () =
  let open Calyx_synth.Area in
  let reg = primitive_usage "std_reg" [ 32 ] in
  Alcotest.(check int) "reg bits" 33 reg.registers;
  Alcotest.(check int) "reg cells" 1 reg.register_cells;
  let add = primitive_usage "std_add" [ 32 ] in
  Alcotest.(check int) "adder LUTs" 32 add.luts;
  let mult = primitive_usage "std_mult_pipe" [ 32 ] in
  Alcotest.(check int) "mult DSPs" 4 mult.dsps;
  let small_mem = primitive_usage "std_mem_d1" [ 32; 8; 3 ] in
  Alcotest.(check int) "small memory in LUTRAM" 0 small_mem.brams;
  let big_mem = primitive_usage "std_mem_d1" [ 32; 4096; 12 ] in
  Alcotest.(check bool) "big memory in BRAM" true (big_mem.brams > 0)

let test_mux_cost_counted () =
  (* Two drivers on one port cost more than one driver. *)
  let open Calyx.Builder in
  let one_driver =
    component "main"
    |> with_cells [ reg "r" 32 ]
    |> with_continuous
         [ assign (port "r" "in") (lit ~width:32 1);
           assign (this "done") (pa "r" "done") ]
  in
  let two_drivers =
    component "main"
    |> with_cells [ reg "r" 32 ]
    |> with_continuous
         [
           assign ~guard:(g_this "go") (port "r" "in") (lit ~width:32 1);
           assign ~guard:(g_not (g_this "go")) (port "r" "in") (lit ~width:32 2);
           assign (this "done") (pa "r" "done");
         ]
  in
  let usage c = (Calyx_synth.Area.context_usage (context [ c ])).Calyx_synth.Area.luts in
  Alcotest.(check bool) "mux adds LUTs" true (usage two_drivers > usage one_driver)

let test_timing_depth () =
  let lowered = lowered_counter () in
  let report = Calyx_synth.Timing.context_timing ~paths:1 lowered in
  Alcotest.(check bool) "positive depth" true
    (report.Calyx_synth.Timing.levels > 0);
  Alcotest.(check bool) "has a path" true
    (List.length report.Calyx_synth.Timing.critical > 1);
  (* Deeper schedules have deeper control paths. *)
  let deeper =
    Pipelines.compile ~config:Pipelines.insensitive_config
      (Progs.reduction_tree ())
  in
  Alcotest.(check bool) "reduction tree deeper than counter" true
    ((Calyx_synth.Timing.context_timing ~paths:1 deeper).Calyx_synth.Timing.levels
    >= report.Calyx_synth.Timing.levels)

let test_timing_loop_detection () =
  let open Calyx.Builder in
  (* A combinational cycle through two wires. *)
  let main =
    component "main"
    |> with_cells [ prim "w1" "std_wire" [ 1 ]; prim "w2" "std_wire" [ 1 ] ]
    |> with_continuous
         [
           assign (port "w1" "in") (pa "w2" "out");
           assign (port "w2" "in") (pa "w1" "out");
           assign (this "done") (pa "w1" "out");
         ]
  in
  let ctx = context [ main ] in
  Alcotest.(check bool) "loop detected" true
    (try
       ignore (Calyx_synth.Timing.context_timing ~paths:1 ctx);
       false
     with Calyx_synth.Timing.Combinational_loop _ -> true)

let test_timing_registers_cut_paths () =
  let open Calyx.Builder in
  (* in -> reg -> out: no combinational path through the register. *)
  let main =
    component "main" ~inputs:[ ("x", 8) ] ~outputs:[ ("y", 8) ]
    |> with_cells [ reg "r" 8 ]
    |> with_continuous
         [
           assign (port "r" "in") (thisa "x");
           assign (port "r" "write_en") (g_this "go" |> fun _ -> bit true);
           assign (this "y") (pa "r" "out");
           assign (this "done") (pa "r" "done");
         ]
  in
  let report = Calyx_synth.Timing.context_timing ~paths:1 (context [ main ]) in
  (* Only single-assignment hops (x -> r.in, r.out -> y). *)
  Alcotest.(check bool) "shallow" true (report.Calyx_synth.Timing.levels <= 1)

let test_bigger_design_bigger_area () =
  let luts n =
    let d = { Systolic.rows = n; cols = n; depth = n; width = 32 } in
    let ctx = Pipelines.compile (Systolic.generate d) in
    (Calyx_synth.Area.context_usage ctx).Calyx_synth.Area.luts
  in
  Alcotest.(check bool) "4x4 bigger than 2x2" true (luts 4 > luts 2)

let () =
  Alcotest.run "verilog"
    [
      ( "emission",
        [
          Alcotest.test_case "modules and primitives" `Quick test_emits_module;
          Alcotest.test_case "balanced" `Quick test_balanced;
          Alcotest.test_case "rejects structured input" `Quick
            test_not_lowered_rejected;
          Alcotest.test_case "no interface holes" `Quick test_no_holes_in_output;
          Alcotest.test_case "line counting" `Quick test_loc_counting;
          Alcotest.test_case "systolic array" `Quick test_systolic_emission;
          Alcotest.test_case "extern black boxes" `Quick test_extern_blackbox;
        ] );
      ( "area model",
        [
          Alcotest.test_case "primitive costs" `Quick test_primitive_costs;
          Alcotest.test_case "mux costs" `Quick test_mux_cost_counted;
          Alcotest.test_case "monotone in design size" `Quick
            test_bigger_design_bigger_area;
        ] );
      ( "timing",
        [
          Alcotest.test_case "critical path depth" `Quick test_timing_depth;
          Alcotest.test_case "combinational loop detection" `Quick
            test_timing_loop_detection;
          Alcotest.test_case "registers cut paths" `Quick
            test_timing_registers_cut_paths;
        ] );
    ]
