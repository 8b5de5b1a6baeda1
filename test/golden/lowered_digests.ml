(* The compile corpus, pinned by digest: systolic arrays 2x2 to 10x10,
   12x12, 16x16, 24x24, 32x32, 1x12, 12x1 and 5x12 (depth 7),
   every PolyBench kernel and unrolled variant, and the .futil examples in
   DIR, each compiled under the default and the latency-insensitive
   configuration.

   [lowered_digests DIR] prints one line per design and config: the MD5 of
   the printed lowered program. A change to what any pass emits shows up
   as a changed digest.

   [lowered_digests backend DIR] prints the back end's outputs on the same
   corpus, one line per design and config with three MD5s: the emitted
   SystemVerilog, the static-timing JSON of the structured and the lowered
   program (five worst paths, attributed to the structured program; a
   structured program's combinational loop prints as "loop"), and the area
   model's [Area.pp] of the structured and the lowered program. A change
   to the emitter, the timing analysis or the area model shows up here.

   [lowered_digests graph DIR] runs the static timing analysis with
   telemetry on over the same corpus as [backend] and prints per design
   and config the [timing] span's [nodes] and [edges] args of the
   structured and the lowered program (a structured program with a
   combinational loop adds "loop"). A change to the graph the analysis
   builds shows up here, even where the reports agree.

   [lowered_digests plan DIR] prints the MD5s of the compiled engine's
   plan ([Sim.compiled_plan]) of the lowered and of the structured
   program, on the same corpus without the systolic arrays above 16x16.
   A systolic array instantiates one processing-element component once
   per cell, so a change to how the simulator builds instances of a
   shared component shows up here.

   [lowered_digests rtl DIR] runs the emitted SystemVerilog of the lowered
   program under the RTL interpreter ([Vinterp]) on the same corpus as
   [plan], systolic arrays and PolyBench kernels on their test benches'
   inputs, and prints one MD5 per design and config over
   [Vinterp.stats], the cycle count, the settle evaluations and every
   final register and memory ([Sim.state_cells]). Then come the
   [Parse_error]/[Elab_error] messages of a fixed list of faulty sources,
   one line each. A change to how [Vinterp] parses, elaborates or
   schedules a design shows up here.

   [lowered_digests work DIR] runs the compiled engine on the lowered and
   on the structured program of the same corpus as [plan], on the test
   benches' inputs, and prints per design and config the cycle count, the
   settle evaluations and the primitives latched of each run: the [sim]
   span's [cycles], [evals] and [latched] args, or the error a structured
   program that the simulator cannot run raises. A change to which nodes
   the engine evaluates or which primitives it latches shows up here, even
   where the results agree.

   [lowered_digests faults] builds no corpus. It parses a fixed list of
   lowered programs, each with one fault that no check has rejected, and
   prints what [Sim.create], [Verilog.emit], [Timing.context_timing] and
   [Area.context_usage] raise on each, one line per program and back end
   ("ok" when nothing is raised). One more program has a faulty source
   and a faulty destination in one assignment; its line pins which of
   the two [Sim.create] reports. A change to how a back end resolves
   ports shows up here as a changed error text.

   [lowered_digests sharing] compiles systolic arrays 8x8, 16x16 and 32x32
   and every PolyBench kernel and unrolled variant under the default
   configuration with telemetry on, and prints the register-sharing pass
   span's metrics per design: registers, distinct conflict cliques and
   conflict edges. They describe the interference graph the pass colors,
   so a rewrite of the analysis that keeps that graph keeps every line. *)

(* A corpus entry: its name, how to build the structured program, and
   how its test bench loads the inputs (only [rtl] mode loads them). *)
let systolic (rows, cols, depth) =
  let d = Systolic.{ rows; cols; depth; width = 32 } in
  ( (if rows = cols && cols = depth then
       Printf.sprintf "systolic-%dx%d" rows cols
     else Printf.sprintf "systolic-%dx%dx%d" rows cols depth),
    (fun () -> Systolic.generate d),
    fun io ->
      let a, b = Systolic.sample d in
      Systolic.load d ~a ~b io )

let kernel (k : Polybench.Kernels.kernel) =
  let entry name unrolled =
    ( name,
      (fun () -> Polybench.Harness.build k ~unrolled),
      fun io ->
        Polybench.Harness.load_inputs k
          (Polybench.Harness.program k ~unrolled)
          io )
  in
  entry k.name false
  :: (if k.unrolled = None then [] else [ entry (k.name ^ "-unrolled") true ])

let example dir f =
  (f, (fun () -> Calyx.Parser.parse_file (Filename.concat dir f)), ignore)

let configs =
  [
    ("default", Calyx.Pipelines.default_config);
    ("insensitive", Calyx.Pipelines.insensitive_config);
  ]

let md5 s = Digest.to_hex (Digest.string s)

let lowered_line _structured lowered _load =
  md5 (Calyx.Printer.to_string lowered)

let backend_line structured lowered _load =
  let sv = Calyx_verilog.Verilog.emit lowered in
  let timing ctx =
    match Calyx_synth.Timing.context_timing ~paths:5 ctx with
    | r -> Calyx_synth.Timing.to_json ~attribute_ctx:structured r
    | exception Calyx_synth.Timing.Combinational_loop _ -> "loop"
  in
  let area =
    Format.asprintf "%a %a" Calyx_synth.Area.pp
      (Calyx_synth.Area.context_usage structured)
      Calyx_synth.Area.pp
      (Calyx_synth.Area.context_usage lowered)
  in
  String.concat " "
    [ md5 sv; md5 (timing structured ^ timing lowered); md5 area ]

let graph_line structured lowered _load =
  let module T = Calyx_telemetry.Trace in
  let graph ctx =
    let looped, spans =
      T.collect (fun () ->
          match Calyx_synth.Timing.context_timing ~paths:1 ctx with
          | _ -> false
          | exception Calyx_synth.Timing.Combinational_loop _ -> true)
    in
    let sp = List.find (fun sp -> sp.T.sp_name = "timing") spans in
    let arg key =
      match T.find_arg sp key with Some (T.F f) -> int_of_float f | _ -> 0
    in
    Printf.sprintf "nodes %d edges %d%s" (arg "nodes") (arg "edges")
      (if looped then " loop" else "")
  in
  Printf.sprintf "structured %s lowered %s" (graph structured) (graph lowered)

let plan_line structured lowered _load =
  let plan ctx =
    match Calyx_sim.Sim.compiled_plan (Calyx_sim.Sim.create ~engine:`Compiled ctx) with
    | Some p -> p
    | None -> failwith "compiled engine produced no plan"
  in
  md5 (plan lowered) ^ " " ^ md5 (plan structured)

let rtl_line _structured lowered load =
  let module V = Calyx_verilog.Vinterp in
  let rtl =
    V.load ~top:lowered.Calyx.Ir.entrypoint (Calyx_verilog.Verilog.emit lowered)
  in
  let io = Calyx_verilog.Validate.rtl_io rtl in
  load io;
  let cycles = V.run rtl in
  let b = Buffer.create 4096 in
  let nets, procs = V.stats rtl in
  Printf.bprintf b "stats %d %d cycles %d evals %d\n" nets procs cycles
    (V.evals rtl);
  let regs, mems = Calyx_sim.Sim.state_cells lowered in
  List.iter
    (fun path ->
      Printf.bprintf b "reg %s %s\n" path
        (Calyx.Bitvec.to_string (io.read_register path)))
    regs;
  List.iter
    (fun path ->
      Printf.bprintf b "mem %s" path;
      Array.iter
        (fun v -> Printf.bprintf b " %s" (Calyx.Bitvec.to_string v))
        (io.read_memory path);
      Buffer.add_char b '\n')
    mems;
  md5 (Buffer.contents b)

let work_line structured lowered load =
  let module T = Calyx_telemetry.Trace in
  let run ctx =
    let cycles, spans =
      T.collect (fun () ->
          let sim = Calyx_sim.Sim.create ~engine:`Compiled ctx in
          load (Calyx_sim.Testbench.of_sim sim);
          Calyx_sim.Sim.run sim)
    in
    let sim = List.find (fun sp -> sp.T.sp_name = "sim") spans in
    let arg key =
      match T.find_arg sim key with Some (T.F f) -> int_of_float f | _ -> 0
    in
    Printf.sprintf "cycles %d evals %d latched %d" cycles (arg "evals")
      (arg "latched")
  in
  Printf.sprintf "lowered %s structured %s" (run lowered)
    (match run structured with
    | line -> line
    | exception Calyx.Ir.Ir_error msg -> "Ir_error: " ^ msg)

(* Faulty sources, one fault each, and the exact error text [Vinterp.load]
   reports for each. *)
let rtl_faults =
  let m body = "module main(input logic clk, input logic [7:0] a, output logic [7:0] b);\n" ^ body ^ "endmodule\n" in
  let reg =
    "module r(input logic clk, input logic [7:0] d, output logic [7:0] q);\n\
     always_ff @(posedge clk) q <= d;\n\
     endmodule\n"
  in
  [
    ("unknown module", m "nosuch u (.x(a));\n");
    ("unknown module parameterized", m "nosuch #(.W(8)) u (.x(a));\n");
    ("unbound net", m "assign b = c;\n");
    ("unbound net in instance", reg ^ m "r u (.clk(clk), .d(zz), .q(b));\n");
    ("unbound net in child", "module c(input logic x);\nassign y = x;\nendmodule\n" ^ m "c u (.x(a[0]));\nassign b = a;\n");
    ( "unbound net in grandchild",
      "module g(input logic x);\nassign y = x;\nendmodule\n\
       module c(input logic x);\ng v (.x(x));\nendmodule\n"
      ^ m "c u (.x(a[0]));\n" );
    ("duplicate net", m "logic [3:0] t;\nlogic t;\nassign b = a;\n");
    ("duplicate net in child", "module c(input logic x);\nlogic x;\nendmodule\n" ^ m "c u (.x(a[0]));\n");
    ("duplicate array", m "logic [7:0] mm[3:0];\nlogic [7:0] mm[1:0];\n");
    ( "repeated instance name",
      "module c(input logic x);\nendmodule\n" ^ m "c u (.x(a[0]));\nc u (.x(a[1]));\n" );
    ( "repeated instance name, third instance",
      "module p(input logic pa);\nlogic x;\nendmodule\n\
       module q(input logic qa);\nlogic y;\nendmodule\n\
       module s(input logic sa);\nlogic y;\nendmodule\n"
      ^ m "p u (.pa(a[0]));\nq u (.qa(a[1]));\ns u (.sa(a[2]));\n" );
    ( "repeated instance name, disjoint nets",
      "module p(input logic pa);\nlogic x;\nendmodule\n\
       module q(input logic qa);\nlogic y;\nendmodule\n"
      ^ m "p u (.pa(a[0]));\nq u (.qa(a[1]));\nassign b = a;\n" );
    ( "repeated instance name in grandchild",
      "module g1(input logic x);\nlogic p;\nendmodule\n\
       module g2(input logic z);\nlogic p;\nendmodule\n\
       module c1(input logic x);\ng1 g (.x(x));\nendmodule\n\
       module c2(input logic z);\ng2 g (.z(z));\nendmodule\n"
      ^ m "c1 u (.x(a[0]));\nc2 u (.z(a[1]));\n" );
    ( "repeated instance name before a bad width",
      "module c1(input logic x);\nlogic y;\nendmodule\n\
       module c2(input logic z);\nlogic y;\nlogic [70:0] w;\nendmodule\n"
      ^ m "c1 u (.x(a[0]));\nc2 u (.z(a[1]));\n" );
    ( "repeated instance name, array first",
      "module c1(input logic x);\nlogic y;\nlogic [7:0] mm[3:0];\nendmodule\n\
       module c2(input logic z);\nlogic [7:0] mm[3:0];\nlogic y;\nendmodule\n"
      ^ m "c1 u (.x(a[0]));\nc2 u (.z(a[1]));\n" );
    ("double driver", m "assign b = a;\nassign b = 8'd1;\n");
    ("double driver through a port", reg ^ m "r u (.clk(clk), .d(a), .q(b));\nassign b = a + 8'd1;\n");
    ("double always_ff driver", m "always_ff @(posedge clk) b <= a;\nalways_ff @(posedge clk) b <= 8'd0;\n");
    ("double always_ff memory driver", m "logic [7:0] mm[3:0];\nalways_ff @(posedge clk) mm[0] <= a;\nalways_ff @(posedge clk) mm[1] <= a;\n");
    ("assign and always_ff", m "assign b = a;\nalways_ff @(posedge clk) b <= 8'd0;\n");
    ("unknown port", reg ^ m "r u (.clk(clk), .d(a), .nope(b));\n");
    ("output to an expression", reg ^ m "r u (.clk(clk), .d(a), .q(b[0]));\n");
    ("unsupported width", m "logic [70:0] w;\n");
    ( "unsupported width in child",
      "module c #(parameter W = 4) (input logic x);\nlogic [W-1:0] w;\nendmodule\n"
      ^ m "c #(.W(2)) u0 (.x(a[0:0]));\nc #(.W(80)) u1 (.x(a[1:1]));\n" );
    ( "double always_ff memory driver in child",
      "module c(input logic clk, input logic x);\nlogic [7:0] mm[3:0];\n\
       always_ff @(posedge clk) mm[0] <= 8'd1;\n\
       always_ff @(posedge clk) mm[x] <= 8'd2;\nendmodule\n"
      ^ m "c u (.clk(clk), .x(a[0]));\n" );
    ("non-constant parameter", reg ^ m "r #(.W(a)) u (.clk(clk), .d(a), .q(b));\n");
    ("unsupported range", m "logic [7:1] w;\n");
    ("non-constant range", m "logic [a:0] w;\n");
    ("wide concatenation", m "logic [63:0] w;\nassign w = {w, a};\n");
    ("bad part-select", m "assign b = a[70:2];\n");
    ("unknown array", m "always_ff @(posedge clk) nope[0] <= a;\n");
    ("no top module", "module other();\nendmodule\n");
    ("bad literal", m "assign b = 8'q1;\n");
    ("bad literal width", m "assign b = 65'd1;\n");
    ("bad binary digits", m "assign b = 8'b102;\n");
    ("no digits", m "assign b = 8'h;\n");
    ("unexpected character", m "assign b = a ` a;\n");
  ]

let fault_line src =
  let module V = Calyx_verilog.Vinterp in
  match V.load ~top:"main" src with
  | _ -> "loaded"
  | exception V.Parse_error msg -> "Parse_error: " ^ msg
  | exception V.Elab_error msg -> "Elab_error: " ^ msg

(* Lowered programs with one fault each, which the back ends meet
   unchecked. *)
let backend_faults =
  let m ?(cells = "") wires =
    "component main(go: 1) -> (done: 1) {\n  cells {\n    r = std_reg(8);\n"
    ^ cells ^ "  }\n  wires {\n    r.write_en = go;\n    done = r.done;\n"
    ^ wires ^ "  }\n  control {}\n}\n"
  in
  [
    ("unknown cell in a source", m "    r.in = x.out;\n");
    ("missing port in a guard", m "    r.in = r.nope ? 8'd1;\n");
    ("unknown group's hole as a destination", m "    g[go] = 1'd1;\n    r.in = 8'd1;\n");
    ( "unresolved primitive prototype",
      m ~cells:"    z = std_reg(0);\n" "    z.in = 8'd1;\n    r.in = 8'd1;\n" );
    ( "unknown component prototype",
      m ~cells:"    c = nosuch();\n" "    c.go = go;\n    r.in = 8'd1;\n" );
  ]

(* A bad source and a bad destination in one assignment. *)
let two_faults =
  "component main(go: 1) -> (done: 1) {\n  cells {\n    r = std_reg(8);\n  }\n\
  \  wires {\n    r.write_en = go;\n    done = r.done;\n    y.in = x.out;\n  }\n\
  \  control {}\n}\n"

let outcome f =
  match f () with
  | () -> "ok"
  | exception Calyx.Ir.Ir_error msg -> "Ir_error: " ^ msg
  | exception e -> Printexc.to_string e

let backend_fault_lines () =
  let sim ctx () = ignore (Calyx_sim.Sim.create ctx) in
  List.iter
    (fun (name, src) ->
      let ctx = Calyx.Parser.parse_string src in
      List.iter
        (fun (backend, run) ->
          Printf.printf "fault %s: %s: %s\n" name backend (outcome (run ctx)))
        [
          ("sim", sim);
          ("emit", fun ctx () -> ignore (Calyx_verilog.Verilog.emit ctx));
          ( "timing",
            fun ctx () -> ignore (Calyx_synth.Timing.context_timing ctx) );
          ("area", fun ctx () -> ignore (Calyx_synth.Area.context_usage ctx));
        ])
    backend_faults;
  Printf.printf "fault source and destination: sim: %s\n"
    (outcome (sim (Calyx.Parser.parse_string two_faults)))

let sharing_lines () =
  let module T = Calyx_telemetry in
  List.iter
    (fun (name, build, _) ->
      let _, spans = T.Trace.collect (fun () -> Calyx.Pipelines.compile (build ())) in
      let sp =
        List.find (fun (sp : T.Trace.span) -> sp.sp_name = "register-sharing") spans
      in
      let metric k = int_of_float (List.assoc k (T.Trace.metrics sp)) in
      Printf.printf "%s registers %d cliques %d conflict_edges %d\n" name
        (metric "registers") (metric "cliques") (metric "conflict_edges"))
    (List.map (fun n -> systolic (n, n, n)) [ 8; 16; 32 ]
    @ List.concat_map kernel Polybench.Kernels.all)

let () =
  match Sys.argv with
  | [| _; "faults" |] ->
      backend_fault_lines ();
      exit 0
  | [| _; "sharing" |] ->
      sharing_lines ();
      exit 0
  | _ -> ()

let () =
  let line, dir, max_side =
    match Sys.argv with
    | [| _; dir |] -> (lowered_line, dir, max_int)
    | [| _; "backend"; dir |] -> (backend_line, dir, max_int)
    | [| _; "graph"; dir |] -> (graph_line, dir, max_int)
    | [| _; "plan"; dir |] -> (plan_line, dir, 16)
    | [| _; "rtl"; dir |] -> (rtl_line, dir, 16)
    | [| _; "work"; dir |] -> (work_line, dir, 16)
    | _ ->
        prerr_endline
          "usage: lowered_digests [backend|graph|plan|rtl|work] DIR | faults | \
           sharing";
        exit 2
  in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".futil")
    |> List.sort compare
  in
  List.iter
    (fun (name, build, load) ->
      List.iter
        (fun (cname, config) ->
          let structured = build () in
          let lowered = Calyx.Pipelines.compile ~config structured in
          Printf.printf "%s %s %s\n" name cname (line structured lowered load))
        configs)
    (List.map
       (fun n -> systolic (n, n, n))
       (List.filter
          (fun n -> n <= max_side)
          [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 12; 16; 24; 32 ])
    @ List.map systolic [ (1, 12, 12); (12, 1, 12); (5, 12, 7) ]
    @ List.concat_map kernel Polybench.Kernels.all
    @ List.map (example dir) examples);
  if line == rtl_line then
    List.iter
      (fun (name, src) -> Printf.printf "fault %s: %s\n" name (fault_line src))
      rtl_faults
