(* Deterministic renderer behind the golden-file snapshot tests: prints
   the structured program (the `calyx compile --emit calyx` view), the
   fully lowered SystemVerilog, the timing report, the compiled engine's
   plan (of the lowered or the structured program), or the scrubbed
   Chrome trace of a whole toolchain run. The dune rules diff its output
   against checked-in .expected files; `dune promote` accepts intentional
   changes. *)

module Tele = Calyx_telemetry

let parse file =
  if Filename.check_suffix file ".dahlia" then begin
    let ic = open_in file in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Dahlia.To_calyx.compile (Dahlia.Parser.parse_string src)
  end
  else Calyx.Parser.parse_file file

(* One full telemetry-enabled toolchain run: parse, compile, simulate
   under both engines, analyze timing, emit. Every span arg it records is
   deterministic — cycle counts, pass counts, settle evaluations,
   primitives latched — which is what makes the trace golden-testable
   (wall-clock fields are scrubbed from it). *)
let pipeline_run file =
  Tele.Runtime.enable ();
  Tele.Trace.set_keep true;
  let ctx = Tele.Trace.with_span ~cat:"stage" "parse" (fun () -> parse file) in
  let lowered = Calyx.Pipelines.compile ctx in
  List.iter
    (fun engine ->
      let sim = Calyx_sim.Sim.create ~engine lowered in
      ignore (Calyx_sim.Sim.run ~max_cycles:100_000 sim))
    [ `Fixpoint; `Compiled ];
  ignore (Calyx_synth.Timing.context_timing lowered);
  ignore (Calyx_verilog.Verilog.emit lowered)

let () =
  match Sys.argv with
  | [| _; "print"; file |] ->
      print_string (Calyx.Printer.to_string (parse file))
  | [| _; "verilog"; file |] ->
      print_string
        (Calyx_verilog.Verilog.emit (Calyx.Pipelines.compile (parse file)))
  | [| _; "timing"; file |] ->
      let ctx = parse file in
      let lowered = Calyx.Pipelines.compile ctx in
      let report = Calyx_synth.Timing.context_timing ~paths:3 lowered in
      print_endline (Calyx_synth.Timing.to_json ~attribute_ctx:ctx report)
  | [| _; "plan"; file |] -> (
      (* The compiled engine's codegen, as a reviewable snapshot: its
         graph of the fully lowered program, with the partial-evaluation
         annotations. *)
      let sim =
        Calyx_sim.Sim.create ~engine:`Compiled
          (Calyx.Pipelines.compile (parse file))
      in
      match Calyx_sim.Sim.compiled_plan sim with
      | Some plan -> print_string plan
      | None -> failwith "compiled engine produced no plan")
  | [| _; "structured-plan"; file |] -> (
      (* The same snapshot for the program as written, before any pass:
         its group go holes and group-gated assignments are nodes of the
         graph too. *)
      let sim = Calyx_sim.Sim.create ~engine:`Compiled (parse file) in
      match Calyx_sim.Sim.compiled_plan sim with
      | Some plan -> print_string plan
      | None -> failwith "compiled engine produced no plan")
  | [| _; "trace"; file |] ->
      pipeline_run file;
      print_string (Tele.Trace.to_chrome ~scrub:true ())
  | _ ->
      prerr_endline
        "usage: golden_gen \
         (print|verilog|timing|plan|structured-plan|trace) FILE";
      exit 2
