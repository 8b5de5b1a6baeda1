(* Deterministic renderer behind the golden-file snapshot tests: prints
   the structured program (the `calyx compile --emit calyx` view), the
   fully lowered SystemVerilog, the timing report, the compiled engine's
   plan (of the lowered or the structured program), the scrubbed Chrome
   trace of a whole toolchain run, or the OpenMetrics exposition after
   one. The dune rules diff its
   output against checked-in .expected files; `dune promote` accepts
   intentional changes. *)

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
   under both engines, analyze timing, emit. Everything the instruments
   and spans record for it is deterministic — cycle counts, pass lists,
   dirty-set sizes — which is what makes these two modes golden-testable
   (wall-clock fields are scrubbed from the trace and never exported by
   the registry). *)
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

(* The toolchain-owned instruments, in registration-independent order, so
   the golden file does not depend on module initialization order. *)
let instrument_names =
  [
    "calyx_programs_compiled_total";
    "calyx_pass_invocations_total";
    "calyx_sim_cycles_total";
    "calyx_fixpoint_iterations_total";
    "calyx_sched_dirty_set_size";
    "calyx_sched_commit_set_size";
    "calyx_validate_agree_total";
    "calyx_validate_disagree_total";
    "calyx_fuzz_programs_total";
  ]

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
  | [| _; "metrics"; file |] ->
      pipeline_run file;
      print_string (Tele.Metrics.to_openmetrics ~names:instrument_names ())
  | _ ->
      prerr_endline
        "usage: golden_gen \
         (print|verilog|timing|plan|structured-plan|trace|metrics) FILE";
      exit 2
