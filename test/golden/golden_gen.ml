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

(* Parameter lists for every primitive at width [w]: memories on both
   sides of the area model's 1024-bit LUTRAM/BRAM cutoff, slices and pads
   at their valid in/out pairs. *)
let prim_params (info : Calyx.Prims.info) w =
  let params =
    match info.Calyx.Prims.param_names with
    | [ "WIDTH" ] -> [ [ w ] ]
    | [ "WIDTH"; "VALUE" ] -> [ [ w; 1 ] ]
    | [ "IN_WIDTH"; "OUT_WIDTH" ] when info.Calyx.Prims.prim_name = "std_slice"
      ->
        [ [ w; w ]; [ w; 1 ] ]
    | [ "IN_WIDTH"; "OUT_WIDTH" ] -> [ [ 1; w ]; [ w; w ] ]
    | [ _; _; _ ] -> [ [ w; 16; 4 ]; [ w; 4096; 12 ] ]
    | [ _; _; _; _; _ ] -> [ [ w; 4; 4; 2; 2 ]; [ w; 64; 64; 6; 6 ] ]
    | names ->
        failwith
          (info.Calyx.Prims.prim_name ^ ": no parameters for "
         ^ String.concat "," names)
  in
  List.sort_uniq compare params

(* One line per primitive instance: what the table says it is, its
   combinational arcs, its area, whether cost-guided sharing takes it,
   and the critical path of a component holding only that cell. *)
let prim_costs () =
  let module P = Calyx.Prims in
  List.iter
    (fun (info : P.info) ->
      List.iter
        (fun w ->
          List.iter
            (fun params ->
              let name = info.P.prim_name in
              let kind =
                match info.P.kind with
                | P.Combinational -> "combinational"
                | P.Memory -> "memory"
                | P.Pipelined -> "pipelined"
                | P.Register -> "register"
              in
              let arcs =
                String.concat ","
                  (List.map
                     (fun (i, o) -> i ^ ">" ^ o)
                     (P.comb_arcs name params))
              in
              let proto = Calyx.Ir.Prim (name, params) in
              let ctx =
                Calyx.Builder.context
                  [
                    Calyx.Builder.with_cells
                      [ Calyx.Builder.prim "c" name params ]
                      (Calyx.Builder.component "main");
                  ]
              in
              let t = Calyx_synth.Timing.context_timing ~paths:1 ctx in
              Format.printf
                "%s(%s) kind=%s latency=%s shareable=%b arcs=[%s] area=%a \
                 cost_guided=%b delay_ps=%d levels=%d@."
                name
                (String.concat ", " (List.map string_of_int params))
                kind
                (match info.P.latency with
                | Some l -> string_of_int l
                | None -> "-")
                info.P.shareable arcs Calyx_synth.Area.pp
                (Calyx_synth.Area.primitive_usage name params)
                (Calyx.Resource_sharing.cost_guided proto)
                t.Calyx_synth.Timing.delay_ps t.Calyx_synth.Timing.levels)
            (prim_params info w))
        [ 1; 8; 31; 32; 64 ])
    P.all

let () =
  match Sys.argv with
  | [| _; "prims" |] -> prim_costs ()
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
         (print|verilog|timing|plan|structured-plan|trace) FILE | prims";
      exit 2
