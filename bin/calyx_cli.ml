(* The command-line driver — the role of `futil` (compiler) and `fud`
   (tool driver) from the paper's artifact.

   Subcommands:
     check      report well-formedness and lint diagnostics (optionally JSON)
     compile    compile a source file and print Calyx or SystemVerilog
     interp     run a structured program with the reference interpreter
     sim        compile a program and run the flat simulator
     profile    merged compile + runtime report (pass stats, group cycles)
     cover      coverage analysis, par critical-path report
     systolic   generate (and optionally run and check) a systolic array
     farm       the corpus runner: batch compile/sim/validate/engine-
                differential jobs (files, PolyBench, systolic, fuzz)
                across domains, with a content-addressed result cache;
                failed fuzz jobs are shrunk to counterexample programs
     validate   translation validation of single designs (RTL vs sim)
     stats      compilation statistics for a design (Section 7.4)
     timing     static timing analysis: critical path, Fmax, worst paths
     report     aggregate telemetry manifests; gate bench results

   Every command that takes a source FILE chooses the frontend by its
   suffix: .dahlia/.fuse sources go through Dahlia, anything else parses
   as Calyx. Every subcommand additionally takes --telemetry/
   --trace-pipeline/--log-level (see telemetry_term below). *)

open Cmdliner
module Tele = Calyx_telemetry
module Farm = Calyx_farm.Farm
module Fjob = Calyx_farm.Job
module Fcache = Calyx_farm.Cache

(* ------------------------------------------------------------------ *)
(* Shared options                                                      *)
(* ------------------------------------------------------------------ *)

let config_term =
  let no_static =
    Arg.(value & flag & info [ "no-static" ] ~doc:"Disable latency-sensitive compilation (the Sensitive pass).")
  in
  let no_infer =
    Arg.(value & flag & info [ "no-infer" ] ~doc:"Disable latency inference.")
  in
  let no_resource =
    Arg.(value & flag & info [ "no-resource-sharing" ] ~doc:"Disable resource sharing.")
  in
  let no_register =
    Arg.(value & flag & info [ "no-register-sharing" ] ~doc:"Disable register sharing.")
  in
  let no_lint =
    Arg.(value & flag & info [ "no-lint" ] ~doc:"Skip the semantic lints normally run before optimization.")
  in
  let make ns ni nr nreg nl =
    {
      Calyx.Pipelines.static_timing = not ns;
      infer_latency = not ni;
      resource_sharing = not nr;
      register_sharing = not nreg;
      lint = not nl;
    }
  in
  Term.(const make $ no_static $ no_infer $ no_resource $ no_register $ no_lint)

let emit_term =
  Arg.(
    value
    & opt (enum [ ("calyx", `Calyx); ("verilog", `Verilog) ]) `Calyx
    & info [ "emit" ] ~docv:"FORMAT" ~doc:"Output format: calyx or verilog.")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input source file.")

let engine_term =
  Arg.(
    value
    & opt (some (enum Calyx_sim.Sim.engines)) None
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:"Simulation evaluation engine: $(b,compiled) (the default: ahead-of-time specialized closures over the levelized slot graph, evaluating only what changed) or $(b,fixpoint) (the reference dense iteration, the semantic oracle; observably identical, slower).")

let mems_term =
  Arg.(
    value & opt_all string []
    & info [ "mem" ] ~docv:"NAME=V,V,..."
        ~doc:"Initialize an external memory, e.g. --mem m0=1,2,3,4. Repeatable.")

let parse_mem_flag s =
  match String.index_opt s '=' with
  | None -> failwith ("bad --mem argument: " ^ s)
  | Some i ->
      let name = String.sub s 0 i in
      let values =
        String.split_on_char ',' (String.sub s (i + 1) (String.length s - i - 1))
        |> List.filter (fun v -> String.trim v <> "")
        |> List.map int_of_string
      in
      (name, values)

(* Through a Testbench.io, so the same --mem flags initialize the
   simulator and (under validate) the RTL interpreter identically. *)
let load_mems (io : Calyx_sim.Testbench.io) flags =
  List.iter
    (fun flag ->
      let name, values = parse_mem_flag flag in
      let current = io.read_memory name in
      let width =
        if Array.length current = 0 then 32
        else Calyx.Bitvec.width current.(0)
      in
      Calyx_sim.Testbench.write_memory_ints io name ~width values)
    flags

(* Each element in unsigned decimal, at any width up to 64 bits. *)
let dump_externals sim =
  List.iter
    (fun name ->
      let values = Calyx_sim.Sim.read_memory sim name in
      Printf.printf "%s = [%s]\n" name
        (String.concat "; "
           (Array.to_list
              (Array.map
                 (fun v -> Printf.sprintf "%Lu" (Calyx.Bitvec.to_int64 v))
                 values))))
    (Calyx_sim.Sim.external_memories sim)

(* The CLI formats well-formedness, lint and simulator failures itself;
   every other error the toolchain raises prints the line a farm job
   records for it. *)
let handle_errors f =
  try
    f ();
    0
  with
  | Calyx.Well_formed.Malformed errs ->
      List.iter (Printf.eprintf "error: %s\n") errs;
      1
  | Calyx.Lint.Rejected ds ->
      List.iter (fun d -> prerr_endline (Calyx.Diagnostics.render d)) ds;
      Printf.eprintf "lint rejected the program (rerun with --no-lint to override)\n";
      1
  | Calyx_sim.Sim.Conflict { cycle; message; snapshot }
  | Calyx_sim.Sim.Unstable { cycle; message; snapshot } ->
      Printf.eprintf "simulation error at cycle %d: %s\n" cycle message;
      Printf.eprintf "state at failure:\n%s\n" snapshot;
      1
  | Calyx_sim.Sim.Timeout { budget; snapshot } ->
      Printf.eprintf "simulation error: no completion within %d cycles\n"
        budget;
      Printf.eprintf "state at timeout:\n%s\n" snapshot;
      1
  | Failure msg | Sys_error msg ->
      (* Usage-shaped failures from subcommand bodies (report without a
         current bench file, an unreadable manifest, ...) — a message and
         exit 1, not cmdliner's "internal error" backtrace. *)
      Printf.eprintf "error: %s\n" msg;
      1
  | e -> (
      match Calyx_farm.Job.describe_error e with
      | Some msg ->
          prerr_endline msg;
          1
      | None -> raise e)

let output ctx = function
  | `Calyx -> print_string (Calyx.Printer.to_string ctx)
  | `Verilog -> print_string (Calyx_verilog.Verilog.emit ctx)

(* Attach the requested observers (VCD trace and/or profiler) to a built
   simulator, then run [f]. The VCD file is finished and closed even if the
   run raises (e.g. Timeout), so partial traces stay loadable. *)
let with_observers sim ~trace ~profile f =
  let prof = if profile then Some (Calyx_obs.Profile.create sim) else None in
  let finish_vcd, vcd =
    match trace with
    | None -> ((fun () -> ()), None)
    | Some path ->
        let oc = open_out path in
        let v = Calyx_obs.Vcd.create ~out:(output_string oc) sim in
        ( (fun () ->
            Calyx_obs.Vcd.finish v;
            close_out oc),
          Some v )
  in
  Option.iter
    (fun v -> Calyx_sim.Sim.add_sink sim (Calyx_obs.Vcd.sink v))
    vcd;
  Option.iter
    (fun p -> Calyx_sim.Sim.add_sink sim (Calyx_obs.Profile.sink p))
    prof;
  Fun.protect ~finally:finish_vcd (fun () -> f prof)

let trace_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE" ~doc:"Write a VCD waveform trace to $(docv).")

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing (shared by every subcommand)                     *)
(* ------------------------------------------------------------------ *)

type telemetry_opts = {
  t_manifest : string option;
  t_chrome : string option;
  t_log : Tele.Log.level option;
}

let telemetry_term =
  let manifest =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:"Append one JSONL run-manifest event per toolchain stage (and per compiler pass) to $(docv): source hash, pass-pipeline id, engine, wall time, GC words, stage metrics. Aggregate with $(b,calyx report).")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-pipeline" ] ~docv:"FILE"
          ~doc:"Write a Chrome trace_event JSON to $(docv): the toolchain's own spans (parse, check, each pass, sim, emit, timing) in wall time, then the design spans of each simulation the command runs (control statements, or generated fsm register values) in cycles. Load it at ui.perfetto.dev.")
  in
  let log =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("quiet", Tele.Log.Quiet);
                  ("info", Tele.Log.Info);
                  ("debug", Tele.Log.Debug);
                ]))
          None
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:"Stderr verbosity: $(b,quiet), $(b,info), or $(b,debug). Defaults from the $(b,CALYX_LOG) environment variable.")
  in
  let make t_manifest t_chrome t_log = { t_manifest; t_chrome; t_log } in
  Term.(const make $ manifest $ chrome $ log)

(* The design spans of each simulation the command runs, in reverse,
   while a --trace-pipeline file is asked for; [None] otherwise. *)
let design_spans : Calyx_obs.Spans.t list option ref = ref None

let trace_design sp =
  Option.iter (fun l -> design_spans := Some (sp :: l)) !design_spans

(* Build a simulator; under --trace-pipeline its design spans go into
   the trace. *)
let simulator ?engine ctx =
  let sim = Calyx_sim.Sim.create ?engine ctx in
  if !design_spans <> None then trace_design (Calyx_obs.Spans.create ctx sim);
  sim

(* Enable telemetry when any sink was requested, stamp the run context
   with the input's content hash, run the command, and write the
   requested outputs even when the command fails partway (manifests
   stream line-by-line regardless; open design spans close at the last
   simulated cycle, so a timed-out run's trace stays loadable). *)
let with_telemetry ?source tele f =
  Option.iter Tele.Log.set_level tele.t_log;
  if tele.t_manifest = None && tele.t_chrome = None then f ()
  else begin
    Tele.Runtime.enable ();
    if tele.t_chrome <> None then begin
      Tele.Trace.set_keep true;
      design_spans := Some []
    end;
    let writer = Option.map Tele.Manifest.open_file tele.t_manifest in
    Option.iter Tele.Manifest.install writer;
    (match source with
    | Some file when Sys.file_exists file ->
        Tele.Manifest.set_run ~source:(Filename.basename file)
          ~source_hash:
            (Tele.Manifest.hash
               (In_channel.with_open_bin file In_channel.input_all))
          ()
    | _ -> ());
    let finalize () =
      Option.iter
        (fun p ->
          let sims = List.rev (Option.value !design_spans ~default:[]) in
          write_file p
            (Tele.Trace.to_chrome
               ~design:(List.concat_map Calyx_obs.Spans.events sims)
               ()))
        tele.t_chrome;
      Option.iter
        (fun w ->
          Tele.Manifest.uninstall ();
          Tele.Log.debug "telemetry: %d manifest event(s) written"
            (Tele.Manifest.events_written w);
          Tele.Manifest.close w)
        writer
    in
    Fun.protect ~finally:finalize f
  end

(* The one frontend dispatch, by suffix: .dahlia/.fuse sources go through
   the Dahlia frontend, everything else parses as Calyx. *)
let parse_source file =
  if Filename.check_suffix file ".dahlia" || Filename.check_suffix file ".fuse"
  then begin
    let src = In_channel.with_open_bin file In_channel.input_all in
    let prog =
      Tele.Trace.with_span ~cat:"stage" "parse" (fun () ->
          Dahlia.Parser.parse_string src)
    in
    Dahlia.To_calyx.compile prog
  end
  else
    Tele.Trace.with_span ~cat:"stage" "parse" (fun () ->
        Calyx.Parser.parse_file file)

(* The prelude of every command that interprets the structured program
   (interp, profile, cover): the checked source, and the program the
   interpreter runs. Invoke is the one control construct the interpreter
   refuses, so it is compiled away. *)
let parse_structured file =
  let ctx = parse_source file in
  Calyx.Well_formed.check ctx;
  (ctx, Calyx.Pass.run Calyx.Compile_invoke.pass ctx)

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run file json tele =
    with_telemetry ~source:file tele @@ fun () ->
    let failed = ref false in
    let code =
      handle_errors (fun () ->
          let ctx = parse_source file in
          let wf =
            Tele.Trace.with_span ~cat:"stage" "check" (fun () ->
                Calyx.Well_formed.diagnostics ctx)
          in
          let ds =
            (* Lints assume a well-formed program; skip them when the
               structural checks already failed. *)
            if List.exists Calyx.Diagnostics.is_error wf then wf
            else
              wf
              @ Tele.Trace.with_span ~cat:"stage" "lint" (fun () ->
                    Calyx.Lint.diagnostics ctx)
          in
          if json then print_string (Calyx.Diagnostics.to_json ds)
          else print_string (Calyx.Diagnostics.render_all ds);
          failed := List.exists Calyx.Diagnostics.is_error ds)
    in
    if code <> 0 then code else if !failed then 1 else 0
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit diagnostics as JSON.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check a Calyx (or Dahlia) program: well-formedness plus semantic lints (data races, combinational cycles, driver conflicts, dead code, latency contracts). Exits non-zero if any error-severity diagnostic is reported.")
    Term.(const run $ file_arg $ json $ telemetry_term)

let compile_cmd =
  let run file config emit pass_stats json tele =
    with_telemetry ~source:file tele @@ fun () ->
    handle_errors (fun () ->
        let ctx = parse_source file in
        if pass_stats then begin
          let lowered, stats = Calyx_obs.Pass_stats.compile ~config ctx in
          (* Stats on stderr so stdout stays the compiled program. *)
          prerr_string
            (if json then Calyx_obs.Pass_stats.to_json stats ^ "\n"
             else Calyx_obs.Pass_stats.render stats);
          output lowered emit
        end
        else output (Calyx.Pipelines.compile ~config ctx) emit)
  in
  let pass_stats =
    Arg.(
      value & flag
      & info [ "pass-stats" ]
          ~doc:"Report per-pass wall-clock time and IR size deltas on stderr.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"With --pass-stats, emit the report as JSON.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a Calyx (or Dahlia) program to lowered Calyx or SystemVerilog.")
    Term.(const run $ file_arg $ config_term $ emit_term $ pass_stats $ json
          $ telemetry_term)

let interp_cmd =
  let run file mems engine tele =
    with_telemetry ~source:file tele @@ fun () ->
    handle_errors (fun () ->
        let _, runnable = parse_structured file in
        let sim = simulator ?engine runnable in
        load_mems (Calyx_sim.Testbench.of_sim sim) mems;
        let cycles = Calyx_sim.Sim.run sim in
        Printf.printf "cycles: %d\n" cycles;
        dump_externals sim)
  in
  Cmd.v
    (Cmd.info "interp" ~doc:"Execute a structured Calyx (or Dahlia) program with the reference interpreter.")
    Term.(const run $ file_arg $ mems_term $ engine_term $ telemetry_term)

let sim_cmd =
  let run file config mems trace profile engine tele =
    with_telemetry ~source:file tele @@ fun () ->
    handle_errors (fun () ->
        let ctx = parse_source file in
        let lowered = Calyx.Pipelines.compile ~config ctx in
        let sim = simulator ?engine lowered in
        load_mems (Calyx_sim.Testbench.of_sim sim) mems;
        with_observers sim ~trace ~profile (fun prof ->
            let cycles = Calyx_sim.Sim.run sim in
            Printf.printf "cycles: %d\n" cycles;
            dump_externals sim;
            (* The lowered program has no groups left, so this reports
               totals, settle behaviour, and cell utilization; use the
               [profile] subcommand for group-level attribution. *)
            Option.iter
              (fun p -> print_string (Calyx_obs.Profile.render p))
              prof))
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print cycle counts, settle statistics, and cell utilization after the run.")
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Compile a Calyx (or Dahlia) program and run the cycle-accurate flat simulator.")
    Term.(const run $ file_arg $ config_term $ mems_term $ trace_term $ profile
          $ engine_term $ telemetry_term)

let systolic_cmd =
  let run rows cols depth config emit execute tele =
    with_telemetry tele @@ fun () ->
    handle_errors (fun () ->
        let d = { Systolic.rows; cols; depth; width = 32 } in
        if Tele.Runtime.on () then
          Tele.Manifest.set_run
            ~source:(Printf.sprintf "systolic-%dx%dx%d" rows cols depth)
            ~source_hash:
              (Tele.Manifest.hash
                 (Printf.sprintf "systolic %d %d %d 32" rows cols depth))
            ~pipeline:(Calyx.Pipelines.id config) ();
        let ctx =
          Tele.Trace.with_span ~cat:"stage" "generate" (fun () ->
              Systolic.generate d)
        in
        if execute then begin
          let lowered = Calyx.Pipelines.compile ~config ctx in
          let sim = simulator lowered in
          let io = Calyx_sim.Testbench.of_sim sim in
          let a, b = Systolic.sample d in
          let tb = Systolic.testbench d ~a ~b in
          tb.load io;
          let cycles = Calyx_sim.Sim.run sim in
          Printf.printf "cycles: %d\n" cycles;
          dump_externals sim;
          match tb.check io with [] -> () | msg :: _ -> failwith msg
        end
        else output (Calyx.Pipelines.compile ~config ctx) emit)
  in
  let dim name = Arg.(value & opt int 4 & info [ name ] ~docv:"N" ~doc:(name ^ " of the array")) in
  Cmd.v
    (Cmd.info "systolic" ~doc:"Generate a matrix-multiply systolic array (Section 6.1).")
    Term.(const run $ dim "rows" $ dim "cols" $ dim "depth" $ config_term
          $ emit_term
          $ Arg.(
              value & flag
              & info [ "run" ]
                  ~doc:"Simulate on the sample matrices and check the product against the software matmul; exits 1 on a wrong answer.")
          $ telemetry_term)

let profile_cmd =
  let run file config mems trace json strict engine tele =
    with_telemetry ~source:file tele @@ fun () ->
    let failed = ref false in
    let code =
      handle_errors (fun () ->
          let ctx, runnable = parse_structured file in
          (* Compile once for the pass-pipeline report, and interpret the
             structured program for group-level profiling (lowering erases
             groups). *)
          let lowered, stats = Calyx_obs.Pass_stats.compile ~config ctx in
          let sim = simulator ?engine runnable in
          load_mems (Calyx_sim.Testbench.of_sim sim) mems;
          with_observers sim ~trace ~profile:true (fun prof ->
              let cycles = Calyx_sim.Sim.run sim in
              let prof = Option.get prof in
              let mism = Calyx_obs.Profile.mismatches runnable prof in
              (* Wall-clock estimate from the lowered design's critical
                 path: the hardware the cycles would actually clock
                 through. *)
              let timing = Calyx_synth.Timing.context_timing ~paths:1 lowered in
              let wall = Calyx_synth.Timing.wall_ns timing ~cycles in
              if json then
                print_endline
                  (Tele.Json.obj
                     [
                       ("file", Tele.Json.str file);
                       ("cycles", Tele.Json.int cycles);
                       ( "delay_ps",
                         Tele.Json.int timing.Calyx_synth.Timing.delay_ps );
                       ( "fmax_mhz",
                         Tele.Json.float timing.Calyx_synth.Timing.fmax_mhz );
                       ( "period_ns",
                         Tele.Json.float
                           (Calyx_synth.Timing.period_ns timing) );
                       ("wall_ns", Tele.Json.float wall);
                       ("pass_stats", Calyx_obs.Pass_stats.to_json stats);
                       ( "profile",
                         Calyx_obs.Profile.to_json ~ctx:runnable prof );
                     ])
              else begin
                Printf.printf "== pass pipeline ==\n%s\n"
                  (Calyx_obs.Pass_stats.render stats);
                Printf.printf
                  "== estimated wall-clock ==\n\
                   %d cycles x %.2f ns/cycle (Fmax %.1f MHz) = %.1f ns\n\n"
                  cycles
                  (Calyx_synth.Timing.period_ns timing)
                  timing.Calyx_synth.Timing.fmax_mhz wall;
                Printf.printf "== runtime profile ==\n%s"
                  (Calyx_obs.Profile.render ~ctx:runnable prof)
              end;
              List.iter
                (fun (r : Calyx_obs.Profile.latency_row) ->
                  let s = r.lr_stat in
                  Tele.Log.info
                    "latency mismatch: group %s%s ran %d cycles over %d \
                     activation(s), expected %s per activation"
                    (if s.gs_instance = "" then "" else s.gs_instance ^ ".")
                    s.gs_group s.gs_active_cycles s.gs_activations
                    (match r.lr_expected with
                    | Some e -> string_of_int e
                    | None -> "?"))
                mism;
              if strict && mism <> [] then failed := true))
    in
    if code <> 0 then code else if !failed then 1 else 0
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the merged report as a single JSON object.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Exit non-zero if any group's measured cycles disagree with its derived latency.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Compile a Calyx (or Dahlia) program and print a merged report: per-pass compile statistics plus a runtime profile from interpreting the structured program (per-group active cycles and activations attributed against derived latencies, settle statistics, cell utilization).")
    Term.(const run $ file_arg $ config_term $ mems_term $ trace_term $ json
          $ strict $ engine_term $ telemetry_term)

let cover_cmd =
  let run file config mems json fail_under engine tele =
    with_telemetry ~source:file tele @@ fun () ->
    let failed = ref false in
    let code =
      handle_errors (fun () ->
          (* One structured pass gathers group/branch coverage, spans, and
             the par critical path. *)
          let ctx, runnable = parse_structured file in
          let ssim = Calyx_sim.Sim.create ?engine runnable in
          let cov = Calyx_obs.Coverage.create runnable ssim in
          let sp = Calyx_obs.Spans.create runnable ssim in
          trace_design sp;
          load_mems (Calyx_sim.Testbench.of_sim ssim) mems;
          let scycles = Calyx_sim.Sim.run ssim in
          let crit = Calyx_obs.Crit_path.analyze runnable ssim sp in
          (* A second, compiled pass covers the generated fsm schedule
             registers — the states the lowered hardware visits. *)
          let lowered = Calyx.Pipelines.compile ~config ctx in
          let fsim = simulator ?engine lowered in
          let fcov = Calyx_obs.Coverage.create lowered fsim in
          load_mems (Calyx_sim.Testbench.of_sim fsim) mems;
          let fcycles = Calyx_sim.Sim.run fsim in
          (* STA of the lowered design converts the par report's
             cycle slacks into nanoseconds. *)
          let timing = Calyx_synth.Timing.context_timing ~paths:1 lowered in
          let period_ns = Calyx_synth.Timing.period_ns timing in
          if json then
            print_endline
              (Tele.Json.obj
                 [
                   ("file", Tele.Json.str file);
                   ("cycles", Tele.Json.int scycles);
                   ("compiled_cycles", Tele.Json.int fcycles);
                   ("period_ns", Tele.Json.float period_ns);
                   ( "fmax_mhz",
                     Tele.Json.float timing.Calyx_synth.Timing.fmax_mhz );
                   ("coverage", Calyx_obs.Coverage.to_json cov);
                   ( "fsm_coverage",
                     Calyx_obs.Coverage.to_json fcov );
                   ( "critical_path",
                     Calyx_obs.Crit_path.to_json ~period_ns crit );
                 ])
          else begin
            Printf.printf "== coverage (structured, %d cycles) ==\n%s\n"
              scycles
              (Calyx_obs.Coverage.render cov);
            Printf.printf "== par critical path ==\n%s\n"
              (Calyx_obs.Crit_path.render ~period_ns crit);
            Printf.printf "== coverage (compiled, %d cycles) ==\n%s"
              fcycles
              (Calyx_obs.Coverage.render fcov)
          end;
          Option.iter
            (fun threshold ->
              let got = Calyx_obs.Coverage.group_pct cov in
              if got < threshold then begin
                Printf.eprintf
                  "group coverage %.1f%% is below the --fail-under \
                   threshold %.1f%%\n"
                  got threshold;
                List.iter
                  (fun item -> Printf.eprintf "  %s\n" item)
                  (Calyx_obs.Coverage.uncovered cov);
                failed := true
              end)
            fail_under)
    in
    if code <> 0 then code else if !failed then 1 else 0
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the merged coverage report as a single JSON object.")
  in
  let fail_under =
    Arg.(
      value
      & opt (some float) None
      & info [ "fail-under" ] ~docv:"PCT"
          ~doc:"Exit non-zero if group-activation coverage (the structured run's group_pct) is below $(docv) percent.")
  in
  Cmd.v
    (Cmd.info "cover"
       ~doc:"Run a Calyx (or Dahlia) program under the coverage collectors: group-activation, if/while branch, and port-toggle coverage from the reference interpreter, FSM-state coverage from the compiled program, and a par critical-path report with per-arm slack cross-checked against derived latencies.")
    Term.(const run $ file_arg $ config_term $ mems_term $ json $ fail_under
          $ engine_term $ telemetry_term)

let validate_cmd =
  let run files mems config engine max_cycles tele =
    with_telemetry tele @@ fun () ->
    let failures = ref 0 in
    let code =
      handle_errors (fun () ->
          List.iter
            (fun file ->
              if Tele.Runtime.on () then
                Tele.Manifest.set_run ~source:(Filename.basename file)
                  ~source_hash:
                    (Tele.Manifest.hash
                       (In_channel.with_open_bin file In_channel.input_all))
                  ~pipeline:(Calyx.Pipelines.id config) ();
              let lowered =
                Calyx.Pipelines.compile ~config (parse_source file)
              in
              let what = Filename.basename file in
              match
                Calyx_verilog.Validate.validate ?engine ?max_cycles
                  ~load:(fun io -> load_mems io mems)
                  lowered
              with
              | r ->
                  Format.printf "%-24s %a@." what
                    Calyx_verilog.Validate.pp_report r;
                  if not r.Calyx_verilog.Validate.ok then incr failures
              | exception e ->
                  Format.printf "%-24s CRASH: %s@." what (Printexc.to_string e);
                  incr failures)
            files)
    in
    if code <> 0 then code
    else if !failures > 0 then begin
      Printf.eprintf "validate: %d failure(s)\n" !failures;
      1
    end
    else 0
  in
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Calyx or Dahlia source files to validate.")
  in
  let max_cycles =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-cycles" ] ~docv:"N" ~doc:"Per-run cycle budget.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Translation validation of single designs: compile each program through the full pipeline, execute the emitted SystemVerilog with the RTL interpreter and the lowered Calyx with the cycle-accurate simulator on identical inputs, and require exact agreement on cycle count, every register, and every memory. Corpora (PolyBench, random programs) run on $(b,calyx farm --check validate).")
    Term.(const run $ files $ mems_term $ config_term $ engine_term
          $ max_cycles $ telemetry_term)

let farm_cmd =
  let systolic_source s =
    let dim d =
      match int_of_string_opt d with
      | Some v -> v
      | None -> failwith (Printf.sprintf "farm: bad --systolic dimension %S" d)
    in
    match String.split_on_char 'x' (String.lowercase_ascii s) with
    | [ r; c; d ] -> Fjob.Systolic { rows = dim r; cols = dim c; depth = dim d }
    | _ -> failwith ("farm: bad --systolic argument (expected RxCxD): " ^ s)
  in
  let run files polybench kernel unrolled systolic fuzz seed check cex_dir
      engine farm_jobs cache_dir no_cache json min_hit_rate config tele =
    with_telemetry tele @@ fun () ->
    let job_failed = ref false in
    let gate_failed = ref false in
    let code =
      handle_errors (fun () ->
          let mk = Fjob.make ~config ?engine ~check in
          let of_file = Fjob.of_file ~config ?engine ~check in
          let kernel_jobs =
            if not polybench then []
            else
              let kernels =
                match kernel with
                | Some name -> [ Polybench.Kernels.find name ]
                | None ->
                    if unrolled then Polybench.Kernels.unrollable
                    else Polybench.Kernels.all
              in
              List.map
                (fun k ->
                  mk
                    (Fjob.Polybench
                       { kernel = k.Polybench.Kernels.name; unrolled }))
                kernels
          in
          let jobs =
            List.map of_file files
            @ kernel_jobs
            @ List.map (fun s -> mk (systolic_source s)) systolic
            @ List.init fuzz (fun i -> mk (Fjob.Fuzz { seed = seed + i }))
          in
          if jobs = [] then
            failwith
              "farm: no jobs (pass FILES, --polybench, --systolic or --fuzz)";
          let cache =
            if no_cache then None else Some (Fcache.open_dir cache_dir)
          in
          let summary = Farm.run ?jobs:farm_jobs ?cache jobs in
          if json then print_endline (Farm.to_json summary)
          else print_string (Farm.render summary);
          if
            List.exists
              (fun r -> not r.Farm.outcome.Fjob.o_ok)
              summary.Farm.results
          then job_failed := true;
          (* Failed fuzz jobs are shrunk to minimal programs on this
             domain: each shrink step depends on the last, so only the
             sweep above is worth farming out. *)
          List.iter
            (fun r ->
              Option.iter
                (fun (c : Farm.counterexample) ->
                  if not (Sys.file_exists cex_dir) then Sys.mkdir cex_dir 0o755;
                  let path =
                    Filename.concat cex_dir
                      (Printf.sprintf "fuzz_%d.futil" c.seed)
                  in
                  write_file path (Farm.counterexample_file c);
                  Printf.eprintf
                    "fuzz seed %d: minimized counterexample (%d nodes): %s\n\
                    \  %s\n\
                    \  written to %s\n"
                    c.seed
                    (Calyx.Fuzz_gen.size c.spec)
                    (Calyx.Fuzz_gen.to_string c.spec)
                    c.failure path)
                (Farm.shrink r))
            summary.Farm.results;
          match min_hit_rate with
          | Some pct when Farm.hit_rate summary < pct ->
              Printf.eprintf
                "farm: cache hit rate %.1f%% is below the required %.1f%%\n"
                (Farm.hit_rate summary) pct;
              gate_failed := true
          | _ -> ())
    in
    if code <> 0 then code
    else if !job_failed || !gate_failed then 1
    else 0
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Calyx or Dahlia source files to run as jobs.")
  in
  let polybench =
    Arg.(
      value & flag
      & info [ "polybench" ] ~doc:"Add the PolyBench kernels to the batch.")
  in
  let kernel =
    Arg.(
      value
      & opt (some string) None
      & info [ "kernel" ] ~docv:"NAME"
          ~doc:"With --polybench, submit only this kernel.")
  in
  let unrolled =
    Arg.(
      value & flag
      & info [ "unrolled" ]
          ~doc:"With --polybench, use the unrolled variants.")
  in
  let systolic =
    Arg.(
      value & opt_all string []
      & info [ "systolic" ] ~docv:"RxCxD"
          ~doc:"Add a systolic-array job of the given dimensions. Repeatable.")
  in
  let fuzz =
    Arg.(
      value & opt int 0
      & info [ "fuzz" ] ~docv:"N"
          ~doc:"Add $(docv) randomly generated programs to the batch.")
  in
  let seed =
    Arg.(
      value & opt int 2026
      & info [ "seed" ] ~docv:"S"
          ~doc:"Base seed for --fuzz (program $(i,i) uses seed S+i).")
  in
  let check =
    Arg.(
      value
      & opt (enum Fjob.checks) Fjob.Simulate
      & info [ "check" ] ~docv:"CHECK"
          ~doc:"What every job checks beyond its golden reference: $(b,simulate) (compile, simulate, time), $(b,validate) (also RTL translation validation of the emitted SystemVerilog) or $(b,engines) (also the fixpoint-vs-compiled engine differential on the structured and the lowered program).")
  in
  let cex_dir =
    Arg.(
      value & opt string "counterexamples"
      & info [ "counterexamples" ] ~docv:"DIR"
          ~doc:"Directory for the minimized programs of failed --fuzz jobs.")
  in
  let farm_jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains (default: the machine's recommended domain count).")
  in
  let cache_dir =
    Arg.(
      value & opt string "_calyx_cache"
      & info [ "cache" ] ~docv:"DIR" ~doc:"Result cache directory.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Run every job cold; touch no cache.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the batch summary as JSON.")
  in
  let min_hit_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-hit-rate" ] ~docv:"PCT"
          ~doc:"Fail (exit 1) when the cache hit rate of this run is below $(docv) percent — the CI warm-cache gate.")
  in
  Cmd.v
    (Cmd.info "farm"
       ~doc:"The corpus runner: batch compile/sim/validate/timing jobs across OCaml domains with a content-addressed result cache. The batch is assembled from source FILES, --polybench, --systolic and/or --fuzz; results are reported in submission order and are byte-identical whether computed sequentially, in parallel, or served from the cache. Failed --fuzz jobs are shrunk to minimal counterexample programs.")
    Term.(const run $ files $ polybench $ kernel $ unrolled $ systolic $ fuzz
          $ seed $ check $ cex_dir $ engine_term $ farm_jobs $ cache_dir
          $ no_cache $ json $ min_hit_rate $ config_term $ telemetry_term)

let stats_cmd =
  let run file config json tele =
    with_telemetry ~source:file tele @@ fun () ->
    handle_errors (fun () ->
        let ctx = parse_source file in
        (* The two times are those of the compile and emit spans. *)
        let (lowered, sv), spans =
          Tele.Trace.collect (fun () ->
              let lowered = Calyx.Pipelines.compile ~config ctx in
              (lowered, Calyx_verilog.Verilog.emit lowered))
        in
        let seconds name =
          Tele.Trace.seconds
            (List.find (fun (sp : Tele.Trace.span) -> sp.sp_name = name) spans)
        in
        let compile_s = seconds "compile" and emit_s = seconds "emit" in
        let main = Calyx.Ir.entry ctx in
        let usage = Calyx_synth.Area.context_usage lowered in
        let timing = Calyx_synth.Timing.context_timing ~paths:1 lowered in
        if json then
          print_endline
            (Tele.Json.obj
               [
                 ("file", Tele.Json.str file);
                 ("cells", Tele.Json.int (List.length main.Calyx.Ir.cells));
                 ("groups", Tele.Json.int (List.length main.Calyx.Ir.groups));
                 ( "control_statements",
                   Tele.Json.int (Calyx.Ir.control_size main.Calyx.Ir.control)
                 );
                 ("compile_seconds", Tele.Json.float compile_s);
                 ("emit_seconds", Tele.Json.float emit_s);
                 ("loc", Tele.Json.int (Calyx_verilog.Verilog.loc sv));
                 ( "area",
                   Tele.Json.obj
                     [
                       ("luts", Tele.Json.int usage.Calyx_synth.Area.luts);
                       ( "registers",
                         Tele.Json.int usage.Calyx_synth.Area.registers );
                       ( "register_cells",
                         Tele.Json.int usage.Calyx_synth.Area.register_cells );
                       ("dsps", Tele.Json.int usage.Calyx_synth.Area.dsps);
                       ("brams", Tele.Json.int usage.Calyx_synth.Area.brams);
                     ] );
                 ( "timing",
                   Tele.Json.obj
                     [
                       ( "levels",
                         Tele.Json.int timing.Calyx_synth.Timing.levels );
                       ( "delay_ps",
                         Tele.Json.int timing.Calyx_synth.Timing.delay_ps );
                       ( "fmax_mhz",
                         Tele.Json.float timing.Calyx_synth.Timing.fmax_mhz );
                       ( "critical",
                         Tele.Json.arr
                           (List.map Tele.Json.str
                              timing.Calyx_synth.Timing.critical) );
                     ] );
               ])
        else begin
          Printf.printf "cells:              %d\n" (List.length main.Calyx.Ir.cells);
          Printf.printf "groups:             %d\n" (List.length main.Calyx.Ir.groups);
          Printf.printf "control statements: %d\n"
            (Calyx.Ir.control_size main.Calyx.Ir.control);
          Printf.printf "compile time:       %.4f s\n" compile_s;
          Printf.printf "emit time:          %.4f s\n" emit_s;
          Printf.printf "SystemVerilog LOC:  %d\n" (Calyx_verilog.Verilog.loc sv);
          Printf.printf "area estimate:      %s\n"
            (Format.asprintf "%a" Calyx_synth.Area.pp usage);
          Printf.printf "critical path:      %d logic levels, %d ps (%.1f MHz)\n"
            timing.Calyx_synth.Timing.levels timing.Calyx_synth.Timing.delay_ps
            timing.Calyx_synth.Timing.fmax_mhz;
          match timing.Calyx_synth.Timing.critical with
          | [] -> ()
          | path ->
              Printf.printf "  through: %s\n"
                (String.concat " -> "
                   (if List.length path > 6 then
                      List.filteri (fun i _ -> i < 6) path @ [ "..." ]
                    else path))
        end)
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the same statistics as a single JSON object.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Compilation statistics for a Calyx (or Dahlia) design (Section 7.4).")
    Term.(const run $ file_arg $ config_term $ json $ telemetry_term)

let timing_cmd =
  let run file config json paths period tele =
    with_telemetry ~source:file tele @@ fun () ->
    let failed = ref false in
    let code =
      handle_errors (fun () ->
          let ctx = parse_source file in
          let lowered = Calyx.Pipelines.compile ~config ctx in
          let report = Calyx_synth.Timing.context_timing ~paths lowered in
          let target_period_ps =
            Option.map (fun ns -> int_of_float (ns *. 1000.)) period
          in
          (* Attribution resolves through the structured program, where
             groups and control still exist. *)
          if json then
            print_endline
              (Calyx_synth.Timing.to_json ~attribute_ctx:ctx ?target_period_ps
                 report)
          else
            print_string
              (Calyx_synth.Timing.render ~attribute_ctx:ctx ?target_period_ps
                 report);
          Option.iter
            (fun p ->
              if Calyx_synth.Timing.slack_ps report ~period_ps:p < 0 then
                failed := true)
            target_period_ps)
    in
    if code <> 0 then code else if !failed then 1 else 0
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the timing report as a single JSON object.")
  in
  let paths =
    Arg.(
      value & opt int 5
      & info [ "paths" ] ~docv:"K"
          ~doc:"Report the $(docv) worst paths (one per distinct endpoint).")
  in
  let period =
    Arg.(
      value
      & opt (some float) None
      & info [ "period" ] ~docv:"NS"
          ~doc:"Target clock period in nanoseconds: report slack against it and exit non-zero when the design cannot meet it.")
  in
  Cmd.v
    (Cmd.info "timing"
       ~doc:"Static timing analysis of the compiled design: critical-path delay under the width-aware delay model, an Fmax estimate, and the K worst paths attributed back to cells, groups, and the control statements that enable them.")
    Term.(const run $ file_arg $ config_term $ json $ paths $ period
          $ telemetry_term)

let report_cmd =
  let run files json baseline tele =
    with_telemetry tele @@ fun () ->
    let failed = ref false in
    let code =
      handle_errors (fun () ->
          let manifests, benches =
            List.partition (fun f -> Filename.check_suffix f ".jsonl") files
          in
          (* JSONL run manifests aggregate into per-source/per-stage
             rollups. *)
          if manifests <> [] then begin
            let events = List.concat_map Tele.Manifest.read_file manifests in
            let rollups = Tele.Report.aggregate events in
            if json then print_endline (Tele.Report.to_json rollups)
            else print_string (Tele.Report.render rollups)
          end;
          (* Bench results files are gated against a baseline recording. *)
          (match (baseline, benches) with
          | None, [] when manifests = [] ->
              Tele.Log.info
                "report: nothing to do (pass .jsonl manifests and/or a bench \
                 results file with --baseline)"
          | None, _ :: _ ->
              Tele.Log.info
                "report: bench results given without --baseline; skipping the \
                 regression comparison"
          | None, [] -> ()
          | Some base, benches ->
              if benches = [] then
                failwith "report: --baseline needs a current bench results file";
              let parse_results path =
                Tele.Json.parse_located ~file:path
                  (In_channel.with_open_bin path In_channel.input_all)
              in
              let baseline = parse_results base in
              List.iter
                (fun bench ->
                  let g =
                    Tele.Report.gate ~baseline ~current:(parse_results bench)
                  in
                  print_string (Tele.Report.render_gate g);
                  if Tele.Report.failed g then failed := true)
                benches))
    in
    if code <> 0 then code else if !failed then 1 else 0
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Inputs: $(b,.jsonl) run manifests (from --telemetry) and/or a current $(b,BENCH_results.json) to compare against --baseline.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the manifest rollups as a JSON array.")
  in
  let baseline =
    Arg.(
      value
      & opt (some file) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:"Baseline bench results file to gate the current one against: every deterministic leaf may move at most 5%, and each perf row may slow down at most 25% more than the machine factor (the geomean runtime ratio across all perf rows).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Aggregate telemetry run manifests into per-kernel, per-stage rollups (invocations, wall time, GC allocation, stage metrics), and gate a bench results file against a baseline: deterministic metrics (cycles, area, correctness flags) within 5%, compile times within 25% of the machine factor. Exits non-zero when either rule fails.")
    Term.(const run $ files $ json $ baseline $ telemetry_term)

let () =
  let doc = "the Calyx compiler infrastructure (OCaml reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "calyx" ~version:"1.0.0" ~doc)
          [
            check_cmd; compile_cmd; interp_cmd; sim_cmd; profile_cmd;
            cover_cmd; systolic_cmd; farm_cmd; validate_cmd;
            stats_cmd; timing_cmd; report_cmd;
          ]))
