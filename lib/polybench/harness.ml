module Tele = Calyx_telemetry

type result = {
  cycles : int;
  correct : bool;
  mismatches : string list;
  area : Calyx_synth.Area.usage;
  timing : Calyx_synth.Timing.report;
  wall_ns : float;
}

(* Stamp the run-manifest context so every span closed under this kernel
   run (compile, sim, validate, timing) is attributed to the kernel and
   the exact pipeline configuration that produced it. *)
let stamp_run (k : Kernels.kernel) ~unrolled ~config ~engine =
  if Tele.Runtime.on () then begin
    let source =
      if unrolled then Option.value k.Kernels.unrolled ~default:k.Kernels.source
      else k.Kernels.source
    in
    Tele.Manifest.set_run
      ~source:(if unrolled then k.Kernels.name ^ "-unrolled" else k.Kernels.name)
      ~source_hash:(Tele.Manifest.hash source)
      ~pipeline:(Calyx.Pipelines.id config)
      ~engine:
        (Calyx_sim.Sim.engine_name
           (Option.value engine ~default:Calyx_sim.Sim.default_engine))
      ()
  end

let program (k : Kernels.kernel) ~unrolled =
  let source =
    if unrolled then
      match k.Kernels.unrolled with
      | Some src -> src
      | None -> invalid_arg (k.Kernels.name ^ " has no unrolled variant")
    else k.Kernels.source
  in
  Dahlia.Parser.parse_string source

let build k ~unrolled = Dahlia.To_calyx.compile (program k ~unrolled)

let verify (k : Kernels.kernel) prog io =
  List.filter_map
    (fun (name, want) ->
      if Array.of_list (Data.read prog io name) = want then None else Some name)
    (Dahlia.Eval.run prog ~inputs:k.Kernels.inputs)

let load_inputs (k : Kernels.kernel) prog io =
  List.iter (fun (name, values) -> Data.load prog io name values) k.Kernels.inputs

let testbench k prog =
  {
    Calyx_sim.Testbench.load = load_inputs k prog;
    check =
      (fun io ->
        List.map
          (fun name -> "golden mismatch in memory " ^ name)
          (verify k prog io));
  }

(* The result of a simulated run of [ctx]; [timed] is the design the
   timing model analyzes. *)
let result ?engine k prog ~timed ctx =
  let cycles, mismatches =
    Calyx_sim.Testbench.run ?engine (testbench k prog) ctx
  in
  let timing = timed () in
  {
    cycles;
    correct = mismatches = [];
    mismatches;
    area = Calyx_synth.Area.context_usage ctx;
    timing;
    wall_ns = Calyx_synth.Timing.wall_ns timing ~cycles;
  }

let run ?(config = Calyx.Pipelines.default_config) ?engine k ~unrolled =
  stamp_run k ~unrolled ~config ~engine;
  let prog = program k ~unrolled in
  let lowered = Calyx.Pipelines.compile ~config (Dahlia.To_calyx.compile prog) in
  result ?engine k prog lowered ~timed:(fun () ->
      Calyx_synth.Timing.context_timing ~paths:1 lowered)
