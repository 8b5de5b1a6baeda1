module Tele = Calyx_telemetry

type config = {
  infer_latency : bool;
  resource_sharing : bool;
  register_sharing : bool;
  static_timing : bool;
  lint : bool;
}

let default_config =
  {
    infer_latency = true;
    resource_sharing = true;
    register_sharing = true;
    static_timing = true;
    lint = true;
  }

let insensitive_config =
  {
    infer_latency = false;
    resource_sharing = false;
    register_sharing = false;
    static_timing = false;
    lint = true;
  }

let optimize config =
  List.concat
    [
      [ Compile_invoke.pass ];
      (if config.infer_latency then [ Infer_latency.pass ] else []);
      (if config.resource_sharing then [ Resource_sharing.pass ] else []);
      (if config.register_sharing then [ Register_sharing.pass ] else []);
    ]

let lower config =
  List.concat
    [
      [ Go_insertion.pass ];
      (if config.static_timing then [ Static_timing.pass ] else []);
      [ Compile_control.pass; Remove_groups.pass; Dead_cell_removal.pass ];
    ]

let passes config = optimize config @ lower config

(* The pass pipeline id: the run-manifest (and future compile-cache) key
   component identifying *which* compiler ran. The readable pass list is
   hashed so the id stays short and stable under pass renames-with-intent
   (any change to the pass sequence changes the id). *)
let description config =
  String.concat "|" (List.map (fun (p : Pass.t) -> p.Pass.name) (passes config))

let id config = Tele.Manifest.hash (description config)

let programs_compiled =
  Tele.Metrics.counter ~help:"Programs taken through the full pass pipeline"
    "calyx_programs_compiled_total"

let compile ?(config = default_config) ctx =
  Tele.Metrics.inc programs_compiled;
  if Tele.Runtime.on () then Tele.Manifest.set_run ~pipeline:(id config) ();
  Tele.Trace.with_span ~cat:"stage" "compile" @@ fun () ->
  Tele.Log.debug "compile: pipeline %s (%s)" (id config) (description config);
  Pass.record_counts ctx;
  Tele.Trace.with_span ~cat:"stage" "check" (fun () -> Well_formed.check ctx);
  if config.lint then
    Tele.Trace.with_span ~cat:"stage" "lint" (fun () -> Lint.check ctx);
  Pass.run_all ~checked:true (passes config) ctx
