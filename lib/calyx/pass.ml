type t = {
  name : string;
  description : string;
  transform : Ir.context -> Ir.context;
}

let make ~name ~description transform = { name; description; transform }

(* ------------------------------------------------------------------ *)
(* Instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

type counts = {
  components : int;
  cells : int;
  groups : int;
  assignments : int;
  control_nodes : int;
}

let measure (ctx : Ir.context) =
  List.fold_left
    (fun acc (c : Ir.component) ->
      {
        components = acc.components + 1;
        cells = acc.cells + List.length c.Ir.cells;
        groups = acc.groups + List.length c.Ir.groups;
        assignments =
          acc.assignments + List.length (Ir.all_assignments c);
        control_nodes = acc.control_nodes + Ir.control_size c.Ir.control;
      })
    { components = 0; cells = 0; groups = 0; assignments = 0; control_nodes = 0 }
    ctx.Ir.components

type observation = {
  obs_pass : string;
  obs_description : string;
  obs_seconds : float;
  obs_before : counts;
  obs_after : counts;
  obs_ctx_before : Ir.context;
  obs_ctx_after : Ir.context;
}

let validate_after pass ctx' =
  match
    Calyx_telemetry.Trace.with_span ~cat:"pass" "revalidate" (fun () ->
        Well_formed.errors ctx')
  with
  | [] -> ()
  | errors ->
      raise
        (Well_formed.Malformed
           (List.map (fun e -> Printf.sprintf "[after %s] %s" pass.name e) errors))

let invocations =
  Calyx_telemetry.Metrics.counter
    ~help:"Compiler pass invocations across the process"
    "calyx_pass_invocations_total"

let run ?(validate = true) ?observe pass ctx =
  Calyx_telemetry.Metrics.inc invocations;
  Calyx_telemetry.Trace.with_span ~cat:"pass" pass.name @@ fun () ->
  match observe with
  | None ->
      let ctx' = pass.transform ctx in
      if validate then validate_after pass ctx';
      ctx'
  | Some notify ->
      let before = measure ctx in
      let ctx', seconds =
        Calyx_telemetry.Clock.timed (fun () -> pass.transform ctx)
      in
      if validate then validate_after pass ctx';
      notify
        {
          obs_pass = pass.name;
          obs_description = pass.description;
          obs_seconds = seconds;
          obs_before = before;
          obs_after = measure ctx';
          obs_ctx_before = ctx;
          obs_ctx_after = ctx';
        };
      ctx'

let run_all ?validate ?observe passes ctx =
  List.fold_left (fun ctx pass -> run ?validate ?observe pass ctx) ctx passes

let per_component f (ctx : Ir.context) =
  {
    ctx with
    Ir.components =
      List.map
        (fun c -> if c.Ir.is_extern <> None then c else f ctx c)
        ctx.Ir.components;
  }
