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

let record_counts ctx =
  if Calyx_telemetry.Runtime.on () then begin
    let c = measure ctx in
    List.iter
      (fun (k, v) -> Calyx_telemetry.Trace.add_metric k (float_of_int v))
      [
        ("components", c.components);
        ("cells", c.cells);
        ("groups", c.groups);
        ("assignments", c.assignments);
        ("control_nodes", c.control_nodes);
      ]
  end

let span_counts sp =
  let metrics = Calyx_telemetry.Trace.metrics sp in
  let get k = Option.map int_of_float (List.assoc_opt k metrics) in
  match
    (get "components", get "cells", get "groups", get "assignments",
     get "control_nodes")
  with
  | Some components, Some cells, Some groups, Some assignments,
    Some control_nodes ->
      Some { components; cells; groups; assignments; control_nodes }
  | _ -> None

(* The re-check compares the output with the input only when the input is
   known to be well-formed (Well_formed.recheck); the span carries how
   many assignments kept their verdict and how many were checked. *)
let validate_after ~checked pass ctx ctx' =
  let r =
    Calyx_telemetry.Trace.with_span ~cat:"pass" "revalidate" (fun () ->
        let before = if checked then Some ctx else None in
        let r = Well_formed.recheck ?before ctx' in
        if Calyx_telemetry.Runtime.on () then begin
          let add k v = Calyx_telemetry.Trace.add_metric k (float_of_int v) in
          add "reused_assignments" r.Well_formed.reused_assignments;
          add "rechecked_assignments" r.Well_formed.rechecked_assignments
        end;
        r)
  in
  match r.Well_formed.errors with
  | [] -> ()
  | errors ->
      raise
        (Well_formed.Malformed
           (List.map (fun e -> Printf.sprintf "[after %s] %s" pass.name e) errors))

let run ?(validate = true) ?(checked = false) pass ctx =
  Calyx_telemetry.Trace.with_span ~cat:"pass" pass.name @@ fun () ->
  let ctx' = pass.transform ctx in
  if validate then validate_after ~checked pass ctx ctx';
  record_counts ctx';
  ctx'

(* A validated pass's output is well-formed: the next pass's input. *)
let run_all ?(validate = true) ?checked passes ctx =
  fst
    (List.fold_left
       (fun (ctx, checked) pass -> (run ~validate ?checked pass ctx, Some validate))
       (ctx, checked) passes)

let per_component f (ctx : Ir.context) =
  {
    ctx with
    Ir.components =
      List.map
        (fun c -> if c.Ir.is_extern <> None then c else f ctx c)
        ctx.Ir.components;
  }
