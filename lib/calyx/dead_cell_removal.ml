open Ir

let referenced comp =
  let used = Hashtbl.create 32 in
  let mark = function
    | Cell_port (c, _) -> Hashtbl.replace used c ()
    | Hole _ | This _ -> ()
  in
  let mark_atom = function Port p -> mark p | Lit _ -> () in
  List.iter
    (fun a ->
      mark a.dst;
      List.iter mark_atom (assignment_atoms a))
    (all_assignments comp);
  iter_control
    (function
      | If { cond_port; _ } | While { cond_port; _ } -> mark cond_port
      | Invoke { cell; invoke_inputs; invoke_outputs; _ } ->
          Hashtbl.replace used cell ();
          List.iter (fun (_, a) -> mark_atom a) invoke_inputs;
          List.iter (fun (_, dst) -> mark dst) invoke_outputs
      | Empty | Enable _ | Seq _ | Par _ -> ())
    comp.control;
  Hashtbl.mem used

let remove_dead (_ctx : context) comp =
  let used = referenced comp in
  {
    comp with
    cells =
      List.filter
        (fun c -> used c.cell_name || Attrs.external_mem c.cell_attrs)
        comp.cells;
  }

let pass =
  Pass.make ~name:"dead-cell-removal"
    ~description:"drop cells whose ports are never referenced"
    (Pass.per_component remove_dead)
