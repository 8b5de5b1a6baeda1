open Ir
module D = Diagnostics

exception Malformed of string list

(* Every check emits a coded, located diagnostic; the legacy string API
   below renders them. Codes are stable (see Diagnostics.code_descriptions):
     CX001 duplicates           CX002 bad primitive      CX003 bad component
     CX004 unresolved reference CX005 direction          CX006 width
     CX007 missing done         CX008 multiple drivers   CX009 unknown group
     CX010 bad condition        CX011 bad invoke         CX012 no entrypoint
     CX013 no go/done interface *)

(* What [scoped_diagnostics] checks of a component: the duplicate cell
   and group names, the signature's (duplicate ports and the go/done
   interface), the prototypes of the given cells, the continuous
   assignments, the given groups (a sublist of the component's, in
   order), and the control program. [everything] is the full check. *)
type scope = {
  sc_names : bool;
  sc_signature : bool;
  sc_cells : cell list;
  sc_continuous : bool;
  sc_groups : group list;
  sc_control : bool;
}

let everything comp =
  {
    sc_names = true;
    sc_signature = true;
    sc_cells = comp.cells;
    sc_continuous = true;
    sc_groups = comp.groups;
    sc_control = true;
  }

(* Locations are lazy: an assignment's location prints its destination
   port, which is only worth doing for the few assignments reported. The
   diagnostics come with the number of assignments checked. *)
let scoped_diagnostics ctx scope comp =
  let acc = ref [] and checked = ref 0 in
  let report sev ~code ~loc fmt =
    Format.kasprintf
      (fun message ->
        acc :=
          { D.code; severity = sev; loc = Lazy.force loc; message } :: !acc)
      fmt
  in
  let error ~code ~loc fmt = report D.Error ~code ~loc fmt in
  let comp_loc = Lazy.from_val (D.Component comp.comp_name) in
  let group_loc g = Lazy.from_val (D.Group { comp = comp.comp_name; group = g }) in
  let cell_loc c = Lazy.from_val (D.Cell { comp = comp.comp_name; cell = c }) in
  let assign_loc group a =
    lazy
      (D.Assignment
         {
           comp = comp.comp_name;
           group;
           dst = port_name a.dst;
         })
  in
  let control_loc path = Lazy.from_val (D.Control { comp = comp.comp_name; path }) in
  (* An unresolved prototype is reported once, at its cell (CX002/CX003),
     not again at every reference to its ports. *)
  let ports = lazy (Ports.create ctx comp) in
  let groups = lazy (group_index comp) in
  let check_duplicates what names =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun n ->
        if Hashtbl.mem tbl n then
          error ~code:"CX001" ~loc:comp_loc "duplicate %s %s" what n
        else Hashtbl.add tbl n ())
      names
  in
  if scope.sc_names then begin
    check_duplicates "cell" (List.map (fun c -> c.cell_name) comp.cells);
    check_duplicates "group" (List.map (fun g -> g.group_name) comp.groups)
  end;
  if scope.sc_signature then begin
    check_duplicates "port"
      (List.map (fun pd -> pd.pd_name) (signature_ports comp));
    (* The calling convention (Section 4.1): a component with a body has a
       1-bit go input and a 1-bit done output, which the control compiler
       wires up. *)
    if comp.is_extern = None then
      List.iter
        (fun (name, dir, what) ->
          let ok =
            match Ports.resolve (Lazy.force ports) (This name) with
            | Ports.Resolved r -> r.dir = dir && r.width = 1
            | _ -> false
          in
          if not ok then
            error ~code:"CX013" ~loc:comp_loc
              "component %s has no %s: 1 %s (the go/done interface)"
              comp.comp_name name what)
        [ ("go", Input, "input"); ("done", Output, "output") ]
  end;
  (* Cells must instantiate known primitives or components. *)
  List.iter
    (fun c ->
      match c.cell_proto with
      | Prim (name, params) -> (
          match Prims.find name with
          | None ->
              error ~code:"CX002" ~loc:(cell_loc c.cell_name)
                "unknown primitive %s" name
          | Some info -> (
              try ignore (info.make_ports params)
              with Invalid_argument msg ->
                error ~code:"CX002" ~loc:(cell_loc c.cell_name) "%s" msg))
      | Comp name -> (
          match find_component_opt ctx name with
          | None ->
              error ~code:"CX003" ~loc:(cell_loc c.cell_name)
                "unknown component %s" name
          | Some sub ->
              if String.equal sub.comp_name comp.comp_name then
                error ~code:"CX003" ~loc:(cell_loc c.cell_name)
                  "recursive instantiation of %s" name))
    scope.sc_cells;
  (* Port reference resolution + direction checks for assignments. *)
  let group_exists g = Hashtbl.mem (Lazy.force groups) g in
  let port_info ~loc p =
    (* Returns (width, is_readable, is_writable) or None with a problem. *)
    match Ports.resolve (Lazy.force ports) p with
    | Ports.Resolved r -> (
        match p with
        | Hole _ -> Some (1, true, true)
        | This _ | Cell_port _ ->
            (* Inside the component, inputs are read and outputs written;
               a cell's outputs are read and its inputs written. *)
            let read_dir = match p with This _ -> Input | _ -> Output in
            let readable = r.dir = read_dir in
            Some (r.width, readable, not readable))
    | Ports.Unresolved_prototype _ -> None
    | (Ports.Unknown_cell | Ports.No_port) as r ->
        (match (p, r) with
        | Hole (g, _), Ports.Unknown_cell ->
            error ~code:"CX004" ~loc "reference to hole of unknown group %s" g
        | Hole (g, h), _ -> error ~code:"CX004" ~loc "unknown hole %s[%s]" g h
        | Cell_port (c, _), Ports.Unknown_cell ->
            error ~code:"CX004" ~loc "reference to unknown cell %s" c
        | Cell_port (c, q), _ ->
            error ~code:"CX004" ~loc "cell %s has no port %s" c q
        | This name, _ ->
            error ~code:"CX004" ~loc "unknown component port %s" name);
        None
  in
  let atom_info ~loc = function
    | Port p -> port_info ~loc p
    | Lit v -> Some (Bitvec.width v, true, false)
  in
  let check_assignment group a =
    incr checked;
    let loc = assign_loc group a in
    let dst = port_info ~loc a.dst in
    (match dst with
    | Some (_, _, false) ->
        error ~code:"CX005" ~loc
          "%a is not writable (not a cell input or component output)"
          pp_port_ref a.dst
    | _ -> ());
    let src = atom_info ~loc a.src in
    (match src with
    | Some (_, false, _) ->
        error ~code:"CX005" ~loc "%a is not readable" pp_atom a.src
    | _ -> ());
    (match (dst, src) with
    | Some (dw, _, _), Some (sw, _, _) when dw <> sw ->
        error ~code:"CX006" ~loc "width mismatch in %a = %a (%d vs %d)"
          pp_port_ref a.dst pp_atom a.src dw sw
    | _ -> ());
    List.iter
      (fun atom ->
        match atom_info ~loc atom with
        | Some (_, false, _) ->
            error ~code:"CX005" ~loc "guard reads unreadable %a" pp_atom atom
        | _ -> ())
      (guard_atoms a.guard);
    let rec check_cmp_widths = function
      | True | Atom _ -> ()
      | Cmp (_, x, y) -> (
          match (atom_info ~loc x, atom_info ~loc y) with
          | Some (wx, _, _), Some (wy, _, _) when wx <> wy ->
              error ~code:"CX006" ~loc "comparison width mismatch %a vs %a"
                pp_atom x pp_atom y
          | _ -> ())
      | And (g1, g2) | Or (g1, g2) ->
          check_cmp_widths g1;
          check_cmp_widths g2
      | Not g -> check_cmp_widths g
    in
    check_cmp_widths a.guard
  in
  if scope.sc_continuous then List.iter (check_assignment None) comp.continuous;
  List.iter
    (fun g ->
      List.iter (check_assignment (Some g.group_name)) g.assigns;
      (* Every group must signal completion (Section 3.3). *)
      let drives_done =
        List.exists
          (fun a ->
            match a.dst with
            | Hole (gr, "done") -> String.equal gr g.group_name
            | _ -> false)
          g.assigns
      in
      if not drives_done then
        error ~code:"CX007" ~loc:(group_loc g.group_name)
          "group %s does not drive its done hole" g.group_name;
      (* Unique unconditional drivers within a group. *)
      let seen = Hashtbl.create 8 in
      List.iter
        (fun a ->
          if a.guard = True then begin
            if Hashtbl.mem seen a.dst then
              error ~code:"CX008"
                ~loc:(assign_loc (Some g.group_name) a)
                "multiple unconditional drivers of %a" pp_port_ref a.dst
            else Hashtbl.add seen a.dst ()
          end)
        g.assigns)
    scope.sc_groups;
  (* Control references. *)
  let check_cond ~loc cond_group cond_port =
    (match cond_group with
    | Some g when not (group_exists g) ->
        error ~code:"CX010" ~loc "unknown condition group %s" g
    | _ -> ());
    match port_info ~loc cond_port with
    | Some (w, _, _) when w <> 1 ->
        error ~code:"CX010" ~loc "condition port %a must be 1 bit wide, got %d"
          pp_port_ref cond_port w
    | Some (_, false, _) ->
        error ~code:"CX010" ~loc "condition port %a is not readable"
          pp_port_ref cond_port
    | _ -> ()
  in
  iter_control_path
    (fun path ctrl ->
      let loc = control_loc path in
      match ctrl with
      | Enable (g, _) ->
          if not (group_exists g) then
            error ~code:"CX009" ~loc "control enables unknown group %s" g
      | If { cond_group; cond_port; _ } -> check_cond ~loc cond_group cond_port
      | While { cond_group; cond_port; _ } ->
          check_cond ~loc cond_group cond_port
      | Invoke { cell; invoke_inputs; invoke_outputs; _ } -> (
          match Ports.cell_ports (Lazy.force ports) cell with
          | None -> error ~code:"CX011" ~loc "invoke of unknown cell %s" cell
          | Some (Error _) -> () (* the prototype is reported at the cell *)
          | Some (Ok ports) ->
              let has name dir =
                List.exists
                  (fun (n, _, d) -> String.equal n name && d = dir)
                  ports
              in
              if not (has "go" Input && has "done" Output) then
                error ~code:"CX011" ~loc
                  "invoke target %s has no go/done interface" cell;
              List.iter
                (fun (p, a) ->
                  match
                    List.find_opt (fun (n, _, _) -> String.equal n p) ports
                  with
                  | None ->
                      error ~code:"CX011" ~loc "invoke of %s: no input port %s"
                        cell p
                  | Some (_, w, dir) -> (
                      if dir <> Input then
                        error ~code:"CX011" ~loc
                          "invoke of %s: %s is not an input" cell p;
                      match atom_info ~loc a with
                      | Some (aw, _, _) when aw <> w ->
                          error ~code:"CX011" ~loc
                            "invoke of %s: width mismatch on %s (%d vs %d)"
                            cell p aw w
                      | Some (_, false, _) ->
                          error ~code:"CX011" ~loc
                            "invoke of %s: %a is not readable" cell pp_atom a
                      | _ -> ()))
                invoke_inputs;
              (* Output bindings: the port must exist and be an output of
                 the invoked cell, and the destination must be a writable
                 port of matching width. *)
              List.iter
                (fun (p, dst) ->
                  match
                    List.find_opt (fun (n, _, _) -> String.equal n p) ports
                  with
                  | None ->
                      error ~code:"CX011" ~loc
                        "invoke of %s: no output port %s" cell p
                  | Some (_, w, dir) -> (
                      if dir <> Output then
                        error ~code:"CX011" ~loc
                          "invoke of %s: %s is not an output" cell p;
                      match port_info ~loc dst with
                      | Some (_, _, false) ->
                          error ~code:"CX011" ~loc
                            "invoke of %s: destination %a is not writable"
                            cell pp_port_ref dst
                      | Some (dw, _, _) when dw <> w ->
                          error ~code:"CX011" ~loc
                            "invoke of %s: width mismatch on output %s (%d \
                             vs %d)"
                            cell p w dw
                      | _ -> ()))
                invoke_outputs)
      | Empty | Seq _ | Par _ -> ())
    (if scope.sc_control then comp.control else Empty);
  (List.rev !acc, !checked)

let component_diagnostics ctx comp =
  fst (scoped_diagnostics ctx (everything comp) comp)

(* The whole program's diagnostics, each component checked within its
   scope in [scopes] (in the order of the components), and the number of
   assignments checked. *)
let program_diagnostics ctx scopes =
  let entry =
    match find_component_opt ctx ctx.entrypoint with
    | Some _ -> []
    | None ->
        [
          D.error ~code:"CX012" ~loc:D.Program
            "entrypoint component %s not found" ctx.entrypoint;
        ]
  in
  let checked = ref 0 in
  let components =
    List.concat
      (List.map2
         (fun c scope ->
           if c.is_extern <> None then []
           else begin
             let d, n = scoped_diagnostics ctx scope c in
             checked := !checked + n;
             d
           end)
         ctx.components scopes)
  in
  (entry @ components, !checked)

let full_scopes ctx = List.map everything ctx.components
let diagnostics ctx = fst (program_diagnostics ctx (full_scopes ctx))

let check_component ctx comp =
  List.map D.render (component_diagnostics ctx comp)

let errors ctx = List.map D.render (diagnostics ctx)

let check ctx =
  match errors ctx with [] -> () | problems -> raise (Malformed problems)

(* Re-checking a pass's output against its well-formed input. *)

type recheck = {
  errors : string list;
  reused_assignments : int;
  rechecked_assignments : int;
}

(* What follows [prefix] in [l], when [l] starts with it, element by
   element. *)
let rec after_prefix same prefix l =
  match (prefix, l) with
  | [], l -> Some l
  | x :: prefix, y :: l when same x y -> after_prefix same prefix l
  | _ -> None

(* The part of [after] whose verdict can differ from [before]'s, whose
   component (and every other's) has the same signature: [None] when
   [after] must be checked in full. Every name [before]'s parts resolve
   must still resolve to the same thing: its cells must start [after]'s,
   physically, and its groups' names [after]'s, in order. A group is
   re-checked when its assignment list is not [==] [before]'s under the
   same name, and so are the appended groups; the continuous assignments
   and the control, when they are not [==]. The appended cells' prototypes
   are checked, and the duplicate names when anything was appended. Also
   returns the number of assignments left unchecked. *)
let stale before after =
  match
    ( after_prefix ( == ) before.cells after.cells,
      after_prefix
        (fun b a -> String.equal b.group_name a.group_name)
        before.groups after.groups )
  with
  | Some new_cells, Some new_groups ->
      let reused = ref 0 in
      let keep l = reused := !reused + List.length l in
      let rec groups before after =
        match (before, after) with
        | b :: before, a :: after ->
            if a.assigns == b.assigns then begin
              keep a.assigns;
              groups before after
            end
            else a :: groups before after
        | _ -> new_groups
      in
      let continuous = not (after.continuous == before.continuous) in
      if not continuous then keep after.continuous;
      let scope =
        {
          sc_names = new_cells <> [] || new_groups <> [];
          sc_signature = false;
          sc_cells = new_cells;
          sc_continuous = continuous;
          sc_groups = groups before.groups after.groups;
          sc_control = not (after.control == before.control);
        }
      in
      Some (scope, !reused)
  | _ -> None

let same_signatures before after =
  List.compare_lengths before.components after.components = 0
  && List.for_all2
       (fun b a ->
         String.equal b.comp_name a.comp_name
         && b.inputs == a.inputs && b.outputs == a.outputs
         && b.is_extern = a.is_extern)
       before.components after.components

let nothing =
  {
    sc_names = false;
    sc_signature = false;
    sc_cells = [];
    sc_continuous = false;
    sc_groups = [];
    sc_control = false;
  }

let recheck ?before ctx =
  let full () =
    let diagnostics, checked = program_diagnostics ctx (full_scopes ctx) in
    {
      errors = List.map D.render diagnostics;
      reused_assignments = 0;
      rechecked_assignments = checked;
    }
  in
  match before with
  | Some before when same_signatures before ctx -> (
      let reused = ref 0 in
      let scope b c =
        match
          if c == b then
            Some
              ( nothing,
                List.fold_left
                  (fun n g -> n + List.length g.assigns)
                  (List.length c.continuous) c.groups )
          else stale b c
        with
        | Some (scope, n) ->
            reused := !reused + n;
            scope
        | None -> everything c
      in
      match
        program_diagnostics ctx
          (List.map2 scope before.components ctx.components)
      with
      | [], checked ->
          {
            errors = [];
            reused_assignments = !reused;
            rechecked_assignments = checked;
          }
      | _ :: _, _ -> full ())
  | _ -> full ()
