open Ir

(* [cells] is [cell_index comp]. *)
let proto cells comp cell_name =
  match Hashtbl.find_opt cells cell_name with
  | Some c -> c.cell_proto
  | None -> ir_error "unknown cell %s in component %s" cell_name comp.comp_name

(* Latency of a cell's go/done (or write_en/done) protocol, if known. *)
let cell_latency ctx cells comp cell_name =
  match proto cells comp cell_name with
  | Prim (name, _) -> (
      match Prims.find name with Some info -> info.latency | None -> None)
  | Comp name -> Attrs.static (find_component ctx name).comp_attrs

let is_register cells comp cell_name =
  match proto cells comp cell_name with
  | Prim (name, _) -> (
      match Prims.find name with
      | Some { kind = Register | Memory; _ } -> true
      | Some _ | None -> false)
  | Comp _ -> false

(* The group's sole unconditional write to its own done hole, if any. *)
let done_source group =
  let writes =
    List.filter
      (fun a ->
        match a.dst with
        | Hole (g, "done") -> String.equal g group.group_name
        | _ -> false)
      group.assigns
  in
  match writes with [ { guard = True; src; _ } ] -> Some src | _ -> None

let drives_write_en_high cell group =
  List.exists
    (fun a ->
      match (a.dst, a.guard, a.src) with
      | Cell_port (c, "write_en"), True, Lit v ->
          String.equal c cell && Bitvec.is_true v
      | _ -> false)
    group.assigns

(* Accepts the two invocation idioms: [c.go = 1] and [c.go = !c.done ? 1]. *)
let drives_go cell group =
  List.exists
    (fun a ->
      match (a.dst, a.src) with
      | Cell_port (c, "go"), Lit v when String.equal c cell && Bitvec.is_true v
        -> (
          match a.guard with
          | True -> true
          | Not (Atom (Port (Cell_port (c', "done")))) -> String.equal c' cell
          | _ -> false)
      | _ -> false)
    group.assigns

(* Register write gated by a go/done cell's completion:
   [r.write_en = c.done]. *)
let write_en_source cell group =
  List.find_map
    (fun a ->
      match (a.dst, a.guard, a.src) with
      | Cell_port (c, "write_en"), True, Port (Cell_port (c', "done"))
        when String.equal c cell ->
          Some c'
      | _ -> None)
    group.assigns

(* The latency the idiom analysis can derive for a group, ignoring any
   existing "static" annotation. Shared with the latency-contract lint so a
   user annotation can be checked against what the hardware will do. *)
let derived_group_latency ctx cells comp group =
  match done_source group with
  | Some (Lit v) when Bitvec.is_true v -> Some 1
  | Some (Port (Cell_port (c, "done"))) -> (
      if is_register cells comp c then
        if drives_write_en_high c group then Some 1
        else begin
          (* r.write_en = c'.done; c' invoked within the group. *)
          match write_en_source c group with
          | Some c' when drives_go c' group -> (
              match cell_latency ctx cells comp c' with
              | Some l -> Some (l + 1)
              | None -> None)
          | _ -> None
        end
      else
        match cell_latency ctx cells comp c with
        | Some l when drives_go c group -> Some l
        | _ -> None)
  | _ -> None

let infer_group ctx cells comp group =
  match Attrs.static group.group_attrs with
  | Some _ -> (group, false)
  | None -> (
      match derived_group_latency ctx cells comp group with
      | Some n ->
          ( { group with group_attrs = Attrs.with_static n group.group_attrs },
            true )
      | None -> (group, false))

let infer_component ctx comp =
  let changed = ref false in
  let cells = cell_index comp in
  let groups =
    List.map
      (fun g ->
        let g', c = infer_group ctx cells comp g in
        if c then changed := true;
        g')
      comp.groups
  in
  let comp = { comp with groups } in
  let comp =
    if Attrs.static comp.comp_attrs <> None || comp.control = Empty then comp
    else
      match Static_timing.control_latency (group_index comp) comp comp.control with
      | Some n ->
          changed := true;
          { comp with comp_attrs = Attrs.with_static n comp.comp_attrs }
      | None -> comp
  in
  (comp, !changed)

let infer ctx =
  (* Iterate so latencies propagate bottom-up through component
     instantiations. *)
  let rec go ctx iterations =
    let changed = ref false in
    let components =
      List.map
        (fun c ->
          if c.is_extern <> None then c
          else begin
            let c', ch = infer_component ctx c in
            if ch then changed := true;
            c'
          end)
        ctx.components
    in
    let ctx = { ctx with components } in
    if !changed && iterations < 16 then go ctx (iterations + 1) else ctx
  in
  go ctx 0

let pass =
  Pass.make ~name:"infer-latency"
    ~description:"infer static latencies for simple groups and components"
    infer
