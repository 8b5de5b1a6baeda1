open Ir

let pp_attrs fmt attrs = Attrs.pp fmt attrs

let pp_port_def fmt pd =
  Format.fprintf fmt "%a%s: %d" pp_attrs pd.pd_attrs pd.pd_name pd.pd_width

let pp_port_defs fmt pds =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
    pp_port_def fmt pds

let pp_prototype fmt = function
  | Prim (name, params) ->
      Format.fprintf fmt "%s(%a)" name
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ", ")
           Format.pp_print_int)
        params
  | Comp name -> Format.fprintf fmt "%s()" name

let pp_cell fmt c =
  Format.fprintf fmt "@[<h>%a%s = %a;@]" pp_attrs c.cell_attrs c.cell_name
    pp_prototype c.cell_proto

let pp_assignment fmt a =
  match a.guard with
  | True -> Format.fprintf fmt "@[<h>%a = %a;@]" pp_port_ref a.dst pp_atom a.src
  | g ->
      Format.fprintf fmt "@[<h>%a = %a ? %a;@]" pp_port_ref a.dst pp_guard g
        pp_atom a.src

let pp_group fmt g =
  Format.fprintf fmt "@[<v 2>group %s%a {@,%a@]@,}" g.group_name pp_attrs
    g.group_attrs
    (Format.pp_print_list pp_assignment)
    g.assigns

let rec pp_control fmt = function
  | Empty -> ()
  | Enable (g, attrs) -> Format.fprintf fmt "%s%a;" g pp_attrs attrs
  | Seq (cs, attrs) ->
      Format.fprintf fmt "@[<v 2>seq%a {@,%a@]@,}" pp_attrs attrs pp_children cs
  | Par (cs, attrs) ->
      Format.fprintf fmt "@[<v 2>par%a {@,%a@]@,}" pp_attrs attrs pp_children cs
  | If { cond_port; cond_group; tbranch; fbranch; if_attrs } ->
      Format.fprintf fmt "@[<v 2>if%a %a%a {@,%a@]@,}" pp_attrs if_attrs
        pp_port_ref cond_port pp_with cond_group pp_control tbranch;
      (match fbranch with
      | Empty -> ()
      | f -> Format.fprintf fmt "@[<v 2> else {@,%a@]@,}" pp_control f)
  | While { cond_port; cond_group; body; while_attrs } ->
      Format.fprintf fmt "@[<v 2>while%a %a%a {@,%a@]@,}" pp_attrs while_attrs
        pp_port_ref cond_port pp_with cond_group pp_control body
  | Invoke { cell; invoke_inputs; invoke_outputs; invoke_attrs } ->
      let pp_arg fmt (p, a) = Format.fprintf fmt "%s = %a" p pp_atom a in
      let pp_out fmt (p, dst) =
        Format.fprintf fmt "%s = %a" p pp_port_ref dst
      in
      let comma fmt () = Format.fprintf fmt ", " in
      Format.fprintf fmt "invoke%a %s(%a)" pp_attrs invoke_attrs cell
        (Format.pp_print_list ~pp_sep:comma pp_arg)
        invoke_inputs;
      if invoke_outputs <> [] then
        Format.fprintf fmt "(%a)"
          (Format.pp_print_list ~pp_sep:comma pp_out)
          invoke_outputs;
      Format.pp_print_string fmt ";"

and pp_children fmt cs =
  Format.pp_print_list pp_control fmt
    (List.filter (function Empty -> false | _ -> true) cs)

and pp_with fmt = function
  | None -> ()
  | Some g -> Format.fprintf fmt " with %s" g

let pp_component fmt c =
  match c.is_extern with
  | Some path ->
      Format.fprintf fmt "@[<v 2>extern %S {@,component %s(%a) -> (%a);@]@,}"
        path c.comp_name pp_port_defs c.inputs pp_port_defs c.outputs
  | None ->
      Format.fprintf fmt "@[<v 2>component %s%a(%a) -> (%a) {@," c.comp_name
        pp_attrs c.comp_attrs pp_port_defs c.inputs pp_port_defs c.outputs;
      Format.fprintf fmt "@[<v 2>cells {@,%a@]@,}@,"
        (Format.pp_print_list pp_cell)
        c.cells;
      Format.fprintf fmt "@[<v 2>wires {@,%a%s%a@]@,}@,"
        (Format.pp_print_list pp_group)
        c.groups
        (if c.groups <> [] && c.continuous <> [] then "\n" else "")
        (Format.pp_print_list pp_assignment)
        c.continuous;
      (match c.control with
      | Empty -> Format.fprintf fmt "control {}"
      | ctrl -> Format.fprintf fmt "@[<v 2>control {@,%a@]@,}" pp_control ctrl);
      Format.fprintf fmt "@]@,}"

let pp_context fmt ctx =
  Format.fprintf fmt "@[<v>%a@]@."
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "@,@,")
       pp_component)
    ctx.components

let to_string ctx = Format.asprintf "%a" pp_context ctx
