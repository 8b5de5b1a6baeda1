open Ir

let port cell p = Cell_port (cell, p)
let hole group h = Hole (group, h)
let this p = This p
let pa cell p = Port (port cell p)
let ha group h = Port (hole group h)
let thisa p = Port (this p)
let lit ~width v = Lit (Bitvec.of_int ~width v)
let bit b = Lit (if b then Bitvec.one 1 else Bitvec.zero 1)
let g_port cell p = Atom (pa cell p)
let g_hole group h = Atom (ha group h)
let g_this p = Atom (thisa p)

let g_and a b =
  match (a, b) with True, g | g, True -> g | _ -> And (a, b)

let g_or a b = Or (a, b)
let g_not g = Not g
let g_eq a b = Cmp (Eq, a, b)
let g_lt a b = Cmp (Lt, a, b)
let g_ge a b = Cmp (Ge, a, b)
let g_and_all gs = List.fold_left g_and True gs
let assign ?(guard = True) dst src = { dst; src; guard }

let group ?(attrs = Attrs.empty) name assigns =
  { group_name = name; group_attrs = attrs; assigns }

let cell ?(attrs = Attrs.empty) name proto =
  { cell_name = name; cell_proto = proto; cell_attrs = attrs }

let prim ?attrs name prim_name params = cell ?attrs name (Prim (prim_name, params))
let instance ?attrs name comp = cell ?attrs name (Comp comp)
let reg name w = prim name "std_reg" [ w ]

let add_over name w =
  prim ~attrs:(Attrs.of_list [ ("share", 1) ]) name "std_add" [ w ]

let mem_d1 ?(external_ = false) name ~width ~size ~idx =
  let attrs = if external_ then Attrs.of_list [ ("external", 1) ] else Attrs.empty in
  prim ~attrs name "std_mem_d1" [ width; size; idx ]

let enable ?(attrs = Attrs.empty) g = Enable (g, attrs)
let seq ?(attrs = Attrs.empty) cs = Seq (cs, attrs)
let par ?(attrs = Attrs.empty) cs = Par (cs, attrs)

let if_ ?(attrs = Attrs.empty) ?cond cond_port tbranch fbranch =
  If { cond_port; cond_group = cond; tbranch; fbranch; if_attrs = attrs }

let while_ ?(attrs = Attrs.empty) ?cond cond_port body =
  While { cond_port; cond_group = cond; body; while_attrs = attrs }

let invoke ?(attrs = Attrs.empty) ?(outputs = []) cell inputs =
  Invoke
    { cell; invoke_inputs = inputs; invoke_outputs = outputs;
      invoke_attrs = attrs }

let io_port ?(attrs = Attrs.empty) dir name width =
  { pd_name = name; pd_width = width; pd_dir = dir; pd_attrs = attrs }

let component ?(attrs = Attrs.empty) ?(inputs = []) ?(outputs = []) name =
  let has ports n = List.exists (fun (p, _) -> String.equal p n) ports in
  let inputs =
    List.map (fun (n, w) -> io_port Input n w) inputs
    @
    if has inputs "go" then []
    else [ io_port ~attrs:(Attrs.of_list [ ("go", 1) ]) Input "go" 1 ]
  in
  let outputs =
    List.map (fun (n, w) -> io_port Output n w) outputs
    @
    if has outputs "done" then []
    else [ io_port ~attrs:(Attrs.of_list [ ("done", 1) ]) Output "done" 1 ]
  in
  {
    comp_name = name;
    inputs;
    outputs;
    cells = [];
    groups = [];
    continuous = [];
    control = Empty;
    comp_attrs = attrs;
    is_extern = None;
  }

let with_cells cells comp = Ir.add_cells comp cells
let with_groups groups comp = Ir.add_groups comp groups
let with_continuous assigns comp = { comp with continuous = comp.continuous @ assigns }
let with_control control comp = { comp with control }

let context ?(entrypoint = "main") components = { components; entrypoint }
