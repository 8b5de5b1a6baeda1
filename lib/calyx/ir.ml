type direction = Input | Output

type port_def = {
  pd_name : string;
  pd_width : int;
  pd_dir : direction;
  pd_attrs : Attrs.t;
}

type prototype = Prim of string * int list | Comp of string

type cell = { cell_name : string; cell_proto : prototype; cell_attrs : Attrs.t }

type port_ref =
  | Cell_port of string * string
  | Hole of string * string
  | This of string

type atom = Port of port_ref | Lit of Bitvec.t

type cmp_op = Eq | Neq | Lt | Gt | Le | Ge

type guard =
  | True
  | Atom of atom
  | Cmp of cmp_op * atom * atom
  | And of guard * guard
  | Or of guard * guard
  | Not of guard

type assignment = { dst : port_ref; src : atom; guard : guard }

type group = {
  group_name : string;
  group_attrs : Attrs.t;
  assigns : assignment list;
}

type control =
  | Empty
  | Enable of string * Attrs.t
  | Seq of control list * Attrs.t
  | Par of control list * Attrs.t
  | If of {
      cond_port : port_ref;
      cond_group : string option;
      tbranch : control;
      fbranch : control;
      if_attrs : Attrs.t;
    }
  | While of {
      cond_port : port_ref;
      cond_group : string option;
      body : control;
      while_attrs : Attrs.t;
    }
  | Invoke of {
      cell : string;
      invoke_inputs : (string * atom) list;
      invoke_outputs : (string * port_ref) list;
          (* Output bindings: cell output port -> destination port. *)
      invoke_attrs : Attrs.t;
    }

type component = {
  comp_name : string;
  inputs : port_def list;
  outputs : port_def list;
  cells : cell list;
  groups : group list;
  continuous : assignment list;
  control : control;
  comp_attrs : Attrs.t;
  is_extern : string option;
}

type context = { components : component list; entrypoint : string }

exception Ir_error of string

let ir_error fmt = Format.kasprintf (fun s -> raise (Ir_error s)) fmt

(* Lookup *)

let find_component_opt ctx name =
  List.find_opt (fun c -> String.equal c.comp_name name) ctx.components

let find_component ctx name =
  match find_component_opt ctx name with
  | Some c -> c
  | None -> ir_error "unknown component %s" name

let entry ctx = find_component ctx ctx.entrypoint

let find_cell_opt comp name =
  List.find_opt (fun c -> String.equal c.cell_name name) comp.cells

let find_cell comp name =
  match find_cell_opt comp name with
  | Some c -> c
  | None -> ir_error "unknown cell %s in component %s" name comp.comp_name

let find_group_opt comp name =
  List.find_opt (fun g -> String.equal g.group_name name) comp.groups

let find_group comp name =
  match find_group_opt comp name with
  | Some g -> g
  | None -> ir_error "unknown group %s in component %s" name comp.comp_name

let index_by name l =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun x -> if not (Hashtbl.mem tbl (name x)) then Hashtbl.replace tbl (name x) x)
    l;
  tbl

let cell_index comp = index_by (fun c -> c.cell_name) comp.cells
let group_index comp = index_by (fun g -> g.group_name) comp.groups

let signature_ports comp = comp.inputs @ comp.outputs

let update_component ctx comp =
  let found = ref false in
  let components =
    List.map
      (fun c ->
        if String.equal c.comp_name comp.comp_name then begin
          found := true;
          comp
        end
        else c)
      ctx.components
  in
  if not !found then ir_error "update_component: no component %s" comp.comp_name;
  { ctx with components }

let add_component ctx comp =
  if find_component_opt ctx comp.comp_name <> None then
    ir_error "component %s already exists" comp.comp_name;
  { ctx with components = ctx.components @ [ comp ] }

(* Widths *)

let cell_ports ctx proto =
  match proto with
  | Prim (name, params) ->
      List.map
        (fun (p : Prims.prim_port) ->
          ( p.pp_name,
            p.pp_width,
            match p.pp_dir with Prims.In -> Input | Prims.Out -> Output ))
        (Prims.ports name params)
  | Comp name ->
      let c = find_component ctx name in
      List.map
        (fun pd -> (pd.pd_name, pd.pd_width, pd.pd_dir))
        (signature_ports c)

let cell_port_width ctx comp cell port =
  let c = find_cell comp cell in
  match
    List.find_opt (fun (n, _, _) -> String.equal n port)
      (cell_ports ctx c.cell_proto)
  with
  | Some (_, w, _) -> w
  | None ->
      ir_error "cell %s (in %s) has no port %s" cell comp.comp_name port

let port_ref_width ctx comp = function
  | Cell_port (c, p) -> cell_port_width ctx comp c p
  | Hole (_, _) -> 1
  | This p -> (
      match
        List.find_opt
          (fun pd -> String.equal pd.pd_name p)
          (signature_ports comp)
      with
      | Some pd -> pd.pd_width
      | None -> ir_error "component %s has no port %s" comp.comp_name p)

let atom_width ctx comp = function
  | Port p -> port_ref_width ctx comp p
  | Lit v -> Bitvec.width v

(* Construction *)

let name_supply taken =
  (* Built on the first request: a pass often generates no names at all. *)
  let used =
    lazy
      (let used = Hashtbl.create 64 in
       List.iter (fun n -> Hashtbl.replace used n ()) taken;
       used)
  in
  (* Names are only ever added, so the first free index of a base never
     decreases: [next] resumes each base's search where it last stopped. *)
  let next = Hashtbl.create 16 in
  fun base ->
    let used = Lazy.force used in
    let name =
      if not (Hashtbl.mem used base) then base
      else
        let rec go i =
          let candidate = base ^ string_of_int i in
          if Hashtbl.mem used candidate then go (i + 1)
          else begin
            Hashtbl.replace next base (i + 1);
            candidate
          end
        in
        go (Option.value ~default:0 (Hashtbl.find_opt next base))
    in
    Hashtbl.replace used name ();
    name

let add_cell comp cell =
  if find_cell_opt comp cell.cell_name <> None then
    ir_error "cell %s already exists in %s" cell.cell_name comp.comp_name;
  { comp with cells = comp.cells @ [ cell ] }

let add_cells comp cells = List.fold_left add_cell comp cells

let add_group comp group =
  if find_group_opt comp group.group_name <> None then
    ir_error "group %s already exists in %s" group.group_name comp.comp_name;
  { comp with groups = comp.groups @ [ group ] }

let remove_group comp name =
  {
    comp with
    groups =
      List.filter (fun g -> not (String.equal g.group_name name)) comp.groups;
  }

(* Traversal *)

let rec guard_atoms = function
  | True -> []
  | Atom a -> [ a ]
  | Cmp (_, a, b) -> [ a; b ]
  | And (g1, g2) | Or (g1, g2) -> guard_atoms g1 @ guard_atoms g2
  | Not g -> guard_atoms g

let assignment_atoms a = a.src :: guard_atoms a.guard

let rec map_guard_atoms f = function
  | True -> True
  | Atom a -> Atom (f a)
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | And (g1, g2) -> And (map_guard_atoms f g1, map_guard_atoms f g2)
  | Or (g1, g2) -> Or (map_guard_atoms f g1, map_guard_atoms f g2)
  | Not g -> Not (map_guard_atoms f g)

let map_atom_ports f = function Port p -> Port (f p) | Lit _ as a -> a

let map_assignment_ports f a =
  {
    dst = f a.dst;
    src = map_atom_ports f a.src;
    guard = map_guard_atoms (map_atom_ports f) a.guard;
  }

let map_assignments f comp =
  {
    comp with
    continuous = List.map f comp.continuous;
    groups =
      List.map (fun g -> { g with assigns = List.map f g.assigns }) comp.groups;
  }

let all_assignments comp =
  comp.continuous @ List.concat_map (fun g -> g.assigns) comp.groups

let rec map_control f ctrl =
  let ctrl' =
    match ctrl with
    | Empty | Enable _ | Invoke _ -> ctrl
    | Seq (cs, a) -> Seq (List.map (map_control f) cs, a)
    | Par (cs, a) -> Par (List.map (map_control f) cs, a)
    | If r ->
        If
          {
            r with
            tbranch = map_control f r.tbranch;
            fbranch = map_control f r.fbranch;
          }
    | While r -> While { r with body = map_control f r.body }
  in
  f ctrl'

let rec iter_control f ctrl =
  f ctrl;
  match ctrl with
  | Empty | Enable _ | Invoke _ -> ()
  | Seq (cs, _) | Par (cs, _) -> List.iter (iter_control f) cs
  | If r ->
      iter_control f r.tbranch;
      iter_control f r.fbranch
  | While r -> iter_control f r.body

(* Like [iter_control], but hands each statement its path from the root
   (e.g. "seq[1].par[0]"; the root's path is ""), for diagnostics that
   address a control statement. *)
let iter_control_path f ctrl =
  let join p q = if String.equal p "" then q else p ^ "." ^ q in
  let rec go path c =
    f path c;
    match c with
    | Empty | Enable _ | Invoke _ -> ()
    | Seq (cs, _) ->
        List.iteri
          (fun i c -> go (join path (Printf.sprintf "seq[%d]" i)) c)
          cs
    | Par (cs, _) ->
        List.iteri
          (fun i c -> go (join path (Printf.sprintf "par[%d]" i)) c)
          cs
    | If r ->
        go (join path "if.then") r.tbranch;
        go (join path "if.else") r.fbranch
    | While r -> go (join path "while.body") r.body
  in
  go "" ctrl

(* The canonical control-node numbering: non-Empty statements in pre-order
   (children left to right; an if visits then before else). The simulator
   mirrors this numbering when it annotates a component's control program,
   so span and branch events can be joined back to paths and labels. *)
let control_preorder ctrl =
  let next = ref 0 in
  let acc = ref [] in
  iter_control_path
    (fun path c ->
      match c with
      | Empty -> ()
      | _ ->
          let id = !next in
          incr next;
          acc := (id, path, c) :: !acc)
    ctrl;
  List.rev !acc

let control_node_label = function
  | Empty -> "empty"
  | Enable (g, _) -> "enable " ^ g
  | Seq _ -> "seq"
  | Par _ -> "par"
  | If _ -> "if"
  | While _ -> "while"
  | Invoke { cell; _ } -> "invoke " ^ cell

let enabled_groups ctrl =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let record name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      order := name :: !order
    end
  in
  iter_control
    (function
      | Enable (g, _) -> record g
      | If { cond_group = Some g; _ } | While { cond_group = Some g; _ } ->
          record g
      | _ -> ())
    ctrl;
  List.rev !order

let control_size ctrl =
  let n = ref 0 in
  iter_control (function Empty -> () | _ -> incr n) ctrl;
  !n

let rename_enables f ctrl =
  map_control
    (function
      | Enable (g, a) -> Enable (f g, a)
      | If ({ cond_group = Some g; _ } as r) ->
          If { r with cond_group = Some (f g) }
      | While ({ cond_group = Some g; _ } as r) ->
          While { r with cond_group = Some (f g) }
      | c -> c)
    ctrl

(* Equality and printing *)

let equal_port_ref a b =
  match (a, b) with
  | Cell_port (c1, p1), Cell_port (c2, p2) ->
      String.equal c1 c2 && String.equal p1 p2
  | Hole (g1, h1), Hole (g2, h2) -> String.equal g1 g2 && String.equal h1 h2
  | This p1, This p2 -> String.equal p1 p2
  | (Cell_port _ | Hole _ | This _), _ -> false

let compare_port_ref a b = compare a b

let equal_atom a b =
  match (a, b) with
  | Port p1, Port p2 -> equal_port_ref p1 p2
  | Lit v1, Lit v2 -> Bitvec.equal v1 v2
  | (Port _ | Lit _), _ -> false

let rec equal_guard a b =
  match (a, b) with
  | True, True -> true
  | Atom x, Atom y -> equal_atom x y
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) ->
      o1 = o2 && equal_atom a1 a2 && equal_atom b1 b2
  | And (x1, y1), And (x2, y2) | Or (x1, y1), Or (x2, y2) ->
      equal_guard x1 x2 && equal_guard y1 y2
  | Not x, Not y -> equal_guard x y
  | (True | Atom _ | Cmp _ | And _ | Or _ | Not _), _ -> false

let equal_assignment a b =
  equal_port_ref a.dst b.dst && equal_atom a.src b.src
  && equal_guard a.guard b.guard

let pp_port_ref fmt = function
  | Cell_port (c, p) -> Format.fprintf fmt "%s.%s" c p
  | Hole (g, h) -> Format.fprintf fmt "%s[%s]" g h
  | This p -> Format.pp_print_string fmt p

let pp_atom fmt = function
  | Port p -> pp_port_ref fmt p
  | Lit v -> Bitvec.pp fmt v

let cmp_symbol = function
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="

let rec pp_guard fmt = function
  | True -> Format.pp_print_string fmt "1'd1"
  | Atom a -> pp_atom fmt a
  | Cmp (op, a, b) ->
      Format.fprintf fmt "%a %s %a" pp_atom a (cmp_symbol op) pp_atom b
  | And (g1, g2) ->
      Format.fprintf fmt "(%a & %a)" pp_guard g1 pp_guard g2
  | Or (g1, g2) -> Format.fprintf fmt "(%a | %a)" pp_guard g1 pp_guard g2
  | Not g -> Format.fprintf fmt "!%a" pp_guard g

module Port_ref_ord = struct
  type t = port_ref

  let compare = compare_port_ref
end

module Port_ref_set = Set.Make (Port_ref_ord)
module Port_ref_map = Map.Make (Port_ref_ord)
module String_set = Set.Make (String)
module String_map = Map.Make (String)

(* Guard simplification: boolean identities to keep generated guards small.
   [Not True] serves as the canonical "false". *)
let rec simplify_guard g =
  match g with
  | True | Atom _ | Cmp _ -> g
  | And (a, b) -> (
      match (simplify_guard a, simplify_guard b) with
      | True, x | x, True -> x
      | Not True, _ | _, Not True -> Not True
      | a', b' -> And (a', b'))
  | Or (a, b) -> (
      match (simplify_guard a, simplify_guard b) with
      | Not True, x | x, Not True -> x
      | True, _ | _, True -> True
      | a', b' -> Or (a', b'))
  | Not a -> (
      match simplify_guard a with
      | Not x -> x
      | a' -> Not a')

let guard_size g =
  let rec go acc = function
    | True -> acc
    | Atom _ -> acc + 1
    | Cmp (_, _, _) -> acc + 2
    | And (a, b) | Or (a, b) -> go (go (acc + 1) a) b
    | Not a -> go (acc + 1) a
  in
  go 0 g
