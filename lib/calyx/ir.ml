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

type 'p atom_ = Port of 'p | Lit of Bitvec.t
type atom = port_ref atom_

type cmp_op = Eq | Neq | Lt | Gt | Le | Ge

type 'p guard_ =
  | True
  | Atom of 'p atom_
  | Cmp of cmp_op * 'p atom_ * 'p atom_
  | And of 'p guard_ * 'p guard_
  | Or of 'p guard_ * 'p guard_
  | Not of 'p guard_

type guard = port_ref guard_

type 'p assignment_ = { dst : 'p; src : 'p atom_; guard : 'p guard_ }
type assignment = port_ref assignment_

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

(* Ports *)

let cell_kind c =
  match c.cell_proto with
  | Prim (name, _) -> Option.map (fun (i : Prims.info) -> i.kind) (Prims.find name)
  | Comp _ -> None

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

(* One component's ports, indexed. Prototype port lists are memoized per
   table: nothing is cached across [create] calls, so tables built on
   different domains share no state. *)
module Ports = struct
  (* Name tables compare keys with [String.equal], not the polymorphic
     compare: a port lookup is two of them. *)
  module Names = Hashtbl.Make (String)

  type proto = {
    pr_list : (string * int * direction) list;
    pr_ports : (string * int * direction) array;
        (* the first declaration of each name, in order: a cell's ports
           take consecutive ids from its base in this order *)
    pr_index : int Names.t;  (* name -> offset in pr_ports *)
  }

  (* A cell's first declaration: its base id and its prototype's ports, or
     the exception resolving the prototype raised, which a lookup of the
     cell's ports re-raises. *)
  type cell_entry = {
    ce_cell : cell;
    ce_base : int;
    ce_proto : (proto, exn) result;
  }

  type t = {
    comp : component;
    proto_of : prototype -> (proto, exn) result;
    cells : cell_entry Names.t;
    cell_bases : int array;  (* in [comp.cells] order, -1 when repeated *)
    signature : (int * port_def) Names.t;
    holes : int Names.t;  (* group -> id of its go hole *)
    count : int;
    by_id : (port_ref array * int array * direction array) Lazy.t;
        (* built on the first query by id: the checker and the area model
           only resolve names *)
  }

  type info = { id : int; width : int; dir : direction }

  type resolution =
    | Resolved of info
    | Unknown_cell
    | Unresolved_prototype of exn
    | No_port

  let create ctx comp =
    let protos = Hashtbl.create 16 in
    let proto_of p =
      match Hashtbl.find_opt protos p with
      | Some r -> r
      | None ->
          let r =
            match cell_ports ctx p with
            | ports ->
                let index = Names.create 8 in
                let distinct =
                  List.filter
                    (fun (n, _, _) ->
                      if Names.mem index n then false
                      else begin
                        Names.replace index n (Names.length index);
                        true
                      end)
                    ports
                in
                Ok
                  {
                    pr_list = ports;
                    pr_ports = Array.of_list distinct;
                    pr_index = index;
                  }
            | exception
                ((Ir_error _ | Prims.Unknown_primitive _ | Invalid_argument _)
                 as e) ->
                Error e
          in
          Hashtbl.replace protos p r;
          r
    in
    let count = ref 0 in
    let signature = Names.create 8 in
    let sig_order =
      List.filter
        (fun pd ->
          if Names.mem signature pd.pd_name then false
          else begin
            Names.replace signature pd.pd_name (!count, pd);
            incr count;
            true
          end)
        (signature_ports comp)
    in
    let holes = Names.create 16 in
    let group_order =
      List.filter
        (fun g ->
          if Names.mem holes g.group_name then false
          else begin
            Names.replace holes g.group_name !count;
            count := !count + 2;
            true
          end)
        comp.groups
    in
    let cells = Names.create 64 in
    let cell_bases = Array.make (List.length comp.cells) (-1) in
    let i = ref (-1) in
    let cell_order =
      List.filter_map
        (fun c ->
          incr i;
          if Names.mem cells c.cell_name then None
          else begin
            let ce_proto = proto_of c.cell_proto in
            let ce = { ce_cell = c; ce_base = !count; ce_proto } in
            Names.replace cells c.cell_name ce;
            cell_bases.(!i) <- !count;
            (match ce.ce_proto with
            | Ok pr -> count := !count + Array.length pr.pr_ports
            | Error _ -> ());
            Some ce
          end)
        comp.cells
    in
    let count = !count in
    let by_id =
      lazy
        (let ports = Array.make count (This "")
         and widths = Array.make count 0
         and dirs = Array.make count Input in
         let set i p w d =
           ports.(i) <- p;
           widths.(i) <- w;
           dirs.(i) <- d
         in
         List.iteri
           (fun i pd -> set i (This pd.pd_name) pd.pd_width pd.pd_dir)
           sig_order;
         List.iter
           (fun g ->
             let i = Names.find holes g.group_name in
             set i (Hole (g.group_name, "go")) 1 Input;
             set (i + 1) (Hole (g.group_name, "done")) 1 Output)
           group_order;
         List.iter
           (fun ce ->
             match ce.ce_proto with
             | Error _ -> ()
             | Ok pr ->
                 let c = ce.ce_cell.cell_name in
                 Array.iteri
                   (fun k (n, w, d) ->
                     set (ce.ce_base + k) (Cell_port (c, n)) w d)
                   pr.pr_ports)
           cell_order;
         (ports, widths, dirs))
    in
    { comp; proto_of; cells; cell_bases; signature; holes; count; by_id }

  let tables ctx =
    let memo = Hashtbl.create 8 in
    fun comp ->
      match Hashtbl.find_opt memo comp.comp_name with
      | Some t -> t
      | None ->
          let t = create ctx comp in
          Hashtbl.replace memo comp.comp_name t;
          t

  let count t = t.count

  let port t i =
    let ports, _, _ = Lazy.force t.by_id in
    ports.(i)

  let width_of_id t i =
    let _, widths, _ = Lazy.force t.by_id in
    widths.(i)

  let direction_of_id t i =
    let _, _, dirs = Lazy.force t.by_id in
    dirs.(i)

  let find_cell t name =
    Option.map (fun ce -> ce.ce_cell) (Names.find_opt t.cells name)

  let cell_base t i = t.cell_bases.(i)

  let proto_ports t p =
    match t.proto_of p with Ok pr -> pr.pr_list | Error e -> raise e

  let cell_ports t name =
    Option.map
      (fun ce -> Result.map (fun pr -> pr.pr_list) ce.ce_proto)
      (Names.find_opt t.cells name)

  let resolve t = function
    | This p -> (
        match Names.find_opt t.signature p with
        | Some (id, pd) -> Resolved { id; width = pd.pd_width; dir = pd.pd_dir }
        | None -> No_port)
    | Hole (g, h) -> (
        match Names.find_opt t.holes g with
        | None -> Unknown_cell
        | Some id -> (
            match h with
            | "go" -> Resolved { id; width = 1; dir = Input }
            | "done" -> Resolved { id = id + 1; width = 1; dir = Output }
            | _ -> No_port))
    | Cell_port (c, p) -> (
        match Names.find_opt t.cells c with
        | None -> Unknown_cell
        | Some { ce_proto = Error e; _ } -> Unresolved_prototype e
        | Some { ce_proto = Ok pr; ce_base; _ } -> (
            match Names.find_opt pr.pr_index p with
            | Some k ->
                let _, width, dir = pr.pr_ports.(k) in
                Resolved { id = ce_base + k; width; dir }
            | None -> No_port))

  let resolved t p =
    match resolve t p with
    | Resolved r -> r
    | Unresolved_prototype e -> raise e
    | Unknown_cell | No_port -> (
        let comp = t.comp.comp_name in
        match p with
        | This p -> ir_error "component %s has no port %s" comp p
        | Hole (g, h) ->
            if Names.mem t.holes g then
              ir_error "group %s (in %s) has no hole %s" g comp h
            else ir_error "unknown group %s in component %s" g comp
        | Cell_port (c, p) ->
            if Names.mem t.cells c then
              ir_error "cell %s (in %s) has no port %s" c comp p
            else ir_error "unknown cell %s in component %s" c comp)

  (* The hot path of every back end: plain lookups that allocate nothing,
     and [resolved] only to raise what an unresolved port raises. *)
  let id t p =
    match
      match p with
      | This n -> fst (Names.find t.signature n)
      | Hole (g, "go") -> Names.find t.holes g
      | Hole (g, "done") -> Names.find t.holes g + 1
      | Hole _ -> raise Not_found
      | Cell_port (c, n) -> (
          match Names.find t.cells c with
          | { ce_proto = Ok pr; ce_base; _ } ->
              ce_base + Names.find pr.pr_index n
          | { ce_proto = Error _; _ } -> raise Not_found)
    with
    | i -> i
    | exception Not_found -> (resolved t p).id

  (* A hole is one bit whether or not its group exists. *)
  let width t = function Hole _ -> 1 | p -> (resolved t p).width

  (* [f t] on every port of an assignment: the source, then the guard's
     atoms left to right, then the destination. [f] and [t] are passed
     apart so that a call allocates no closure. *)
  let map_atom f t = function Port p -> Port (f t p) | Lit v -> Lit v

  let rec map_guard f t = function
    | True -> True
    | Atom a -> Atom (map_atom f t a)
    | Cmp (op, a, b) ->
        let a = map_atom f t a in
        Cmp (op, a, map_atom f t b)
    | And (g1, g2) ->
        let g1 = map_guard f t g1 in
        And (g1, map_guard f t g2)
    | Or (g1, g2) ->
        let g1 = map_guard f t g1 in
        Or (g1, map_guard f t g2)
    | Not g -> Not (map_guard f t g)

  let map_ports f t a =
    let src = map_atom f t a.src in
    let guard = map_guard f t a.guard in
    { dst = f t a.dst; src; guard }

  let resolve_assignment t a = map_ports id t a

  (* [id] of every port of an assignment in [resolve_assignment]'s order,
     for what it raises: a walk that builds nothing. *)
  let check_atom t = function Port p -> ignore (id t p) | Lit _ -> ()

  let rec check_guard t = function
    | True -> ()
    | Atom a -> check_atom t a
    | Cmp (_, a, b) ->
        check_atom t a;
        check_atom t b
    | And (g1, g2) | Or (g1, g2) ->
        check_guard t g1;
        check_guard t g2
    | Not g -> check_guard t g

  let resolve_dst t a =
    check_atom t a.src;
    check_guard t a.guard;
    id t a.dst
  let assignment_of_ids t a = map_ports port t a
end

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

(* Appends [added] to [existing], raising on the first name in [added]
   (in order) that is already taken, by [existing] or by an earlier
   element of [added]. *)
let append_fresh ~kind name comp existing added =
  let taken = index_by name existing in
  List.iter
    (fun x ->
      if Hashtbl.mem taken (name x) then
        ir_error "%s %s already exists in %s" kind (name x) comp.comp_name;
      Hashtbl.replace taken (name x) x)
    added;
  existing @ added

let add_cells comp cells =
  {
    comp with
    cells = append_fresh ~kind:"cell" (fun c -> c.cell_name) comp comp.cells cells;
  }

let add_groups comp groups =
  {
    comp with
    groups =
      append_fresh ~kind:"group" (fun g -> g.group_name) comp comp.groups groups;
  }

let add_cell comp cell = add_cells comp [ cell ]
let add_group comp group = add_groups comp [ group ]

(* Traversal *)

(* Built right to left, one cons per atom. *)
let guard_atoms g =
  let rec go acc = function
    | True -> acc
    | Atom a -> a :: acc
    | Cmp (_, a, b) -> a :: b :: acc
    | And (g1, g2) | Or (g1, g2) -> go (go acc g2) g1
    | Not g -> go acc g
  in
  go [] g

let assignment_atoms a = a.src :: guard_atoms a.guard

(* The maps below copy on change: where [f] changes nothing they return
   their argument itself, so a pass that rewrites nothing leaves its
   output sharing the input's lists, which the well-formedness re-check
   after the pass then skips (Well_formed.recheck). Each rebuilds a
   node with the same expression as a plain map and then keeps the old
   node if no child changed: [f] may have effects (fresh names), so it
   is called in the same order either way. *)

(* [List.map f l] (left to right), or [l] itself when every [f x == x]. *)
let map_shared f l =
  let rec go = function
    | [] -> []
    | x :: rest as l ->
        let x' = f x in
        let rest' = go rest in
        if x' == x && rest' == rest then l else x' :: rest'
  in
  go l

let rec map_guard_atoms f g =
  let g' =
    match g with
    | True -> True
    | Atom a -> Atom (f a)
    | Cmp (op, a, b) -> Cmp (op, f a, f b)
    | And (g1, g2) -> And (map_guard_atoms f g1, map_guard_atoms f g2)
    | Or (g1, g2) -> Or (map_guard_atoms f g1, map_guard_atoms f g2)
    | Not g -> Not (map_guard_atoms f g)
  in
  let same =
    match (g, g') with
    | True, _ -> true
    | Atom a, Atom a' -> a == a'
    | Cmp (_, a, b), Cmp (_, a', b') -> a == a' && b == b'
    | And (x, y), And (x', y') | Or (x, y), Or (x', y') -> x == x' && y == y'
    | Not x, Not x' -> x == x'
    | _ -> false
  in
  if same then g else g'

let map_atom_ports f = function
  | Port p as a ->
      let p' = f p in
      if p' == p then a else Port p'
  | Lit _ as a -> a

let map_assignment_ports f a =
  let a' =
    {
      dst = f a.dst;
      src = map_atom_ports f a.src;
      guard = map_guard_atoms (map_atom_ports f) a.guard;
    }
  in
  if a'.dst == a.dst && a'.src == a.src && a'.guard == a.guard then a else a'

let map_assignments f comp =
  let comp' =
    {
      comp with
      continuous = map_shared f comp.continuous;
      groups =
        map_shared
          (fun g ->
            let assigns = map_shared f g.assigns in
            if assigns == g.assigns then g else { g with assigns })
          comp.groups;
    }
  in
  if comp'.continuous == comp.continuous && comp'.groups == comp.groups then
    comp
  else comp'

let all_assignments comp =
  comp.continuous @ List.concat_map (fun g -> g.assigns) comp.groups

let rec map_control f ctrl =
  let ctrl' =
    match ctrl with
    | Empty | Enable _ | Invoke _ -> ctrl
    | Seq (cs, a) ->
        let cs' = map_shared (map_control f) cs in
        if cs' == cs then ctrl else Seq (cs', a)
    | Par (cs, a) ->
        let cs' = map_shared (map_control f) cs in
        if cs' == cs then ctrl else Par (cs', a)
    | If r -> (
        match
          If
            {
              r with
              tbranch = map_control f r.tbranch;
              fbranch = map_control f r.fbranch;
            }
        with
        | If r' when r'.tbranch == r.tbranch && r'.fbranch == r.fbranch -> ctrl
        | c -> c)
    | While r ->
        let body = map_control f r.body in
        if body == r.body then ctrl else While { r with body }
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

let port_name = function
  | Cell_port (c, p) -> String.concat "." [ c; p ]
  | Hole (g, h) -> String.concat "" [ g; "["; h; "]" ]
  | This p -> p

let pp_port_ref fmt p = Format.pp_print_string fmt (port_name p)

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
