open Ir
module SS = String_set
module SM = String_map

let proto_key = function
  | Prim (name, params) ->
      name ^ "(" ^ String.concat "," (List.map string_of_int params) ^ ")"
  | Comp name -> name ^ "()"

let shareable ctx cell =
  Attrs.shareable cell.cell_attrs
  ||
  match cell.cell_proto with
  | Prim (name, _) -> (
      match Prims.find name with
      | Some info -> info.shareable
      | None -> false)
  | Comp name -> (
      match find_component_opt ctx name with
      | Some c -> Attrs.shareable c.comp_attrs
      | None -> false)

(* Cells a list of assignments uses (in any role). *)
let cells_used assigns =
  List.fold_left
    (fun acc a ->
      let add acc = function
        | Port (Cell_port (c, _)) -> SS.add c acc
        | _ -> acc
      in
      let acc = match a.dst with Cell_port (c, _) -> SS.add c acc | _ -> acc in
      List.fold_left add acc (assignment_atoms a))
    SS.empty assigns

(* Rough per-primitive LUT weight, for the profitability heuristic
   (Section 9's "target-specific optimization" direction): sharing a cell
   saves its logic but inserts input multiplexers (~width/3 LUTs per input
   port per extra driver), so sharing only pays off for cells whose logic
   outweighs the steering. *)
let sharing_profit = function
  | Prim (name, [ w ]) -> (
      match Prims.find name with
      | None -> 0
      | Some info -> (
          match info.cost with
          | Adder -> w
          | Shift -> w * 2
          | Multiplier -> w * 8
          | Ordered_compare -> w / 2
          | Equality | Bitwise -> w / 3
          | Free | Flip_flops | Ram | Mult_pipe | Div_pipe | Sqrt_pipe -> 0))
  | Prim _ -> 0
  | Comp _ -> 64 (* user components are presumed substantial *)

let cost_guided proto =
  (* Two 2:1 input muxes at the cell's width cost roughly 2*(w/3) LUTs. *)
  let mux_cost =
    match proto with
    | Prim (_, w :: _) -> 2 * ((w + 2) / 3)
    | Prim (_, []) | Comp _ -> 8
  in
  sharing_profit proto > mux_cost

let sharing_map ?(profitable = fun _ -> true) ctx comp =
  (* Without groups and control only continuous assignments use cells,
     and those are never shared: a lowered program has nothing to share
     and keeps every name. *)
  if comp.groups = [] && comp.control = Empty then SM.empty
  else begin
    (* Cells referenced by continuous assignments are permanently in use. *)
    let continuous_cells = cells_used comp.continuous in
    let candidates =
      List.filter
        (fun c ->
          shareable ctx c && profitable c.cell_proto
          && not (SS.mem c.cell_name continuous_cells))
        comp.cells
    in
    let graph = Graph_coloring.create () in
    let protos = Hashtbl.create 64 in
    List.iter
      (fun c ->
        Graph_coloring.add_node graph c.cell_name;
        if not (Hashtbl.mem protos c.cell_name) then
          Hashtbl.replace protos c.cell_name (proto_key c.cell_proto))
      candidates;
    (* Candidate cells a group uses, as graph ids. *)
    let usage = Hashtbl.create 64 in
    List.iter
      (fun g ->
        let used =
          SS.fold
            (fun c used ->
              if Hashtbl.mem protos c then Intset.add (Graph_coloring.node graph c) used
              else used)
            (cells_used g.assigns) Intset.empty
        in
        (* Cells used within one group conflict. *)
        Graph_coloring.add_clique graph used;
        if not (Hashtbl.mem usage g.group_name) then
          Hashtbl.replace usage g.group_name used)
      comp.groups;
    let usage_of g =
      match Hashtbl.find_opt usage g with Some s -> s | None -> Intset.empty
    in
    (* Cells used by groups that may run in parallel conflict: those under
       different arms of a [par]. One bottom-up walk collects each subtree's
       usage, and each [par] connects its arms' usages in one cross product
       (the edges of all the group pairs Schedule_conflicts lists). *)
    let cond = function Some g -> usage_of g | None -> Intset.empty in
    let rec used = function
      | Empty | Invoke _ -> Intset.empty
      | Enable (g, _) -> usage_of g
      | Seq (cs, _) -> Intset.union_many (List.map used cs)
      | Par (cs, _) ->
          let arms = List.map used cs in
          Graph_coloring.add_cross graph arms;
          Intset.union_many arms
      | If { cond_group; tbranch; fbranch; _ } ->
          Intset.union_many [ cond cond_group; used tbranch; used fbranch ]
      | While { cond_group; body; _ } -> Intset.union (cond cond_group) (used body)
    in
    ignore (used comp.control);
    Graph_coloring.greedy graph ~cls:(Hashtbl.find protos)
  end

let apply_map comp mapping =
  if SM.for_all String.equal mapping then comp
  else begin
    let rename = function
      | Cell_port (c, p) as port -> (
          match SM.find_opt c mapping with
          | Some c' when not (String.equal c c') -> Cell_port (c', p)
          | _ -> port)
      | p -> p
    in
    let comp = map_assignments (map_assignment_ports rename) comp in
    let control =
      map_control
        (function
          | If r as c ->
              let cond_port = rename r.cond_port in
              if cond_port == r.cond_port then c else If { r with cond_port }
          | While r as c ->
              let cond_port = rename r.cond_port in
              if cond_port == r.cond_port then c else While { r with cond_port }
          | c -> c)
        comp.control
    in
    if control == comp.control then comp else { comp with control }
  end

let share ?profitable (ctx : context) comp =
  apply_map comp (sharing_map ?profitable ctx comp)

let pass =
  Pass.make ~name:"resource-sharing"
    ~description:"share combinational cells across temporally disjoint groups"
    (Pass.per_component (fun ctx comp -> share ctx comp))

let heuristic_pass =
  Pass.make ~name:"resource-sharing-heuristic"
    ~description:
      "share combinational cells only where the saved logic outweighs the \
       inserted multiplexers"
    (Pass.per_component (fun ctx comp -> share ~profitable:cost_guided ctx comp))
