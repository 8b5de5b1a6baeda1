open Ir

let sharing_map (_ctx : context) comp =
  let graph = Graph_coloring.create () in
  let { Liveness.registers; conflict_cliques; _ } =
    Liveness.analyze ~id:(Graph_coloring.node graph) comp
  in
  List.iter (Graph_coloring.add_clique_ids graph) conflict_cliques;
  let cells = cell_index comp in
  let cls name =
    match Hashtbl.find_opt cells name with
    | Some { cell_proto = Prim ("std_reg", [ w ]); _ } -> string_of_int w
    | _ -> ir_error "register-sharing: %s is not a register" name
  in
  Graph_coloring.greedy graph ~cls ~order:registers

let share (ctx : context) comp =
  Resource_sharing.apply_map comp (sharing_map ctx comp)

let pass =
  Pass.make ~name:"register-sharing"
    ~description:"merge registers with disjoint live ranges"
    (Pass.per_component share)
