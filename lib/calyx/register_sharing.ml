open Ir

(* The register map, the graph it colors, and that graph's register and
   clique counts. *)
let color comp =
  let graph = Graph_coloring.create () in
  let { Liveness.registers; cliques } =
    Liveness.analyze ~id:(Graph_coloring.node graph) comp
  in
  List.iter (Graph_coloring.add_clique graph) cliques;
  let cells = cell_index comp in
  let cls name =
    match Hashtbl.find_opt cells name with
    | Some ({ cell_proto = Prim (_, [ w ]); _ } as c)
      when cell_kind c = Some Register ->
        string_of_int w
    | _ -> ir_error "register-sharing: %s is not a register" name
  in
  ( Graph_coloring.greedy graph ~cls,
    graph,
    List.length registers,
    List.length cliques )

let sharing_map (_ctx : context) comp =
  let map, _, _, _ = color comp in
  map

(* With telemetry on, the pass span carries the size of the graphs it
   colored, summed over components: registers, distinct conflict cliques
   and conflict edges. *)
let share ctx =
  let on = Calyx_telemetry.Runtime.on () in
  let registers = ref 0 and cliques = ref 0 and edges = ref 0 in
  let ctx' =
    Pass.per_component
      (fun _ comp ->
        let map, graph, r, c = color comp in
        if on then begin
          registers := !registers + r;
          cliques := !cliques + c;
          edges := !edges + Graph_coloring.edges graph
        end;
        Resource_sharing.apply_map comp map)
      ctx
  in
  if on then
    List.iter
      (fun (k, v) -> Calyx_telemetry.Trace.add_metric k (float_of_int v))
      [ ("registers", !registers); ("cliques", !cliques); ("conflict_edges", !edges) ];
  ctx'

let pass =
  Pass.make ~name:"register-sharing"
    ~description:"merge registers with disjoint live ranges" share
