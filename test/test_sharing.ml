(* Equivalence of the sharing analyses with a reference implementation.

   The register- and resource-sharing passes build their conflict graphs
   on interned bitsets: one clique over the union of a par's children,
   and one cross product of a par's arms' cell usage. The reference below
   builds the same graphs the direct way — string-pair edge tables, one
   clique per pair of par children, one edge per pair of cells of every
   pair of conflicting groups — and colors them with the same greedy
   rule. Slow, but each step is the definition. The passes must produce
   exactly its representative maps, on random programs and on the whole
   corpus. *)

open Calyx
open Ir
module SS = String_set
module SM = String_map

module Reference = struct
  type graph = (string * string, unit) Hashtbl.t

  let key a b = if String.compare a b <= 0 then (a, b) else (b, a)

  let add_edge (g : graph) a b =
    if not (String.equal a b) then Hashtbl.replace g (key a b) ()

  let rec add_clique g = function
    | [] -> ()
    | n :: rest ->
        List.iter (add_edge g n) rest;
        add_clique g rest

  let conflicting (g : graph) a b = Hashtbl.mem g (key a b)

  (* First representative, in creation order, of the same class whose
     members all avoid the node; else the node starts a new one. *)
  let greedy g ~cls ~order =
    let members = Hashtbl.create 16 in
    let reps = ref [] in
    List.fold_left
      (fun assignment node ->
        let fits rep =
          String.equal (cls rep) (cls node)
          && List.for_all
               (fun m -> not (conflicting g m node))
               (Hashtbl.find members rep)
        in
        let rep =
          match List.find_opt fits (List.rev !reps) with
          | Some r -> r
          | None ->
              reps := node :: !reps;
              Hashtbl.replace members node [];
              node
        in
        Hashtbl.replace members rep (node :: Hashtbl.find members rep);
        SM.add node rep assignment)
      SM.empty order

  let registers comp =
    List.filter_map
      (fun c ->
        match c.cell_proto with
        | Prim ("std_reg", _) -> Some c.cell_name
        | _ -> None)
      comp.cells

  (* Live-range interference cliques (Section 5.2), parallel children
     interfering pairwise. *)
  let liveness_cliques comp =
    let regs = SS.of_list (registers comp) in
    let groups = group_index comp in
    let group g = Hashtbl.find groups g in
    let sets g =
      Read_write_set.registers
        (fun c -> if SS.mem c regs then Some c else None)
        (group g)
    in
    let reads g = SS.of_list (sets g).reads in
    let must_writes g = SS.of_list (sets g).must_writes in
    let may_writes g = SS.of_list (sets g).may_writes in
    let always_live =
      List.fold_left
        (fun acc a ->
          List.fold_left
            (fun acc atom ->
              match atom with
              | Port (Cell_port (c, _)) when SS.mem c regs -> SS.add c acc
              | _ -> acc)
            acc (Port a.dst :: assignment_atoms a))
        SS.empty comp.continuous
    in
    let cliques = ref [ SS.elements always_live ] in
    let clique s = cliques := SS.elements s :: !cliques in
    let touched ctrl =
      SS.fold
        (fun g acc -> SS.union acc (SS.union (reads g) (may_writes g)))
        (Schedule_conflicts.subtree_groups ctrl)
        SS.empty
    in
    let visit_group g live_after =
      let live_in = SS.union (reads g) (SS.diff live_after (must_writes g)) in
      clique (SS.union (SS.union live_in (may_writes g)) always_live);
      live_in
    in
    let rec flow ctrl live_after =
      match ctrl with
      | Empty -> live_after
      | Invoke { invoke_inputs; invoke_outputs; _ } ->
          let read =
            List.fold_left
              (fun acc (_, a) ->
                match a with
                | Port (Cell_port (c, "out")) when SS.mem c regs -> SS.add c acc
                | _ -> acc)
              SS.empty invoke_inputs
          in
          let written =
            List.fold_left
              (fun acc (_, dst) ->
                match dst with
                | Cell_port (c, _) when SS.mem c regs -> SS.add c acc
                | _ -> acc)
              SS.empty invoke_outputs
          in
          let live_in = SS.union read live_after in
          clique (SS.union (SS.union live_in written) always_live);
          live_in
      | Enable (g, _) -> visit_group g live_after
      | Seq (cs, _) -> List.fold_right flow cs live_after
      | Par (cs, _) ->
          let ins = List.map (fun c -> flow c live_after) cs in
          let rec cross = function
            | [] -> ()
            | c :: rest ->
                List.iter
                  (fun c' -> clique (SS.union (touched c) (touched c')))
                  rest;
                cross rest
          in
          cross cs;
          List.fold_left SS.union live_after ins
      | If { cond_group; tbranch; fbranch; _ } ->
          let l = SS.union (flow tbranch live_after) (flow fbranch live_after) in
          (match cond_group with Some cg -> visit_group cg l | None -> l)
      | While { cond_group; body; _ } ->
          let rec iterate current =
            let l = SS.union live_after (flow body current) in
            let next =
              match cond_group with Some cg -> visit_group cg l | None -> l
            in
            if SS.equal next current then next
            else iterate (SS.union next current)
          in
          iterate
            (match cond_group with
            | Some cg -> SS.union (reads cg) live_after
            | None -> live_after)
    in
    ignore (flow comp.control always_live);
    !cliques

  let register_map comp =
    let g = Hashtbl.create 256 in
    List.iter (add_clique g) (liveness_cliques comp);
    let cells = cell_index comp in
    let cls name =
      match (Hashtbl.find cells name).cell_proto with
      | Prim (_, [ w ]) -> string_of_int w
      | _ -> Alcotest.failf "%s is not a register" name
    in
    greedy g ~cls ~order:(registers comp)

  let shareable ctx cell =
    Attrs.shareable cell.cell_attrs
    ||
    match cell.cell_proto with
    | Prim (name, _) -> (
        match Prims.find name with
        | Some info -> info.shareable && info.kind = Prims.Combinational
        | None -> false)
    | Comp name -> (
        match find_component_opt ctx name with
        | Some c -> Attrs.shareable c.comp_attrs
        | None -> false)

  let cells_of assigns =
    List.fold_left
      (fun acc a ->
        let acc = match a.dst with Cell_port (c, _) -> SS.add c acc | _ -> acc in
        List.fold_left
          (fun acc -> function Port (Cell_port (c, _)) -> SS.add c acc | _ -> acc)
          acc (assignment_atoms a))
      SS.empty assigns

  (* Resource sharing (Section 5.1): cells of one group conflict, and so
     does every cell pair of every pair of groups that may run in
     parallel. *)
  let resource_map ?(profitable = fun _ -> true) ctx comp =
    let continuous = cells_of comp.continuous in
    let candidates =
      List.filter
        (fun c ->
          shareable ctx c && profitable c.cell_proto
          && not (SS.mem c.cell_name continuous))
        comp.cells
    in
    let names = SS.of_list (List.map (fun c -> c.cell_name) candidates) in
    let usage g =
      match List.find_opt (fun gr -> String.equal gr.group_name g) comp.groups with
      | Some gr -> SS.inter (cells_of gr.assigns) names
      | None -> SS.empty
    in
    let g = Hashtbl.create 256 in
    List.iter (fun gr -> add_clique g (SS.elements (usage gr.group_name))) comp.groups;
    List.iter
      (fun (g1, g2) ->
        SS.iter
          (fun c1 -> SS.iter (fun c2 -> add_edge g c1 c2) (usage g2))
          (usage g1))
      (Schedule_conflicts.conflicts comp.control);
    let cells = cell_index comp in
    let cls name =
      match (Hashtbl.find cells name).cell_proto with
      | Prim (p, params) ->
          p ^ "(" ^ String.concat "," (List.map string_of_int params) ^ ")"
      | Comp c -> c ^ "()"
    in
    greedy g ~cls ~order:(List.map (fun c -> c.cell_name) candidates)
end

let show m =
  String.concat ", "
    (List.map (fun (k, v) -> k ^ "->" ^ v) (SM.bindings m))

(* Both maps of every component agree with the reference: on the program
   as given, and at the points in the pipeline where the passes run
   (resource sharing after invoke compilation and latency inference,
   register sharing after resource sharing). *)
let agree name ctx =
  let check what expected got =
    if not (SM.equal String.equal expected got) then
      Alcotest.failf "%s: %s map differs\n  reference: %s\n  pass:      %s"
        name what (show expected) (show got)
  in
  let stage ctx =
    List.iter
      (fun comp ->
        if comp.is_extern = None then begin
          check "resource-sharing"
            (Reference.resource_map ctx comp)
            (Resource_sharing.sharing_map ctx comp);
          check "resource-sharing (cost-guided)"
            (Reference.resource_map ~profitable:Resource_sharing.cost_guided ctx
               comp)
            (Resource_sharing.sharing_map
               ~profitable:Resource_sharing.cost_guided ctx comp);
          check "register-sharing" (Reference.register_map comp)
            (Register_sharing.sharing_map ctx comp)
        end)
      ctx.components
  in
  stage ctx;
  let prepared = Pass.run_all [ Compile_invoke.pass; Infer_latency.pass ] ctx in
  stage prepared;
  stage (Pass.run Resource_sharing.pass prepared)

let prop_fuzz_programs =
  QCheck.Test.make ~name:"random programs: sharing maps = reference" ~count:300
    (Fuzz_seed.spec_arb "sharing-reference")
    (fun spec ->
      agree (Fuzz_gen.to_string spec) (Fuzz_gen.build spec);
      true)

let example file =
  (* dune runtest runs in the test directory; dune exec from the root. *)
  List.find Sys.file_exists
    [ "../examples/sources/" ^ file; "examples/sources/" ^ file ]

let test_examples () =
  List.iter
    (fun file ->
      let path = example file in
      let ctx =
        if Filename.check_suffix file ".dahlia" then
          Dahlia.To_calyx.compile
            (Dahlia.Parser.parse_string
               (In_channel.with_open_bin path In_channel.input_all))
        else Parser.parse_file path
      in
      agree file ctx)
    [ "counter.futil"; "invoke.futil"; "dotprod.dahlia"; "histogram.dahlia" ]

let test_polybench () =
  List.iter
    (fun (k : Polybench.Kernels.kernel) ->
      agree k.name (Polybench.Harness.build k ~unrolled:false);
      if k.unrolled <> None then
        agree (k.name ^ "-unrolled") (Polybench.Harness.build k ~unrolled:true))
    Polybench.Kernels.all

(* Square arrays, and shapes where the PE count and the number of arms
   of each [par] differ: a single row, a single column, and 5x12 of depth
   7. *)
let test_systolic () =
  List.iter
    (fun (rows, cols, depth) ->
      agree
        (Printf.sprintf "systolic-%dx%dx%d" rows cols depth)
        (Systolic.generate { Systolic.rows; cols; depth; width = 32 }))
    [ (2, 2, 2); (3, 3, 3); (4, 4, 4); (8, 8, 8); (1, 12, 12); (12, 1, 12); (5, 12, 7) ]

(* A lowered program keeps all of its state in continuous assignments and
   has no control left. Compiling it again must keep its registers apart:
   the maps agree with the reference, and the array still computes the
   product. *)
let test_lowered_again () =
  List.iter
    (fun n ->
      let d = { Systolic.rows = n; cols = n; depth = n; width = 32 } in
      let name = Printf.sprintf "systolic-%dx%d lowered" n n in
      let lowered =
        Parser.parse_string
          (Printer.to_string (Pipelines.compile (Systolic.generate d)))
      in
      agree name lowered;
      let sim = Calyx_sim.Sim.create (Pipelines.compile lowered) in
      let io = Calyx_sim.Testbench.of_sim sim in
      let a, b = Systolic.sample d in
      let tb = Systolic.testbench d ~a ~b in
      tb.load io;
      ignore (Calyx_sim.Sim.run sim);
      Alcotest.(check (list string)) (name ^ ": product") [] (tb.check io))
    [ 3; 4 ]

let () =
  Alcotest.run "sharing"
    [
      ( "reference",
        [
          QCheck_alcotest.to_alcotest prop_fuzz_programs;
          Alcotest.test_case "examples" `Quick test_examples;
          Alcotest.test_case "polybench" `Quick test_polybench;
          Alcotest.test_case "systolic" `Quick test_systolic;
          Alcotest.test_case "lowered systolic again" `Quick test_lowered_again;
        ] );
    ]
