open Ir

let clog2 n =
  let rec go bits capacity =
    if capacity >= n then bits else go (bits + 1) (capacity * 2)
  in
  go 1 2

let generated = Attrs.of_list [ ("generated", 1) ]

(* The pass state: fresh-name supplies for cells and groups and the cells
   and groups generated so far, newest first. *)
type st = {
  fresh_cell_name : string -> string;
  fresh_group_name : string -> string;
  mutable new_cells : cell list;
  mutable new_groups : group list;
}

let add_cell st cell = st.new_cells <- cell :: st.new_cells
let add_group st group = st.new_groups <- group :: st.new_groups

let fresh_cell st base w =
  let name = st.fresh_cell_name base in
  add_cell st (Builder.prim ~attrs:generated name "std_reg" [ w ]);
  name

let fresh_group st base assigns =
  let name = st.fresh_group_name base in
  (name, assigns name)

(* All generated data assignments are guarded by the compilation group's own
   go hole (the equivalent of GoInsertion for generated groups); the done
   write and the state-reset assignments are deliberately left unguarded so
   the group self-reports and self-cleans even in the cycle where a parent
   has already gated its go off. *)

let make_seq st children =
  let open Builder in
  let n = List.length children in
  let w = clog2 (n + 1) in
  let fsm = fresh_cell st "fsm" w in
  let name, assigns =
    fresh_group st "seq" (fun name ->
        let self = g_hole name "go" in
        let state i = g_eq (pa fsm "out") (lit ~width:w i) in
        List.concat
          (List.mapi
             (fun i g ->
               let here = g_and self (state i) in
               [
                 assign
                   ~guard:(g_and here (g_not (g_hole g "done")))
                   (hole g "go") (bit true);
                 assign
                   ~guard:(g_and here (g_hole g "done"))
                   (port fsm "in")
                   (lit ~width:w (i + 1));
                 assign
                   ~guard:(g_and here (g_hole g "done"))
                   (port fsm "write_en") (bit true);
               ])
             children)
        @ [
            assign ~guard:(state n) (hole name "done") (bit true);
            (* Self-reset once the final state is reached. *)
            assign ~guard:(state n) (port fsm "in") (lit ~width:w 0);
            assign ~guard:(state n) (port fsm "write_en") (bit true);
          ])
  in
  add_group st (Builder.group ~attrs:generated name assigns);
  name

let make_par st children =
  let open Builder in
  let pds = List.map (fun _ -> fresh_cell st "pd" 1) children in
  (* The all-children-done conjunction is computed once into a wire; the
     done condition and every reset reference the wire instead of each
     duplicating a |children|-wide expression. *)
  let all_wire = st.fresh_cell_name "pd_all" in
  add_cell st (Builder.prim ~attrs:generated all_wire "std_wire" [ 1 ]);
  let name, assigns =
    fresh_group st "par" (fun name ->
        let self = g_hole name "go" in
        let conjunction =
          g_and_all (List.map (fun pd -> g_port pd "out") pds)
        in
        let all_done = g_port all_wire "out" in
        assign ~guard:conjunction (port all_wire "in") (bit true)
        :: List.concat
          (List.map2
             (fun g pd ->
               let pending = g_and self (g_not (g_port pd "out")) in
               [
                 assign
                   ~guard:(g_and pending (g_not (g_hole g "done")))
                   (hole g "go") (bit true);
                 assign
                   ~guard:(g_and pending (g_hole g "done"))
                   (port pd "in") (bit true);
                 assign
                   ~guard:(g_and pending (g_hole g "done"))
                   (port pd "write_en") (bit true);
               ])
             children pds)
        @ assign ~guard:all_done (hole name "done") (bit true)
          :: List.concat_map
               (fun pd ->
                 [
                   assign ~guard:all_done (port pd "in") (bit false);
                   assign ~guard:all_done (port pd "write_en") (bit true);
                 ])
               pds)
  in
  add_group st (Builder.group ~attrs:generated name assigns);
  name

(* Shared by if and while: run the condition group (if any) once, latch the
   condition port into [cs], and record completion in [cc]. Returns the
   assignments together with the latch guard. *)
let cond_harness ~self ~cc ~cs ~cond_port ~cond_group =
  let open Builder in
  let pending = g_and self (g_not (g_port cc "out")) in
  let latch =
    match cond_group with
    | Some cg -> g_and pending (g_hole cg "done")
    | None -> pending
  in
  let enable_cond =
    match cond_group with
    | Some cg -> [ assign ~guard:pending (hole cg "go") (bit true) ]
    | None -> []
  in
  ( enable_cond
    @ [
        assign ~guard:latch (port cs "in") (Port cond_port);
        assign ~guard:latch (port cs "write_en") (bit true);
        assign ~guard:latch (port cc "in") (bit true);
        assign ~guard:latch (port cc "write_en") (bit true);
      ],
    pending )

let branch_done = function
  | Some g -> Builder.g_hole g "done"
  | None -> True

let make_if st ~cond_port ~cond_group ~tbranch ~fbranch =
  let open Builder in
  let cc = fresh_cell st "cc" 1 in
  let cs = fresh_cell st "cs" 1 in
  let name, assigns =
    fresh_group st "if" (fun name ->
        let self = g_hole name "go" in
        let harness, _ = cond_harness ~self ~cc ~cs ~cond_port ~cond_group in
        let taken = g_and (g_port cc "out") (g_port cs "out") in
        let not_taken = g_and (g_port cc "out") (g_not (g_port cs "out")) in
        let enable branch sel =
          match branch with
          | Some g ->
              [
                assign
                  ~guard:(g_and (g_and self sel) (g_not (g_hole g "done")))
                  (hole g "go") (bit true);
              ]
          | None -> []
        in
        let done_expr =
          g_or
            (g_and taken (branch_done tbranch))
            (g_and not_taken (branch_done fbranch))
        in
        harness
        @ enable tbranch taken
        @ enable fbranch not_taken
        @ [
            assign ~guard:done_expr (hole name "done") (bit true);
            assign ~guard:done_expr (port cc "in") (bit false);
            assign ~guard:done_expr (port cc "write_en") (bit true);
          ])
  in
  add_group st (Builder.group ~attrs:generated name assigns);
  name

let make_while st ~cond_port ~cond_group ~body =
  let open Builder in
  let cc = fresh_cell st "cc" 1 in
  let cs = fresh_cell st "cs" 1 in
  let name, assigns =
    fresh_group st "while" (fun name ->
        let self = g_hole name "go" in
        let harness, _ = cond_harness ~self ~cc ~cs ~cond_port ~cond_group in
        let looping = g_and (g_port cc "out") (g_port cs "out") in
        let finished = g_and (g_port cc "out") (g_not (g_port cs "out")) in
        let enable_body =
          match body with
          | Some g ->
              [
                assign
                  ~guard:(g_and (g_and self looping) (g_not (g_hole g "done")))
                  (hole g "go") (bit true);
              ]
          | None -> []
        in
        let body_finished = g_and (g_and self looping) (branch_done body) in
        harness
        @ enable_body
        @ [
            (* Body finished: clear cc so the condition is recomputed. *)
            assign ~guard:body_finished (port cc "in") (bit false);
            assign ~guard:body_finished (port cc "write_en") (bit true);
            assign ~guard:finished (hole name "done") (bit true);
            assign ~guard:finished (port cc "in") (bit false);
            assign ~guard:finished (port cc "write_en") (bit true);
          ])
  in
  add_group st (Builder.group ~attrs:generated name assigns);
  name

let rec compile_ctrl st = function
  | Empty -> None
  | Enable (g, _) -> Some g
  | Seq (cs, _) -> (
      match List.filter_map (compile_ctrl st) cs with
      | [] -> None
      | [ g ] -> Some g
      | children -> Some (make_seq st children))
  | Par (cs, _) -> (
      match List.filter_map (compile_ctrl st) cs with
      | [] -> None
      | [ g ] -> Some g
      | children -> Some (make_par st children))
  | If { cond_port; cond_group; tbranch; fbranch; _ } ->
      let t = compile_ctrl st tbranch in
      let f = compile_ctrl st fbranch in
      Some (make_if st ~cond_port ~cond_group ~tbranch:t ~fbranch:f)
  | While { cond_port; cond_group; body; _ } ->
      let b = compile_ctrl st body in
      Some (make_while st ~cond_port ~cond_group ~body:b)
  | Invoke { cell; _ } ->
      ir_error
        "compile-control: invoke of %s not lowered (run compile-invoke first)"
        cell

let compile_component (_ctx : context) comp =
  let st =
    {
      fresh_cell_name =
        name_supply (List.map (fun c -> c.cell_name) comp.cells);
      fresh_group_name =
        name_supply (List.map (fun g -> g.group_name) comp.groups);
      new_cells = [];
      new_groups = [];
    }
  in
  let root = compile_ctrl st comp.control in
  let control =
    match root with None -> Empty | Some g -> Enable (g, Attrs.empty)
  in
  {
    comp with
    cells = comp.cells @ List.rev st.new_cells;
    groups = comp.groups @ List.rev st.new_groups;
    control;
  }

let pass =
  Pass.make ~name:"compile-control"
    ~description:
      "realize control statements with latency-insensitive FSM compilation \
       groups"
    (Pass.per_component compile_component)
