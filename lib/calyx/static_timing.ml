open Ir

let generated_static n =
  Attrs.of_list [ ("generated", 1); ("static", n) ]

(* [groups] is [group_index comp], plus any groups generated since. *)
let group_static groups comp g =
  match Hashtbl.find_opt groups g with
  | Some group -> Attrs.static group.group_attrs
  | None -> ir_error "unknown group %s in component %s" g comp.comp_name

let control_latency groups comp =
  let rec go = function
    | Empty -> Some 0
    | Enable (g, _) -> group_static groups comp g
    | Seq (cs, _) ->
        List.fold_left
          (fun acc c ->
            match (acc, go c) with
            | Some a, Some b -> Some (a + b)
            | _ -> None)
          (Some 0) cs
    | Par (cs, _) ->
        List.fold_left
          (fun acc c ->
            match (acc, go c) with
            | Some a, Some b -> Some (max a b)
            | _ -> None)
          (Some 0) cs
    | If { cond_group = Some cg; tbranch; fbranch; _ } -> (
        match (group_static groups comp cg, go tbranch, go fbranch) with
        | Some c, Some t, Some f -> Some (c + max t f)
        | _ -> None)
    | If { cond_group = None; _ } | While _ | Invoke _ -> None
  in
  go

(* The pass state: fresh-name supplies, every group by name (original and
   generated), and the generated cells and groups, newest first. *)
type st = {
  comp : component;
  fresh_cell_name : string -> string;
  fresh_group_name : string -> string;
  groups : (string, group) Hashtbl.t;
  mutable new_cells : cell list;
  mutable new_groups : group list;
}

let add_cell st cell = st.new_cells <- cell :: st.new_cells

let add_group st group =
  Hashtbl.replace st.groups group.group_name group;
  st.new_groups <- group :: st.new_groups

let static_attr st g = group_static st.groups st.comp g

(* A static group's FSM: a counter that increments every active cycle and
   wraps (unguarded, self-cleaning) from the final state. Returns the fsm
   cell name; [total] is the latency, the final state is [total]. *)
let make_counter st name total =
  let open Builder in
  let w = Compile_control.clog2 (total + 1) in
  let fsm = st.fresh_cell_name "fsm" in
  add_cell st (prim ~attrs:(Attrs.of_list [ ("generated", 1) ]) fsm "std_reg" [ w ]);
  let adder = st.fresh_cell_name "fsm_incr" in
  add_cell st (prim ~attrs:(Attrs.of_list [ ("generated", 1) ]) adder "std_add" [ w ]);
  let self = g_hole name "go" in
  let last = g_eq (pa fsm "out") (lit ~width:w total) in
  let assigns =
    [
      assign ~guard:self (port adder "left") (pa fsm "out");
      assign ~guard:self (port adder "right") (lit ~width:w 1);
      assign ~guard:(g_and self (g_not last)) (port fsm "in") (pa adder "out");
      assign ~guard:(g_and self (g_not last)) (port fsm "write_en") (bit true);
      assign ~guard:last (hole name "done") (bit true);
      (* Self-reset from the final state, even if go is already low. *)
      assign ~guard:last (port fsm "in") (lit ~width:w 0);
      assign ~guard:last (port fsm "write_en") (bit true);
    ]
  in
  (fsm, w, assigns)

let window name fsm w lo hi child =
  (* Enable [child] while lo <= fsm < hi. *)
  let open Builder in
  let self = g_hole name "go" in
  let range =
    if hi = lo + 1 then g_eq (pa fsm "out") (lit ~width:w lo)
    else
      g_and
        (if lo = 0 then True else g_ge (pa fsm "out") (lit ~width:w lo))
        (g_lt (pa fsm "out") (lit ~width:w hi))
  in
  assign ~guard:(g_and self range) (hole child "go") (bit true)

let make_static_seq st children =
  (* children: (group, latency) in order *)
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 children in
  let name = st.fresh_group_name "static_seq" in
  let fsm, w, counter = make_counter st name total in
  let enables =
    let off = ref 0 in
    List.filter_map
      (fun (g, n) ->
        if n = 0 then None
        else begin
          let e = window name fsm w !off (!off + n) g in
          off := !off + n;
          Some e
        end)
      children
  in
  add_group st (Builder.group ~attrs:(generated_static total) name (enables @ counter));
  (name, total)

let make_static_par st children =
  let total = List.fold_left (fun acc (_, n) -> max acc n) 0 children in
  let name = st.fresh_group_name "static_par" in
  let fsm, w, counter = make_counter st name total in
  let enables =
    List.filter_map
      (fun (g, n) -> if n = 0 then None else Some (window name fsm w 0 n g))
      children
  in
  add_group st (Builder.group ~attrs:(generated_static total) name (enables @ counter));
  (name, total)

let make_static_if st ~cond_port ~cond ~t ~f =
  let open Builder in
  let cg, c = cond in
  let branch_latency = function Some (_, n) -> n | None -> 0 in
  let m = max (branch_latency t) (branch_latency f) in
  let total = c + m in
  let name = st.fresh_group_name "static_if" in
  let cs = st.fresh_cell_name "cs" in
  add_cell st (prim ~attrs:(Attrs.of_list [ ("generated", 1) ]) cs "std_reg" [ 1 ]);
  let fsm, w, counter = make_counter st name total in
  let self = g_hole name "go" in
  let latch = g_and self (g_eq (pa fsm "out") (lit ~width:w (c - 1))) in
  let branch sel = function
    | Some (g, n) when n > 0 ->
        let range =
          g_and
            (if c = 0 then True else g_ge (pa fsm "out") (lit ~width:w c))
            (g_lt (pa fsm "out") (lit ~width:w (c + n)))
        in
        [ assign ~guard:(g_and (g_and self sel) range) (hole g "go") (bit true) ]
    | _ -> []
  in
  let assigns =
    window name fsm w 0 c cg
    :: assign ~guard:latch (port cs "in") (Port cond_port)
    :: assign ~guard:latch (port cs "write_en") (bit true)
    :: (branch (g_port cs "out") t
       @ branch (g_not (g_port cs "out")) f
       @ counter)
  in
  add_group st (Builder.group ~attrs:(generated_static total) name assigns);
  (name, total)

(* Bottom-up rewriting: a control node whose children all resolved to static
   groups is replaced by an enable of a freshly generated static group. *)
let rec rewrite st ctrl =
  match ctrl with
  | Empty | Enable _ | Invoke _ -> ctrl
  | Seq (cs, a) -> (
      let cs = List.map (rewrite st) cs in
      (* Fuse maximal runs of consecutive static children, so static code
         is promoted even when a dynamic statement (e.g. a sqrt) sits in
         the middle of the sequence. *)
      let rec runs acc current = function
        | [] -> List.rev (close acc current)
        | c :: rest -> (
            match static_of st c with
            | Some gn -> runs acc ((c, gn) :: current) rest
            | None -> runs (c :: close acc current) [] rest)
      and close acc current =
        match current with
        | [] -> acc
        | [ (c, _) ] -> c :: acc
        | _ ->
            let children = List.rev_map snd current in
            let g, n = make_static_seq st children in
            Enable (g, Attrs.of_list [ ("static", n) ]) :: acc
      in
      match runs [] [] (List.filter (fun c -> c <> Empty) cs) with
      | [] -> Empty
      | [ c ] -> c
      | fused -> Seq (fused, a))
  | Par (cs, a) -> (
      let cs = List.map (rewrite st) cs in
      let statics, dynamics =
        List.partition
          (fun c -> static_of st c <> None)
          (List.filter (fun c -> c <> Empty) cs)
      in
      let fused_static =
        match statics with
        | [] | [ _ ] -> statics
        | _ ->
            let children =
              List.map (fun c -> Option.get (static_of st c)) statics
            in
            let g, n = make_static_par st children in
            [ Enable (g, Attrs.of_list [ ("static", n) ]) ]
      in
      match fused_static @ dynamics with
      | [] -> Empty
      | [ c ] -> c
      | children -> Par (children, a))
  | If ({ cond_port; cond_group = Some cg; _ } as r) -> (
      let tbranch = rewrite st r.tbranch in
      let fbranch = rewrite st r.fbranch in
      match
        (static_attr st cg, branch_static st tbranch, branch_static st fbranch)
      with
      | Some c, Some t, Some f when c > 0 ->
          let g, n = make_static_if st ~cond_port ~cond:(cg, c) ~t ~f in
          Enable (g, Attrs.of_list [ ("static", n) ])
      | _ -> If { r with tbranch; fbranch })
  | If r ->
      If { r with tbranch = rewrite st r.tbranch; fbranch = rewrite st r.fbranch }
  | While r -> While { r with body = rewrite st r.body }

(* [Some (group, latency)] when the node is a static enable; [None] for
   dynamic nodes. *)
and static_of st = function
  | Empty -> None
  | Enable (g, _) -> (
      match static_attr st g with Some n -> Some (g, n) | None -> None)
  | _ -> None

(* Like [static_of] but an absent branch is a zero-latency [Some None]. *)
and branch_static st = function
  | Empty -> Some None
  | c -> ( match static_of st c with Some gn -> Some (Some gn) | None -> None)

let transform (_ctx : context) comp =
  let st =
    {
      comp;
      fresh_cell_name = name_supply (List.map (fun c -> c.cell_name) comp.cells);
      fresh_group_name =
        name_supply (List.map (fun g -> g.group_name) comp.groups);
      groups = group_index comp;
      new_cells = [];
      new_groups = [];
    }
  in
  let control = rewrite st comp.control in
  {
    comp with
    cells = comp.cells @ List.rev st.new_cells;
    groups = comp.groups @ List.rev st.new_groups;
    control;
  }

let pass =
  Pass.make ~name:"static-timing"
    ~description:
      "opportunistically compile control with latency-sensitive FSMs \
       (the paper's Sensitive pass)"
    (Pass.per_component transform)
