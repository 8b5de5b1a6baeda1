open Ir
module D = Diagnostics
module SS = String_set

exception Rejected of D.t list

(* ------------------------------------------------------------------ *)
(* CX020: par data races                                               *)
(* ------------------------------------------------------------------ *)

(* Two groups enabled under distinct arms of the same [par] may be active
   in the same cycle. If both drive a cell, or one drives a cell the other
   reads, the outcome depends on the schedule — undefined behaviour.
   [cells] and [groups] are the component's {!cell_index} and
   {!group_index}, as in every rule below that takes them. *)
let par_races ~cells ~groups comp =
  let diags = ref [] in
  let memo tbl f g =
    match Hashtbl.find_opt tbl g with
    | Some s -> s
    | None ->
        let s =
          match Hashtbl.find_opt groups g with Some gr -> f gr | None -> SS.empty
        in
        Hashtbl.replace tbl g s;
        s
  in
  let reads_tbl = Hashtbl.create 16 and writes_tbl = Hashtbl.create 16 in
  let reads g = memo reads_tbl Read_write_set.cell_reads g in
  let writes g = memo writes_tbl Read_write_set.cell_writes g in
  (* Stateful cells (registers, memories, pipelined units, subcomponents)
     expose last cycle's value on their outputs, so a concurrent
     read+write is the well-defined shift idiom systolic arrays rely on;
     only write/write is a race there. Combinational outputs reflect this
     cycle's inputs, so cross-arm read+write is schedule-dependent. *)
  let is_stateful c =
    match Hashtbl.find_opt cells c with
    | Some { cell_proto = Prim (name, _); _ } -> (
        match Prims.find name with
        | Some i -> i.kind <> Combinational
        | None -> true)
    | Some { cell_proto = Comp _; _ } | None -> true
  in
  (* A linear screen per [par]: a race needs a cell written under two
     arms (which includes one group enabled in two arms), or a
     combinational cell written under one arm and read under another.
     Only a [par] the screen flags runs the pairwise reporter below, which
     names the groups involved. *)
  let may_race arms =
    let writer = Hashtbl.create 64 in
    let each_cell sets f =
      List.iteri
        (fun arm groups ->
          SS.iter (fun g -> SS.iter (fun c -> f arm c) (sets g)) groups)
        arms
    in
    let race = ref false in
    each_cell writes (fun arm c ->
        match Hashtbl.find_opt writer c with
        | Some a -> if a <> arm then race := true
        | None -> Hashtbl.replace writer c arm);
    if not !race then
      each_cell reads (fun arm c ->
          match Hashtbl.find_opt writer c with
          | Some a -> if a <> arm && not (is_stateful c) then race := true
          | None -> ());
    !race
  in
  let reported = Hashtbl.create 16 in
  let report ~path fmt =
    Format.kasprintf
      (fun message ->
        if not (Hashtbl.mem reported message) then begin
          Hashtbl.replace reported message ();
          diags :=
            {
              D.code = "CX020";
              severity = D.Error;
              loc = D.Control { comp = comp.comp_name; path };
              message;
            }
            :: !diags
        end)
      fmt
  in
  iter_control_path
    (fun path ctrl ->
      match ctrl with
      | Par (children, _) ->
          let sets = List.map Schedule_conflicts.subtree_groups children in
          let pair ga gb =
            if String.equal ga gb then begin
              if not (SS.is_empty (writes ga)) then
                report ~path
                  "group %s is enabled in two parallel arms and writes cell \
                   %s"
                  ga
                  (SS.min_elt (writes ga))
            end
            else begin
              SS.iter
                (fun cell ->
                  report ~path
                    "parallel arms race on cell %s: groups %s and %s both \
                     write it"
                    cell ga gb)
                (SS.inter (writes ga) (writes gb));
              let read_write gw gr =
                SS.iter
                  (fun cell ->
                    if not (is_stateful cell) then
                      report ~path
                        "parallel arms race on cell %s: group %s drives it \
                         while group %s reads its combinational output"
                        cell gw gr)
                  (SS.inter (writes gw) (reads gr))
              in
              read_write ga gb;
              read_write gb ga
            end
          in
          let rec cross = function
            | [] -> ()
            | s :: rest ->
                List.iter
                  (fun s' -> SS.iter (fun ga -> SS.iter (pair ga) s') s)
                  rest;
                cross rest
          in
          if may_race sets then cross sets
      | _ -> ())
    comp.control;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* CX021: combinational cycles                                         *)
(* ------------------------------------------------------------------ *)

(* The combinational arcs of one cell ({!Prims.comb_arcs}). User
   components are opaque, and a cell the well-formedness check would
   reject has none. *)
let cell_arcs cell =
  match cell.cell_proto with
  | Prim (name, params) -> (
      try Prims.comb_arcs name params
      with Prims.Unknown_primitive _ | Invalid_argument _ -> [])
  | Comp _ -> []

(* [f x], or [None] where it raises what an unresolved port raises: the
   well-formedness check reports those, and the rules below skip them. *)
let resolved f x =
  match f x with
  | r -> Some r
  | exception (Ir_error _ | Prims.Unknown_primitive _ | Invalid_argument _) ->
      None

(* An evaluation scope is the set of assignments that can be live in the
   same cycle: the continuous assignments alone, or one group's together
   with them. The graph over port ids is built once per component and
   holds every primitive's arcs and every continuous assignment's edges.
   The continuous scope searches from the continuous edges' sources. A
   group scope pushes its own edges, searches from their sources and pops
   them again: a cycle without a group edge belongs to the continuous
   scope. A cell no assignment of the scope touches keeps its arcs in the
   graph, but no edge enters its inputs or leaves its outputs, so they
   close no cycle. Each cycle is reported once, in the first scope that
   finds it, as the ports along its edges. *)
let comb_cycles ~cells ~ports comp =
  let n = Ports.count ports in
  let succ = Array.make n [] in
  let resolve = Ports.resolve_assignment ports in
  (* Push the edges of [assigns]; returns their sources. *)
  let push assigns =
    List.fold_left
      (fun sources a ->
        match resolved resolve a with
        | None -> sources
        | Some a ->
            List.fold_left
              (fun sources -> function
                | Port s ->
                    succ.(s) <- a.dst :: succ.(s);
                    s :: sources
                | Lit _ -> sources)
              sources (assignment_atoms a))
      [] assigns
  in
  Hashtbl.iter
    (fun name cell ->
      List.iter
        (fun (i, o) ->
          let id p = Ports.id ports (Cell_port (name, p)) in
          Option.iter
            (fun (i, o) -> succ.(i) <- o :: succ.(i))
            (resolved (fun () -> (id i, id o)) ()))
        (cell_arcs cell))
    cells;
  (* DFS state: below [!base] unvisited, [!base] on the path, [!base + 1]
     done; each scope moves [base] past the last one's marks. *)
  let state = Array.make n 0 and base = ref 0 in
  let seen = Hashtbl.create 16 and diags = ref [] in
  let search loc sources =
    base := !base + 2;
    let rec dfs path v =
      if state.(v) = !base then begin
        (* [path] runs from the current port back to the root; the cycle
           is its prefix up to [v], in edge order from [v]. *)
        let rec take acc = function
          | [] -> acc
          | u :: rest -> if u = v then u :: acc else take (u :: acc) rest
        in
        let cycle = take [] path in
        let key = List.sort Int.compare cycle in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          let names =
            List.map (fun i -> port_name (Ports.port ports i)) cycle
          in
          diags :=
            D.error ~code:"CX021" ~loc "combinational cycle: %s"
              (String.concat " -> " (names @ [ List.hd names ]))
            :: !diags
        end
      end
      else if state.(v) < !base then begin
        state.(v) <- !base;
        List.iter (dfs (v :: path)) succ.(v);
        state.(v) <- !base + 1
      end
    in
    List.iter (dfs []) sources
  in
  search (D.Component comp.comp_name) (push comp.continuous);
  List.iter
    (fun g ->
      let own = push g.assigns in
      search (D.Group { comp = comp.comp_name; group = g.group_name }) own;
      List.iter (fun s -> succ.(s) <- List.tl succ.(s)) own)
    comp.groups;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* CX022: overlapping guarded drivers                                  *)
(* ------------------------------------------------------------------ *)

(* Mutual-exclusion analysis over guards. Guards are expanded through
   generated 1-bit wires (whose value is exactly the disjunction of their
   drivers' guards when every driver drives constant 1), normalized to
   DNF, and two guards are disjoint when every pair of satisfiable
   disjuncts contains complementary literals: [g] vs [!g], distinct
   equality constants on one port, or complementary comparisons on the
   same operands. Conservative: anything unprovable counts as
   overlapping. *)

let is_one_bit_wire cells c =
  match Hashtbl.find_opt cells c with
  | Some { cell_proto = Prim ("std_wire", [ 1 ]); _ } -> true
  | _ -> false

(* wire name -> disjunction of its drivers' guards, when exact. *)
let wire_table ~cells comp =
  let drivers = Hashtbl.create 16 in
  List.iter
    (fun a ->
      match a.dst with
      | Cell_port (w, "in") when is_one_bit_wire cells w ->
          let prev =
            match Hashtbl.find_opt drivers w with Some l -> l | None -> []
          in
          Hashtbl.replace drivers w (a :: prev)
      | _ -> ())
    (all_assignments comp);
  let table = Hashtbl.create 16 in
  Hashtbl.iter
    (fun w assigns ->
      let exact =
        List.for_all
          (fun a ->
            match a.src with Lit v -> Bitvec.is_true v | _ -> false)
          assigns
      in
      if exact then
        let disjunction =
          List.fold_left
            (fun acc a ->
              match acc with None -> Some a.guard | Some g -> Some (Or (g, a.guard)))
            None assigns
        in
        match disjunction with
        | Some g -> Hashtbl.replace table w g
        | None -> ())
    drivers;
  table

let rec expand_guard table depth g =
  if depth = 0 then g
  else
    match g with
    | True -> True
    | Atom (Port (Cell_port (w, "out"))) as a -> (
        match Hashtbl.find_opt table w with
        | Some def -> expand_guard table (depth - 1) def
        | None -> a)
    | Atom _ | Cmp _ -> g
    | And (a, b) ->
        And (expand_guard table depth a, expand_guard table depth b)
    | Or (a, b) -> Or (expand_guard table depth a, expand_guard table depth b)
    | Not a -> Not (expand_guard table depth a)

type lit = { pos : bool; base : guard }

let max_disjuncts = 48

(* DNF as a list of conjuncts (lit lists); None when the expansion blows
   the size cap (then nothing is provable). *)
let dnf guard =
  let rec go pos g =
    match g with
    | True -> if pos then Some [ [] ] else Some []
    | Atom _ | Cmp _ -> Some [ [ { pos; base = g } ] ]
    | Not g -> go (not pos) g
    | And (a, b) -> if pos then cross a b pos else union a b pos
    | Or (a, b) -> if pos then union a b pos else cross a b pos
  and union a b pos =
    match (go pos a, go pos b) with
    | Some da, Some db ->
        let d = da @ db in
        if List.length d > max_disjuncts then None else Some d
    | _ -> None
  and cross a b pos =
    match (go pos a, go pos b) with
    | Some da, Some db ->
        let d =
          List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) db) da
        in
        if List.length d > max_disjuncts then None else Some d
    | _ -> None
  in
  go true guard

(* Normalize a comparison so a literal operand sits on the right. *)
let flip_op = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Gt -> Lt
  | Le -> Ge
  | Ge -> Le

let norm_cmp op a b =
  match (a, b) with Lit _, Port _ -> (flip_op op, b, a) | _ -> (op, a, b)

let complementary_ops o1 o2 =
  match (o1, o2) with
  | Eq, Neq | Neq, Eq | Lt, Ge | Ge, Lt | Gt, Le | Le, Gt -> true
  | _ -> false

let lits_complementary l1 l2 =
  (l1.pos <> l2.pos && equal_guard l1.base l2.base)
  ||
  match (l1.base, l2.base) with
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) when l1.pos && l2.pos -> (
      let o1, a1, b1 = norm_cmp o1 a1 b1 in
      let o2, a2, b2 = norm_cmp o2 a2 b2 in
      equal_atom a1 a2
      &&
      (* Distinct equality constants on the same atom can't hold at once;
         complementary operators on identical operands can't either. *)
      match (o1, o2, b1, b2) with
      | Eq, Eq, Lit v1, Lit v2 -> not (Bitvec.equal v1 v2)
      | _ -> complementary_ops o1 o2 && equal_atom b1 b2)
  | _ -> false

(* A literal that is false on its own (e.g. a positive constant 0). *)
let lit_false l =
  match l.base with
  | Atom (Lit v) -> if l.pos then not (Bitvec.is_true v) else Bitvec.is_true v
  | _ -> false

let conjunct_sat c =
  (not (List.exists lit_false c))
  && not
       (List.exists
          (fun l1 -> List.exists (fun l2 -> lits_complementary l1 l2) c)
          c)

(* A guard's normal form: the DNF of its expansion with the unsatisfiable
   conjuncts dropped; [None] when the DNF exceeds the size cap. *)
let normalizer ~cells comp =
  let table = wire_table ~cells comp in
  fun g ->
    Option.map (List.filter conjunct_sat)
      (dnf (expand_guard table 4 (simplify_guard g)))

(* Every pair of conjuncts, one from each side, holds complementary
   literals. *)
let disjoint n1 n2 =
  match (n1, n2) with
  | Some d1, Some d2 ->
      List.for_all
        (fun c1 ->
          List.for_all
            (fun c2 ->
              List.exists
                (fun l1 -> List.exists (lits_complementary l1) c2)
                c1)
            d2)
        d1
  | _ -> false

let exclusive comp =
  let norm = normalizer ~cells:(cell_index comp) comp in
  fun g1 g2 -> disjoint (norm g1) (norm g2)

(* A driver's guard and its normal form, computed at most once and only
   when a pair needs it: a port with one driver never normalizes. *)
type driver = { guard : guard; norm : lit list list option Lazy.t }

(* Two drivers of one port may both drive in a cycle when they run in the
   same scope: two continuous assignments, two assignments of one group,
   or one of each. So the continuous drivers are tabled once per
   component, each group's drivers once, and a group's drivers are paired
   with each other and with the continuous drivers of the same port.
   Drivers of two different groups are never paired. Tables are keyed by
   the destination's {!Ports} id and hold each port's drivers newest
   first. *)
let overlapping_drivers ~cells ~ports comp =
  let norm = normalizer ~cells comp in
  let id = Ports.id ports in
  let by_dst assigns =
    let table = Hashtbl.create 16 in
    List.iter
      (fun (a : assignment) ->
        Option.iter
          (fun k ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt table k) in
            let d = { guard = a.guard; norm = lazy (norm a.guard) } in
            Hashtbl.replace table k (d :: prev))
          (resolved id a.dst))
      assigns;
    table
  in
  let diags = ref [] in
  let report ~loc dst d1 d2 =
    match (d1.guard, d2.guard) with
    | True, True -> () (* both unconditional: a CX008 error *)
    | g1, g2 ->
        if not (disjoint (Lazy.force d1.norm) (Lazy.force d2.norm)) then
          diags :=
            D.warning ~code:"CX022" ~loc
              "port %s has multiple drivers whose guards are not provably \
               exclusive: [%a] vs [%a]"
              (port_name (Ports.port ports dst))
              pp_guard g1 pp_guard g2
            :: !diags
  in
  let rec pairs ~loc dst = function
    | [] -> ()
    | d :: rest ->
        List.iter (report ~loc dst d) rest;
        pairs ~loc dst rest
  in
  let continuous = by_dst comp.continuous in
  Hashtbl.iter (pairs ~loc:(D.Component comp.comp_name)) continuous;
  List.iter
    (fun g ->
      let loc = D.Group { comp = comp.comp_name; group = g.group_name } in
      Hashtbl.iter
        (fun dst drivers ->
          List.iter
            (fun c -> List.iter (report ~loc dst c) drivers)
            (Option.value ~default:[] (Hashtbl.find_opt continuous dst));
          pairs ~loc dst drivers)
        (by_dst g.assigns))
    comp.groups;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* CX023 / CX024: dead groups and dead cells                           *)
(* ------------------------------------------------------------------ *)

let dead_code comp =
  let diags = ref [] in
  (* A group is live when the control program can reach it, or when some
     assignment references its holes (intermediate forms generated by the
     static-timing pass drive children's holes directly). *)
  let live_groups = ref (SS.of_list (enabled_groups comp.control)) in
  let scan assigns =
    List.iter
      (fun a ->
        let note = function
          | Port (Hole (g, _)) -> live_groups := SS.add g !live_groups
          | _ -> ()
        in
        (match a.dst with
        | Hole (g, _) -> live_groups := SS.add g !live_groups
        | _ -> ());
        List.iter note (assignment_atoms a))
      assigns
  in
  (* Liveness flows through hole references (the static-timing pass makes
     parent groups drive their children's holes), so iterate to a
     fixpoint. *)
  scan comp.continuous;
  let rec grow () =
    let before = SS.cardinal !live_groups in
    List.iter
      (fun g -> if SS.mem g.group_name !live_groups then scan g.assigns)
      comp.groups;
    if SS.cardinal !live_groups > before then grow ()
  in
  grow ();
  List.iter
    (fun g ->
      if not (SS.mem g.group_name !live_groups) then
        diags :=
          D.warning ~code:"CX023"
            ~loc:(D.Group { comp = comp.comp_name; group = g.group_name })
            "group %s is never reachable from the control program"
            g.group_name
          :: !diags)
    comp.groups;
  (* Cells: exactly the ones dead-cell removal would delete. *)
  let used = Dead_cell_removal.referenced comp in
  List.iter
    (fun c ->
      if (not (used c.cell_name)) && not (Attrs.external_mem c.cell_attrs)
      then
        diags :=
          D.warning ~code:"CX024"
            ~loc:(D.Cell { comp = comp.comp_name; cell = c.cell_name })
            "cell %s is never referenced by any assignment or control \
             statement"
            c.cell_name
          :: !diags)
    comp.cells;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* CX025: latency contracts                                            *)
(* ------------------------------------------------------------------ *)

let latency_contracts ctx ~cells ~groups comp =
  let diags = ref [] in
  List.iter
    (fun g ->
      match
        ( Attrs.static g.group_attrs,
          Infer_latency.derived_group_latency ctx cells comp g )
      with
      | Some annotated, Some derived when annotated <> derived ->
          diags :=
            D.error ~code:"CX025"
              ~loc:(D.Group { comp = comp.comp_name; group = g.group_name })
              "group %s is annotated \"static\"=%d but its derived latency \
               is %d cycle(s); latency-sensitive compilation would \
               mis-schedule it"
              g.group_name annotated derived
            :: !diags
      | _ -> ())
    comp.groups;
  (match (Attrs.static comp.comp_attrs, comp.control) with
  | Some annotated, ctrl when ctrl <> Empty -> (
      match Static_timing.control_latency groups comp ctrl with
      | Some derived when derived <> annotated ->
          diags :=
            D.error ~code:"CX025" ~loc:(D.Component comp.comp_name)
              "component %s is annotated \"static\"=%d but its control \
               program takes %d cycle(s)"
              comp.comp_name annotated derived
            :: !diags
      | _ -> ())
  | _ -> ());
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The rules that can reject (CX020, CX021, CX025) always run; the
   warning-only ones (CX022-CX024) only when [warnings] is set. *)
let run ~warnings ctx comp =
  let cells = cell_index comp and groups = group_index comp in
  let ports = Ports.create ctx comp in
  par_races ~cells ~groups comp
  @ comb_cycles ~cells ~ports comp
  @ (if warnings then overlapping_drivers ~cells ~ports comp @ dead_code comp
     else [])
  @ latency_contracts ctx ~cells ~groups comp

let run_all ~warnings ctx =
  List.concat_map
    (fun c -> if c.is_extern <> None then [] else run ~warnings ctx c)
    ctx.components

let component_diagnostics ctx comp = run ~warnings:true ctx comp
let diagnostics ctx = run_all ~warnings:true ctx

let check ctx =
  match D.errors_of (run_all ~warnings:false ctx) with
  | [] -> ()
  | errs -> raise (Rejected errs)
