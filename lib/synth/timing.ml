open Calyx
open Calyx.Ir
module Json = Calyx_telemetry.Json

type path = {
  p_start : string;
  p_end : string;
  p_delay_ps : int;
  p_levels : int;
  p_ports : string list;
}

type report = {
  levels : int;
  critical : string list;
  delay_ps : int;
  fmax_mhz : float;
  paths : path list;
}

exception Combinational_loop of string

(* ------------------------------------------------------------------ *)
(* Delay model (picoseconds)                                           *)
(* ------------------------------------------------------------------ *)

(* Calibrated alongside Area's LUT6 constants: relative, not absolute.
   The table is mirrored in DESIGN.md. *)
let t_lut = 450 (* one LUT6 level including local routing *)
let t_carry = 120 (* one carry-lookahead stage (log-depth adder model) *)
let t_dsp = 2900 (* DSP48 combinational multiply *)
let t_dsp_cascade = 700 (* each further DSP block of a wide multiply *)
let t_mem = 1200 (* LUTRAM/BRAM asynchronous read *)
let t_mem_addr = 60 (* address decode, per address bit *)
let t_clk_q = 150 (* register clock-to-Q *)
let t_setup = 100 (* register setup *)
let min_period_ps = 1000 (* fabric floor: 1 GHz *)

let delay_constants =
  [
    ("t_lut", t_lut);
    ("t_carry", t_carry);
    ("t_dsp", t_dsp);
    ("t_dsp_cascade", t_dsp_cascade);
    ("t_mem", t_mem);
    ("t_mem_addr", t_mem_addr);
    ("t_clk_q", t_clk_q);
    ("t_setup", t_setup);
    ("min_period_ps", min_period_ps);
  ]

let cdiv a b = (a + b - 1) / b

(* [Stdlib.max] compares polymorphically; this compares ints. *)
let imax (a : int) b = if a >= b then a else b

let clog2 = Compile_control.clog2

(* Levels of a 6-ary LUT reduction tree over [n] inputs. *)
let lut_tree_depth n =
  let rec go levels m = if m <= 1 then levels else go (levels + 1) (cdiv m 6) in
  go 0 n

let adder_ps w = t_lut + (t_carry * clog2 (max 2 w))
let eq_ps w = t_lut * (1 + lut_tree_depth (cdiv (max 1 w) 3))
let shift_ps w = t_lut * clog2 (max 2 w)
let mult_ps w = t_dsp + (t_dsp_cascade * (cdiv (max 1 w) 18 - 1))
let mem_ps size = t_mem + (t_mem_addr * clog2 (max 2 size))
let reduce_ps w = if w <= 1 then 0 else t_lut * lut_tree_depth w

(* A k:1 mux tree packs roughly 4 ways per LUT6 level. *)
let mux_ps drivers =
  if drivers <= 1 then 0
  else
    let rec go levels m = if m <= 1 then levels else go (levels + 1) (cdiv m 4) in
    t_lut * go 0 drivers

(* The delay and logic levels [(ps, levels)] that each combinational arc
   of a primitive ({!Prims.comb_arcs}) costs. *)
let arc_delay name params =
  let w = match params with w :: _ -> w | [] -> 1 in
  match name with
  | "std_add" | "std_sub" | "std_lt" | "std_gt" | "std_le" | "std_ge" ->
      (adder_ps w, 1)
  | "std_eq" | "std_neq" -> (eq_ps w, 1)
  | "std_lsh" | "std_rsh" -> (shift_ps w, 2)
  | "std_mult" -> (mult_ps w, 3)
  | "std_wire" | "std_slice" | "std_pad" -> (0, 0)
  | "std_mem_d1" ->
      let size = match params with [ _; s; _ ] -> s | _ -> 1 in
      (mem_ps size, 1)
  | "std_mem_d2" ->
      let size = match params with [ _; d0; d1; _; _ ] -> d0 * d1 | _ -> 1 in
      (mem_ps size, 1)
  | _ -> (t_lut, 1)

(* Guard logic depth feeding a mux select, over port ids: atoms pay an
   OR-reduction to one bit, comparisons pay their operator, each
   connective a LUT level (negation folds into the LUT). *)
let atom_width ports = function
  | Port i -> Ports.width_of_id ports i
  | Lit v -> Bitvec.width v

let rec guard_ps ports = function
  | True -> 0
  | Atom a -> reduce_ps (atom_width ports a)
  | Cmp (op, a, b) ->
      let w = imax (atom_width ports a) (atom_width ports b) in
      (match op with Eq | Neq -> eq_ps w | Lt | Gt | Le | Ge -> adder_ps w)
  | And (g1, g2) | Or (g1, g2) ->
      t_lut + imax (guard_ps ports g1) (guard_ps ports g2)
  | Not g -> guard_ps ports g

(* ------------------------------------------------------------------ *)
(* The flattened port graph                                            *)
(* ------------------------------------------------------------------ *)

(* Nodes are ints: every instance of the flattened hierarchy owns a range
   of ids, one per port of its component's port table, except that a
   child's signature ports are the parent's ports of that cell, so
   hierarchical binding is the id map. A node is [present] when the
   analysis mentions it (a launch or capture point, an edge end, an
   assigned port); only present nodes launch paths. *)
type graph = {
  names : string array;  (* dotted path from the analysis root *)
  edges : (int * int * int) list array;  (* dst, ps, levels *)
  source : int array;  (* launch offset (clock-to-Q); -1 when none *)
  setup : int array;  (* capture cost when a path ends here *)
  driven : bool array;
  present : bool array;
}

let join prefix name = if prefix = "" then name else prefix ^ "." ^ name

let build ctx comp =
  let table = Ports.tables ctx in
  (* Room for every port of every instance; a child's signature ports
     share the parent's ids, so a few trailing slots stay unused. *)
  let rec size comp =
    List.fold_left
      (fun acc c ->
        match c.cell_proto with
        | Comp cname -> (
            let child = find_component ctx cname in
            match child.is_extern with Some _ -> acc | None -> acc + size child)
        | Prim _ -> acc)
      (Ports.count (table comp)) comp.cells
  in
  let n = size comp in
  let g =
    {
      names = Array.make n "";
      edges = Array.make n [];
      source = Array.make n (-1);
      setup = Array.make n 0;
      driven = Array.make n false;
      present = Array.make n false;
    }
  in
  let next = ref 0 in
  let touch v = g.present.(v) <- true in
  let edge src dst ps lv =
    touch src;
    touch dst;
    g.edges.(src) <- (dst, ps, lv) :: g.edges.(src);
    g.driven.(dst) <- true
  in
  (* [outer] maps a child instance's signature ports to the parent's
     ports of its cell; the root owns its signature ports. *)
  let rec add_instance ~prefix ~outer comp =
    let ports = table comp in
    let map =
      Array.init (Ports.count ports) (fun i ->
          match (Ports.port ports i, outer) with
          | This p, Some outer -> outer p
          | port, _ ->
              let v = !next in
              incr next;
              g.names.(v) <- join prefix (port_name port);
              v)
    in
    let node p = map.(Ports.id ports p) in
    (* Interface ports of the analysis root launch and capture paths. *)
    if outer = None then begin
      List.iter
        (fun (p : port_def) ->
          let v = node (This p.pd_name) in
          touch v;
          g.source.(v) <- 0)
        comp.inputs;
      List.iter
        (fun (p : port_def) -> touch (node (This p.pd_name)))
        comp.outputs
    end;
    (* Group go holes are FSM-driven once compiled: they launch paths. *)
    List.iter
      (fun grp ->
        let v = node (Hole (grp.group_name, "go")) in
        touch v;
        g.source.(v) <- t_clk_q)
      comp.groups;
    (* Assignments: data rides the destination's mux tree, guard reads
       additionally pay the guard logic into the mux select. *)
    let assigns = all_assignments comp in
    let drivers = Array.make (Ports.count ports) 0 in
    List.iter
      (fun a ->
        let d = Ports.id ports a.dst in
        drivers.(d) <- drivers.(d) + 1)
      assigns;
    (* Each assignment is resolved where it is used, so no resolved copy
       of the component outlives its edges. *)
    List.iter
      (fun a ->
        let a = Ports.resolve_assignment ports a in
        let dst = map.(a.dst) in
        touch dst;
        g.driven.(dst) <- true;
        let mux = mux_ps drivers.(a.dst) in
        (match a.src with Port p -> edge map.(p) dst mux 1 | Lit _ -> ());
        match a.guard with
        | True -> ()
        | guard ->
            let gps = guard_ps ports guard + mux in
            List.iter
              (function Port p -> edge map.(p) dst gps 1 | Lit _ -> ())
              (guard_atoms guard))
      assigns;
    (* Cells: primitives contribute their exact arcs and launch/capture
       points; sub-components are flattened in place. A repeated
       declaration of a cell name is skipped, as in the port table. *)
    List.iter
      (fun c ->
        let pnode p = node (Cell_port (c.cell_name, p)) in
        match (Ports.find_cell ports c.cell_name, c.cell_proto) with
        | None, _ -> ()
        | Some first, _ when first != c -> ()
        | Some _, Prim (name, params) ->
            let info = Prims.info name in
            if info.Prims.stateful then
              List.iter
                (fun (p : Prims.prim_port) ->
                  let v = pnode p.Prims.pp_name in
                  touch v;
                  match p.Prims.pp_dir with
                  | Prims.Out -> g.source.(v) <- t_clk_q
                  | Prims.In -> g.setup.(v) <- t_setup)
                (info.Prims.make_ports params);
            if name = "std_const" then begin
              let v = pnode "out" in
              touch v;
              g.source.(v) <- 0
            end;
            let ps, lv = arc_delay name params in
            List.iter
              (fun (i, o) -> edge (pnode i) (pnode o) ps lv)
              (Prims.comb_arcs name params)
        | Some _, Comp cname -> (
            let child = find_component ctx cname in
            match child.is_extern with
            | Some _ ->
                (* Black box: its outputs launch, its inputs capture. *)
                List.iter
                  (fun (p : port_def) ->
                    let v = pnode p.pd_name in
                    touch v;
                    match p.pd_dir with
                    | Output -> g.source.(v) <- t_clk_q
                    | Input -> g.setup.(v) <- t_setup)
                  (signature_ports child)
            | None ->
                add_instance ~prefix:(join prefix c.cell_name)
                  ~outer:(Some pnode) child))
      comp.cells
  in
  add_instance ~prefix:"" ~outer:None comp;
  g

(* ------------------------------------------------------------------ *)
(* Longest paths                                                       *)
(* ------------------------------------------------------------------ *)

(* One memoized DFS over the present nodes in id order. For each node:
   the worst (ps, levels) of any path continuing downstream from it,
   maximizing picoseconds (levels break ties), with [next] the first hop
   of that path (-1 when the path ends here, paying the node's setup
   cost); and [deep], the most logic levels on any path from it (the
   [levels] measure counts the deepest path by levels, which need not be
   the slowest). The first node found on a cycle is reported. *)
type longest = {
  ps : int array;
  lv : int array;
  next : int array;
  deep : int array;
}

let longest_paths g =
  let n = Array.length g.names in
  let r =
    {
      ps = Array.make n 0;
      lv = Array.make n 0;
      next = Array.make n (-1);
      deep = Array.make n 0;
    }
  in
  let state = Bytes.make n '\000' (* 0 new, 1 visiting, 2 done *) in
  let rec down v =
    match Bytes.get state v with
    | '\002' -> ()
    | '\001' -> raise (Combinational_loop g.names.(v))
    | _ ->
        Bytes.set state v '\001';
        let bps = ref g.setup.(v) and blv = ref 0 and bnext = ref (-1) in
        let deep = ref 0 in
        List.iter
          (fun (dst, ps, lv) ->
            down dst;
            let cps = ps + r.ps.(dst) and clv = lv + r.lv.(dst) in
            if cps > !bps || (cps = !bps && clv > !blv) then begin
              bps := cps;
              blv := clv;
              bnext := dst
            end;
            deep := imax !deep (lv + r.deep.(dst)))
          g.edges.(v);
        r.ps.(v) <- !bps;
        r.lv.(v) <- !blv;
        r.next.(v) <- !bnext;
        r.deep.(v) <- !deep;
        Bytes.set state v '\002'
  in
  for v = 0 to n - 1 do
    if g.present.(v) then down v
  done;
  r

let fmax_of_ps ps = 1e6 /. float_of_int (max ps min_period_ps)

let component_timing ?(paths = 5) ctx comp =
  let g = build ctx comp in
  let r = longest_paths g in
  let chain v =
    let rec go v acc =
      if v < 0 then List.rev acc else go r.next.(v) (v :: acc)
    in
    go v []
  in
  (* Paths launch at declared sources (register outputs, constants, the
     root's inputs, go holes) and at any undriven port. *)
  let candidates = ref [] in
  for v = Array.length g.names - 1 downto 0 do
    if g.present.(v) then
      let offset =
        if g.source.(v) >= 0 then g.source.(v)
        else if g.driven.(v) then -1
        else 0
      in
      if offset >= 0 then candidates := (v, offset) :: !candidates
  done;
  let candidates =
    List.map
      (fun (v, offset) ->
        let ports = List.map (fun v -> g.names.(v)) (chain v) in
        {
          p_start = g.names.(v);
          p_end = List.nth ports (List.length ports - 1);
          p_delay_ps = offset + r.ps.(v);
          p_levels = r.lv.(v);
          p_ports = ports;
        })
      !candidates
    |> List.sort (fun a b ->
           match compare b.p_delay_ps a.p_delay_ps with
           | 0 -> compare (a.p_start, a.p_end) (b.p_start, b.p_end)
           | c -> c)
  in
  (* A source with no combinational fanout is not a path; drop the
     degenerate single-port candidates unless nothing else exists. *)
  let candidates =
    let real = List.filter (fun p -> List.length p.p_ports > 1) candidates in
    if real = [] then candidates else real
  in
  (* Keep the worst path per distinct endpoint. *)
  let seen = Hashtbl.create 16 in
  let worst =
    List.filter
      (fun p ->
        if Hashtbl.mem seen p.p_end then false
        else begin
          Hashtbl.replace seen p.p_end ();
          true
        end)
      candidates
  in
  let kept = List.filteri (fun i _ -> i < max paths 1) worst in
  let levels = Array.fold_left max 0 r.deep in
  let delay_ps = match worst with [] -> 0 | p :: _ -> p.p_delay_ps in
  {
    levels;
    critical = (match kept with [] -> [] | p :: _ -> p.p_ports);
    delay_ps;
    fmax_mhz = fmax_of_ps delay_ps;
    paths = (if paths <= 0 then [] else kept);
  }

let context_timing ?paths ctx =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "timing" @@ fun () ->
  let t = component_timing ?paths ctx (entry ctx) in
  if Calyx_telemetry.Runtime.on () then begin
    Calyx_telemetry.Trace.add_metric "delay_ps" (float_of_int t.delay_ps);
    Calyx_telemetry.Trace.add_metric "levels" (float_of_int t.levels)
  end;
  t
let context_depth ctx = component_timing ~paths:1 ctx (entry ctx)

let period_ps r = max r.delay_ps min_period_ps
let period_ns r = float_of_int (period_ps r) /. 1000.
let wall_ns r ~cycles = float_of_int cycles *. period_ns r
let slack_ps r ~period_ps = period_ps - r.delay_ps

let port_edges ctx comp =
  let g = build ctx comp in
  let acc = ref [] in
  Array.iteri
    (fun src es ->
      List.iter
        (fun (dst, _, _) -> acc := (g.names.(src), g.names.(dst)) :: !acc)
        es)
    g.edges;
  List.sort_uniq compare !acc

(* ------------------------------------------------------------------ *)
(* Attribution back to cells, groups, and control                      *)
(* ------------------------------------------------------------------ *)

type attribution = {
  at_cell : string;
  at_groups : string list;
  at_control : string list;
}

(* The cell (or group hole) a dotted port path belongs to: strip the final
   port segment; hole nodes ("g[go]") name their group directly. *)
let owner_of_port name =
  match String.index_opt name '[' with
  | Some i -> Some (String.sub name 0 i)
  | None -> (
      match String.rindex_opt name '.' with
      | None -> None (* a signature port of the root *)
      | Some i -> Some (String.sub name 0 i))

let assignment_mentions cell (a : assignment) =
  let of_port = function Cell_port (c, _) -> c = cell | _ -> false in
  let of_atom = function Port p -> of_port p | Lit _ -> false in
  of_port a.dst || of_atom a.src
  || List.exists of_atom (guard_atoms a.guard)

(* Per component on an attribution: its cell and group index, and each
   group's enabling control statements, labelled, from one pre-order walk. *)
type index = {
  ix_cells : (string, cell) Hashtbl.t;
  ix_groups : (string, group) Hashtbl.t;
  ix_enablers : (string, string list) Hashtbl.t;
}

let build_index comp =
  let enablers = Hashtbl.create 64 in
  List.iter
    (fun (_, path, node) ->
      let enabled =
        match node with
        | Enable (g, _)
        | If { cond_group = Some g; _ }
        | While { cond_group = Some g; _ } ->
            Some g
        | _ -> None
      in
      Option.iter
        (fun g ->
          let label =
            Printf.sprintf "%s @ %s" (control_node_label node)
              (if path = "" then "root" else path)
          in
          Hashtbl.replace enablers g
            (label :: Option.value ~default:[] (Hashtbl.find_opt enablers g)))
        enabled)
    (control_preorder comp.control);
  {
    ix_cells = cell_index comp;
    ix_groups = group_index comp;
    ix_enablers = enablers;
  }

(* Resolve a dotted cell path from the entrypoint down the instance
   hierarchy; returns the defining component, the instance prefix, and
   the local cell name. *)
let resolve_cell ctx index path =
  let rec go comp prefix = function
    | [] -> None
    | [ cell ] -> Some (comp, prefix, cell)
    | seg :: rest -> (
        match Hashtbl.find_opt (index comp).ix_cells seg with
        | Some { cell_proto = Comp cname; _ } ->
            go (find_component ctx cname) (join prefix seg) rest
        | _ -> None)
  in
  go (entry ctx) "" (String.split_on_char '.' path)

let attribute ctx ports =
  let seen = Hashtbl.create 16 in
  let indexes = Hashtbl.create 4 in
  let index comp =
    match Hashtbl.find_opt indexes comp.comp_name with
    | Some t -> t
    | None ->
        let t = build_index comp in
        Hashtbl.replace indexes comp.comp_name t;
        t
  in
  List.filter_map
    (fun port ->
      match owner_of_port port with
      | None -> None
      | Some owner ->
          if Hashtbl.mem seen owner then None
          else begin
            Hashtbl.replace seen owner ();
            match resolve_cell ctx index owner with
            | None -> Some { at_cell = owner; at_groups = []; at_control = [] }
            | Some (comp, prefix, local) ->
                let qualify n = if prefix = "" then n else prefix ^ "." ^ n in
                let { ix_groups; ix_enablers; _ } = index comp in
                (* A hole node's "cell" is its group. *)
                let groups =
                  if Hashtbl.mem ix_groups local then [ local ]
                  else
                    List.filter_map
                      (fun grp ->
                        if List.exists (assignment_mentions local) grp.assigns
                        then Some grp.group_name
                        else None)
                      comp.groups
                in
                let at_control =
                  List.concat_map
                    (fun g ->
                      Option.value ~default:[] (Hashtbl.find_opt ix_enablers g))
                    groups
                  |> List.sort_uniq compare
                in
                Some
                  {
                    at_cell = owner;
                    at_groups = List.map qualify groups;
                    at_control;
                  }
          end)
    ports

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render ?attribute_ctx ?target_period_ps r =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "critical path:  %d ps (%.2f ns)\n" r.delay_ps
    (float_of_int r.delay_ps /. 1000.);
  pf "Fmax estimate:  %.1f MHz (period %.2f ns)\n" r.fmax_mhz (period_ns r);
  pf "logic levels:   %d\n" r.levels;
  (match target_period_ps with
  | None -> ()
  | Some p ->
      let s = slack_ps r ~period_ps:p in
      pf "slack @ %.2f ns: %s%d ps%s\n"
        (float_of_int p /. 1000.)
        (if s >= 0 then "+" else "")
        s
        (if s < 0 then "  VIOLATED" else ""));
  if r.paths <> [] then begin
    pf "worst paths:\n";
    List.iteri
      (fun i p ->
        pf "  #%d  %6d ps  %2d levels  %s -> %s\n" (i + 1) p.p_delay_ps
          p.p_levels p.p_start p.p_end;
        let ports =
          if List.length p.p_ports > 8 then
            List.filteri (fun i _ -> i < 8) p.p_ports @ [ "..." ]
          else p.p_ports
        in
        pf "      via %s\n" (String.concat " -> " ports);
        match attribute_ctx with
        | None -> ()
        | Some ctx ->
            List.iter
              (fun at ->
                if at.at_groups <> [] then
                  pf "      %s: group %s%s\n" at.at_cell
                    (String.concat ", " at.at_groups)
                    (match at.at_control with
                    | [] -> ""
                    | cs -> " (" ^ String.concat "; " cs ^ ")"))
              (attribute ctx p.p_ports))
      r.paths
  end;
  Buffer.contents buf

let to_json ?attribute_ctx ?target_period_ps r =
  let path_json p =
    let cells =
      match attribute_ctx with
      | None -> []
      | Some ctx ->
          [
            ( "cells",
              Json.arr
                (List.map
                   (fun at ->
                     Json.obj
                       [
                         ("cell", Json.str at.at_cell);
                         ( "groups",
                           Json.arr (List.map Json.str at.at_groups) );
                         ( "control",
                           Json.arr (List.map Json.str at.at_control) );
                       ])
                   (attribute ctx p.p_ports)) );
          ]
    in
    Json.obj
      ([
         ("start", Json.str p.p_start);
         ("end", Json.str p.p_end);
         ("delay_ps", Json.int p.p_delay_ps);
         ("levels", Json.int p.p_levels);
         ("ports", Json.arr (List.map Json.str p.p_ports));
       ]
      @ cells)
  in
  let slack =
    match target_period_ps with
    | None -> []
    | Some p ->
        [
          ("target_period_ps", Json.int p);
          ("slack_ps", Json.int (slack_ps r ~period_ps:p));
          ("met", Json.bool (slack_ps r ~period_ps:p >= 0));
        ]
  in
  Json.obj
    ([
       ("delay_ps", Json.int r.delay_ps);
       ("period_ns", Json.float (period_ns r));
       ("fmax_mhz", Json.float r.fmax_mhz);
       ("levels", Json.int r.levels);
       ("paths", Json.arr (List.map path_json r.paths));
     ]
    @ slack)
