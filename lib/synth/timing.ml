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
let arc_delay (info : Prims.info) params =
  let w = match params with w :: _ -> w | [] -> 1 in
  match info.cost with
  | Adder | Ordered_compare -> (adder_ps w, 1)
  | Equality -> (eq_ps w, 1)
  | Bitwise -> (t_lut, 1)
  | Shift -> (shift_ps w, 2)
  | Multiplier -> (mult_ps w, 3)
  | Free -> (0, 0)
  | Ram -> (mem_ps (Prims.words info.prim_name params), 1)
  | Flip_flops | Mult_pipe | Div_pipe | Sqrt_pipe -> (0, 0) (* no arcs *)

(* ------------------------------------------------------------------ *)
(* The flattened port graph                                            *)
(* ------------------------------------------------------------------ *)

(* Nodes are ints: every instance of the flattened hierarchy owns a range
   of ids, one per port of its component's port table, except that a
   child's signature ports are the parent's ports of that cell, so
   hierarchical binding is the id map. A node is present ([f_present])
   when the analysis mentions it (a launch or capture point, an edge
   end, an assigned port); only present nodes launch paths.

   Edges are flat int arrays, sized from the IR before anything is
   resolved: each node's edges form a list threaded through [e_next],
   most recently added first. Names are built only for the nodes a
   report prints, from the instance that owns the node. *)
type instance = {
  i_base : int;  (* its first own node *)
  i_skip : int;  (* signature ports owned by the parent's cell (0 at the root) *)
  i_table : Ports.t;
  i_prefix : string;  (* dotted path from the analysis root *)
}

type graph = {
  instances : instance array;  (* in creation order, so by [i_base] *)
  head : int array;  (* a node's most recent edge; -1 when none *)
  e_dst : int array;
  e_ps : int array;
  e_lv : Bytes.t;  (* logic levels, at most 3 *)
  e_next : int array;  (* the same source's previous edge; -1 at the end *)
  edges : int;
  flags : Bytes.t;  (* per node, the [f_] bits below *)
}

let f_present = 1 (* the analysis mentions the node *)
let f_driven = 2 (* assigned, or an edge ends here *)
let f_capture = 4 (* a path that ends here pays the setup time *)
let f_launch = 8 (* a declared path source *)
let f_clocked = 16 (* with [f_launch]: launches after clock-to-Q *)
let has g v f = Char.code (Bytes.unsafe_get g.flags v) land f <> 0

let join prefix name = if prefix = "" then name else prefix ^ "." ^ name

(* The owner of [v] is the last instance whose range starts at or
   before it: a child's range follows its parent's. *)
let name g v =
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if g.instances.(mid).i_base <= v then find mid hi else find lo (mid - 1)
  in
  let i = g.instances.(find 0 (Array.length g.instances - 1)) in
  join i.i_prefix (port_name (Ports.port i.i_table (v - i.i_base + i.i_skip)))

(* What a primitive or black-box cell adds to the graph, as offsets from
   its base id: its launch and capture points and its arcs, which all
   cost [arc_ps] and [arc_lv]. *)
type mark = Launch of bool (* after clock-to-Q *) | Capture

type cell_facts = {
  marks : (int * mark) array;
  arcs : int array;  (* (input, output) offset pairs, in arc order *)
  arc_ps : int;
  arc_lv : int;
}

(* The offset of each name in a prototype's port list: its first
   occurrence among the distinct names, as {!Ports} numbers them. *)
let offsets names =
  let index = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if not (Hashtbl.mem index n) then Hashtbl.replace index n (Hashtbl.length index))
    names;
  Hashtbl.find index

let cell_facts ctx = function
  | Prim (name, params) ->
      let info = Prims.info name in
      let ports = info.make_ports params in
      let offset = offsets (List.map (fun (p : Prims.prim_port) -> p.pp_name) ports) in
      (* A stateful cell launches at its outputs and captures at its
         inputs; a constant, having no inputs, launches at its output. *)
      let clocked = info.kind <> Combinational in
      let outputs_only =
        List.for_all (fun (p : Prims.prim_port) -> p.pp_dir = Out) ports
      in
      let marks =
        if clocked || outputs_only then
          Array.of_list
            (List.map
               (fun (p : Prims.prim_port) ->
                 ( offset p.pp_name,
                   match p.pp_dir with
                   | Out -> Launch clocked
                   | In -> Capture ))
               ports)
        else [||]
      in
      let arc_ps, arc_lv = arc_delay info params in
      let arcs =
        Array.of_list
          (List.concat_map
             (fun (i, o) -> [ offset i; offset o ])
             (Prims.comb_arcs name params))
      in
      { marks; arcs; arc_ps; arc_lv }
  | Comp cname ->
      (* Black box: its outputs launch, its inputs capture. *)
      let ports = signature_ports (find_component ctx cname) in
      let offset = offsets (List.map (fun (p : port_def) -> p.pd_name) ports) in
      {
        marks =
          Array.of_list
            (List.map
               (fun (p : port_def) ->
                 ( offset p.pd_name,
                   match p.pd_dir with Output -> Launch true | Input -> Capture ))
               ports);
        arcs = [||];
        arc_ps = 0;
        arc_lv = 0;
      }

(* A cell is a leaf, with its prototype's facts or what computing them
   raised (raised where the cell is met, after its component's
   assignments), or a sub-component to flatten in place. *)
type role = Leaf of (cell_facts, exn) result | Child of component

(* A child component's share of the graph in its port table's ids,
   resolved at its first instance and copied into every instance: its go
   holes, each port's number of drivers, and its assignment edges as
   (src, dst, ps) triples of one logic level each, in the order they are
   added. The analysis root, instantiated once, adds its edges as it
   resolves them. *)
type template = {
  t_holes : int array;
  t_drivers : int array;
  t_edges : int array;
}

(* Per component: its port table, its signature ports, each cell's role,
   and the nodes and an upper bound on the edges of one instance of it,
   children included, all read from the IR without resolving a port; and
   its template. *)
type comp_info = {
  ci_table : Ports.t;
  ci_signature : int;
  ci_roles : role array;  (* in [cells] order *)
  ci_assigns : int;
  ci_nodes : int;
  ci_edges : int;
  ci_template : template Lazy.t;
}

let atom_ports = function Port _ -> 1 | Lit _ -> 0

let rec guard_ports = function
  | True -> 0
  | Atom a -> atom_ports a
  | Cmp (_, a, b) -> atom_ports a + atom_ports b
  | And (g1, g2) | Or (g1, g2) -> guard_ports g1 + guard_ports g2
  | Not g -> guard_ports g

(* Continuous assignments, then each group's, as {!all_assignments}. *)
let iter_assignments f comp =
  List.iter f comp.continuous;
  List.iter (fun grp -> List.iter f grp.assigns) comp.groups

(* Each port occurrence of [comp] is resolved once, in [ports]' ids: the
   go holes, then every destination, as in the other back ends, then each
   assignment's source and guard atoms left to right. [add src dst ps]
   receives each assignment edge, of one logic level, in the order the
   edges are added. Data rides the destination's mux tree; guard reads
   additionally pay the guard logic into the mux select: atoms pay an
   OR-reduction to one bit, comparisons their operator, each connective
   a LUT level (negation folds into the LUT). Returns the go holes and
   each port's number of drivers. *)
let resolve ports comp ~assigns add =
  let holes =
    Array.of_list
      (List.map (fun grp -> Ports.id ports (Hole (grp.group_name, "go"))) comp.groups)
  in
  let dsts = Array.make assigns 0 in
  let drivers = Array.make (Ports.count ports) 0 in
  let i = ref 0 in
  iter_assignments
    (fun a ->
      let d = Ports.id ports a.dst in
      dsts.(!i) <- d;
      drivers.(d) <- drivers.(d) + 1;
      incr i)
    comp;
  (* The current guard's atoms: their edges wait for the whole guard's
     delay. *)
  let atoms = ref (Array.make 8 0) and n_atoms = ref 0 in
  let atom = function
    | Port p ->
        let k = Ports.id ports p in
        if !n_atoms = Array.length !atoms then begin
          let grown = Array.make (2 * !n_atoms) 0 in
          Array.blit !atoms 0 grown 0 !n_atoms;
          atoms := grown
        end;
        !atoms.(!n_atoms) <- k;
        incr n_atoms;
        Ports.width_of_id ports k
    | Lit v -> Bitvec.width v
  in
  let rec guard = function
    | True -> 0
    | Atom a -> reduce_ps (atom a)
    | Cmp (op, a, b) ->
        let wa = atom a (* first: atoms resolve left to right *) in
        let w = imax wa (atom b) in
        (match op with Eq | Neq -> eq_ps w | Lt | Gt | Le | Ge -> adder_ps w)
    | And (g1, g2) | Or (g1, g2) ->
        let p1 = guard g1 in
        t_lut + imax p1 (guard g2)
    | Not g -> guard g
  in
  i := 0;
  iter_assignments
    (fun a ->
      let dst = dsts.(!i) in
      incr i;
      let mux = mux_ps drivers.(dst) in
      (match a.src with Port p -> add (Ports.id ports p) dst mux | Lit _ -> ());
      n_atoms := 0;
      let gps = guard a.guard + mux in
      for k = 0 to !n_atoms - 1 do
        add !atoms.(k) dst gps
      done)
    comp;
  (holes, drivers)

(* [resolve]'s output kept as (src, dst, ps) triples, for a component
   that is instantiated below the analysis root, perhaps many times.
   [edges] counts its assignments' port sources and guard atoms. *)
let template ports comp ~assigns ~edges =
  let t_edges = Array.make (3 * edges) 0 and n = ref 0 in
  let t_holes, t_drivers =
    resolve ports comp ~assigns (fun src dst ps ->
        t_edges.(!n) <- src;
        t_edges.(!n + 1) <- dst;
        t_edges.(!n + 2) <- ps;
        n := !n + 3)
  in
  { t_holes; t_drivers; t_edges }

let build ctx comp =
  let table = Ports.tables ctx in
  let leaves = Hashtbl.create 16 in
  let leaf proto =
    match Hashtbl.find_opt leaves proto with
    | Some r -> r
    | None ->
        let r =
          match cell_facts ctx proto with
          | f -> Leaf (Ok f)
          | exception
              ((Ir_error _ | Prims.Unknown_primitive _ | Invalid_argument _)
               as e) ->
              Leaf (Error e)
        in
        Hashtbl.replace leaves proto r;
        r
  in
  (* Sized from the IR alone: room for every port of every instance (a
     child's signature ports share the parent's ids, so a few trailing
     slots stay unused) and for every source, guard atom and arc. *)
  let infos = Hashtbl.create 8 in
  let rec info comp =
    match Hashtbl.find_opt infos comp.comp_name with
    | Some i -> i
    | None ->
        let t = table comp in
        let assigns = ref 0 and own_edges = ref 0 in
        iter_assignments
          (fun a ->
            incr assigns;
            own_edges := !own_edges + atom_ports a.src + guard_ports a.guard)
          comp;
        let nodes = ref (Ports.count t) and edges = ref !own_edges in
        let role c =
          match c.cell_proto with
          | Comp cname -> (
              let child = find_component ctx cname in
              match child.is_extern with
              | Some _ -> leaf c.cell_proto
              | None ->
                  let ci = info child in
                  nodes := !nodes + ci.ci_nodes;
                  edges := !edges + ci.ci_edges;
                  Child child)
          | Prim _ ->
              let r = leaf c.cell_proto in
              (match r with
              | Leaf (Ok f) -> edges := !edges + (Array.length f.arcs / 2)
              | Leaf (Error _) | Child _ -> ());
              r
        in
        let roles = Array.of_list (List.map role comp.cells) in
        let signature = Hashtbl.create 8 in
        List.iter
          (fun (p : port_def) -> Hashtbl.replace signature p.pd_name ())
          (signature_ports comp);
        let assigns = !assigns and own_edges = !own_edges in
        let i =
          {
            ci_table = t;
            ci_signature = Hashtbl.length signature;
            ci_roles = roles;
            ci_assigns = assigns;
            ci_nodes = !nodes;
            ci_edges = !edges;
            ci_template =
              lazy (template t comp ~assigns ~edges:own_edges);
          }
        in
        Hashtbl.replace infos comp.comp_name i;
        i
  in
  let top = info comp in
  let n = top.ci_nodes and m = top.ci_edges in
  let head = Array.make n (-1) in
  let e_dst = Array.make m 0
  and e_ps = Array.make m 0
  and e_lv = Bytes.make m '\000'
  and e_next = Array.make m 0 in
  let edges = ref 0 in
  let flags = Bytes.make n '\000' in
  let get v = Char.code (Bytes.unsafe_get flags v) in
  let put v f = Bytes.unsafe_set flags v (Char.unsafe_chr f) in
  let set_flag v f = put v (get v lor f) in
  let touch v = set_flag v f_present in
  (* A later launch mark replaces an earlier one. *)
  let launch v ~clocked =
    put v
      (get v land lnot f_clocked lor f_present lor f_launch
      lor if clocked then f_clocked else 0)
  in
  let edge src dst ps lv =
    touch src;
    touch dst;
    let e = !edges in
    e_dst.(e) <- dst;
    e_ps.(e) <- ps;
    Bytes.unsafe_set e_lv e (Char.chr lv);
    e_next.(e) <- head.(src);
    head.(src) <- e;
    edges := e + 1;
    set_flag dst f_driven
  in
  let instances = ref [] in
  let next = ref 0 in
  (* A child's signature port [k] is node [outer + k]: its cell's port in
     the parent. The root owns its signature ports. *)
  let rec add_instance ~prefix ~outer comp =
    let ci = info comp in
    let ports = ci.ci_table in
    let at_root = outer = None in
    let skip = if at_root then 0 else ci.ci_signature in
    let base = !next in
    next := base + Ports.count ports - skip;
    instances :=
      { i_base = base; i_skip = skip; i_table = ports; i_prefix = prefix }
      :: !instances;
    let own = base - skip and outer = Option.value outer ~default:0 in
    let node k = if k < skip then outer + k else own + k in
    (* Interface ports of the analysis root launch and capture paths. *)
    if at_root then begin
      List.iter
        (fun (p : port_def) ->
          launch (node (Ports.id ports (This p.pd_name))) ~clocked:false)
        comp.inputs;
      List.iter
        (fun (p : port_def) -> touch (node (Ports.id ports (This p.pd_name))))
        comp.outputs
    end;
    let holes, drivers =
      if at_root then
        resolve ports comp ~assigns:ci.ci_assigns (fun src dst ps ->
            edge (node src) (node dst) ps 1)
      else begin
        let tp = Lazy.force ci.ci_template in
        let es = tp.t_edges in
        for e = 0 to (Array.length es / 3) - 1 do
          edge (node es.(3 * e)) (node es.((3 * e) + 1)) es.((3 * e) + 2) 1
        done;
        (tp.t_holes, tp.t_drivers)
      end
    in
    (* Group go holes are FSM-driven once compiled: they launch paths. *)
    Array.iter (fun k -> launch (node k) ~clocked:true) holes;
    Array.iteri
      (fun k d -> if d > 0 then set_flag (node k) (f_present lor f_driven))
      drivers;
    (* Cells: primitives contribute their exact arcs and launch/capture
       points; sub-components are flattened in place. A repeated
       declaration of a cell name is skipped, as in the port table. *)
    List.iteri
      (fun i c ->
        let cb = Ports.cell_base ports i in
        if cb >= 0 then
          let cell = own + cb in
          match ci.ci_roles.(i) with
          | Leaf (Error e) -> raise e
          | Leaf (Ok f) ->
              for j = 0 to Array.length f.marks - 1 do
                let k, mark = f.marks.(j) in
                match mark with
                | Launch clocked -> launch (cell + k) ~clocked
                | Capture -> set_flag (cell + k) (f_present lor f_capture)
              done;
              for a = 0 to (Array.length f.arcs / 2) - 1 do
                edge
                  (cell + f.arcs.(2 * a))
                  (cell + f.arcs.((2 * a) + 1))
                  f.arc_ps f.arc_lv
              done
          | Child child ->
              add_instance ~prefix:(join prefix c.cell_name)
                ~outer:(Some cell) child)
      comp.cells
  in
  add_instance ~prefix:"" ~outer:None comp;
  {
    instances = Array.of_list (List.rev !instances);
    head;
    e_dst;
    e_ps;
    e_lv;
    e_next;
    edges = !edges;
    flags;
  }

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
  let n = Array.length g.head in
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
    | '\001' -> raise (Combinational_loop (name g v))
    | _ ->
        Bytes.set state v '\001';
        let bps = ref (if has g v f_capture then t_setup else 0) in
        let blv = ref 0 and bnext = ref (-1) and deep = ref 0 in
        let e = ref g.head.(v) in
        while !e >= 0 do
          let dst = g.e_dst.(!e) in
          let lv = Char.code (Bytes.unsafe_get g.e_lv !e) in
          down dst;
          let cps = g.e_ps.(!e) + r.ps.(dst) and clv = lv + r.lv.(dst) in
          if cps > !bps || (cps = !bps && clv > !blv) then begin
            bps := cps;
            blv := clv;
            bnext := dst
          end;
          deep := imax !deep (lv + r.deep.(dst));
          e := g.e_next.(!e)
        done;
        r.ps.(v) <- !bps;
        r.lv.(v) <- !blv;
        r.next.(v) <- !bnext;
        r.deep.(v) <- !deep;
        Bytes.set state v '\002'
  in
  for v = 0 to n - 1 do
    if has g v f_present then down v
  done;
  r

let fmax_of_ps ps = 1e6 /. float_of_int (max ps min_period_ps)

(* The graph's size for the [timing] span: the nodes the analysis
   mentions and the edges between them. *)
let graph_size g =
  let nodes = ref 0 in
  for v = 0 to Array.length g.head - 1 do
    if has g v f_present then incr nodes
  done;
  (!nodes, g.edges)

(* Paths launch at declared sources (register outputs, constants, the
   root's inputs, go holes) and at any undriven port, sorted by delay,
   worst first, and on equal delays by (start, end) name. A source with
   no combinational fanout is not a path: the degenerate single-port
   candidates count only when nothing else exists. The worst path per
   distinct endpoint is kept. Names are built only to order the runs of
   equal delay that the selection reaches, and for the kept paths. *)
let graph_timing ?(paths = 5) g =
  let r = longest_paths g in
  let offset v =
    if has g v f_launch then (if has g v f_clocked then t_clk_q else 0)
    else if has g v f_driven then -1
    else 0
  in
  let delay v = offset v + r.ps.(v) in
  let rec last v = if r.next.(v) < 0 then v else last r.next.(v) in
  let candidates ~real =
    let acc = ref [] in
    for v = Array.length g.head - 1 downto 0 do
      if has g v f_present && offset v >= 0 && ((not real) || r.next.(v) >= 0)
      then acc := v :: !acc
    done;
    !acc
  in
  let candidates =
    match candidates ~real:true with [] -> candidates ~real:false | c -> c
  in
  let sorted = Array.of_list candidates in
  Array.stable_sort (fun a b -> Int.compare (delay b) (delay a)) sorted;
  let want = max paths 1 in
  let seen = Bytes.make (Array.length g.head) '\000' in
  let kept = ref [] and n_kept = ref 0 in
  let keep v =
    let e = last v in
    if Bytes.get seen e = '\000' then begin
      Bytes.set seen e '\001';
      kept := v :: !kept;
      incr n_kept
    end
  in
  let i = ref 0 in
  while !n_kept < want && !i < Array.length sorted do
    (* The run of equal delay from [i], less the endpoints already kept:
       only a run of two or more needs names to be ordered. *)
    let d = delay sorted.(!i) in
    let j = ref !i in
    while !j < Array.length sorted && delay sorted.(!j) = d do
      incr j
    done;
    let run =
      List.filter
        (fun v -> Bytes.get seen (last v) = '\000')
        (Array.to_list (Array.sub sorted !i (!j - !i)))
    in
    (match run with
    | [] -> ()
    | [ v ] -> keep v
    | run ->
        List.map (fun v -> (name g v, name g (last v), v)) run
        |> List.stable_sort (fun (s1, e1, _) (s2, e2, _) ->
               match String.compare s1 s2 with
               | 0 -> String.compare e1 e2
               | c -> c)
        |> List.iter (fun (_, _, v) -> if !n_kept < want then keep v));
    i := !j
  done;
  let kept =
    List.rev_map
      (fun v ->
        let rec chain v acc =
          if v < 0 then List.rev acc else chain r.next.(v) (name g v :: acc)
        in
        let ports = chain v [] in
        {
          p_start = List.hd ports;
          p_end = List.nth ports (List.length ports - 1);
          p_delay_ps = delay v;
          p_levels = r.lv.(v);
          p_ports = ports;
        })
      !kept
  in
  let levels = Array.fold_left imax 0 r.deep in
  let delay_ps = if Array.length sorted = 0 then 0 else delay sorted.(0) in
  {
    levels;
    critical = (match kept with [] -> [] | p :: _ -> p.p_ports);
    delay_ps;
    fmax_mhz = fmax_of_ps delay_ps;
    paths = (if paths <= 0 then [] else kept);
  }

let context_timing ?paths ctx =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "timing" @@ fun () ->
  let g = build ctx (entry ctx) in
  if Calyx_telemetry.Runtime.on () then begin
    let nodes, edges = graph_size g in
    Calyx_telemetry.Trace.add_metric "nodes" (float_of_int nodes);
    Calyx_telemetry.Trace.add_metric "edges" (float_of_int edges)
  end;
  let t = graph_timing ?paths g in
  if Calyx_telemetry.Runtime.on () then begin
    Calyx_telemetry.Trace.add_metric "delay_ps" (float_of_int t.delay_ps);
    Calyx_telemetry.Trace.add_metric "levels" (float_of_int t.levels)
  end;
  t
let context_depth ctx = graph_timing ~paths:1 (build ctx (entry ctx))

let period_ps r = max r.delay_ps min_period_ps
let period_ns r = float_of_int (period_ps r) /. 1000.
let wall_ns r ~cycles = float_of_int cycles *. period_ns r
let slack_ps r ~period_ps = period_ps - r.delay_ps

let port_edges ctx comp =
  let g = build ctx comp in
  let acc = ref [] in
  Array.iteri
    (fun src e ->
      let e = ref e in
      while !e >= 0 do
        acc := (name g src, name g g.e_dst.(!e)) :: !acc;
        e := g.e_next.(!e)
      done)
    g.head;
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
