(* The compiled engine: each component's slot-dependency graph (Sched)
   and every decision about its nodes, planned once per component, and
   per instance the state and closures that evaluate the nodes, driven by
   Sched's dirty-set settle, on the instance's native-int values
   ([Slot.env]). The engine's state is private to this module; an
   instance reaches it only through the closures [compile] returns. *)

open Calyx
open Ir
open Instance

(* A guard partially evaluated against the component: constants fold to
   always/never, the rest is a function of an instance's values, shared
   by every instance. *)
type sguard = SConst of bool | SFun of (Slot.env -> bool)

(* How an assignment node drives its slot. *)
type drive =
  | Elided  (* single writer that never drives: the slot stays zero *)
  | Folded
      (* constant continuous single writer: its constant is the slot's
         initial value *)
  | Always
      (* continuous single writer, no producer, guard always true: writes
         its source to the env *)
  | Direct  (* single writer, no producer: writes the env directly *)
  | Shared  (* keeps a live/value cell and re-resolves the slot *)

(* Everything about the engine that depends only on the component, built
   once per component and shared by its instances. The graph has one
   node per primitive, child instance, group go hole, and assignment,
   numbered in that order: primitive [p] is node [p], child [c] node
   [np + c], group [g]'s go hole node [np + nc + g], and assignment [a]
   node [np + nc + ng + a]. Prim/child nodes push their outputs into the
   per-slot [base] value; assignment nodes compute liveness + value; go
   nodes compute the go hole from the active-entry list.

   Assignment [a] is described by the [a]th element of each of the
   arrays from [c_dst] to [c_guard], assignments numbered in the
   reference engine's scan order. *)
type plan = {
  c_topo : Sched.topo;
  c_dst : int array;  (* the destination slot *)
  c_src : int array;  (* the source slot, or [-1 - v] for a literal [v] *)
  c_drive : drive array;
  c_group : int array;  (* -1 for continuous assignments *)
  c_data : bool array;
      (* a group data assignment (gated while done reads 1) *)
  c_guard : sguard array;  (* the staged guard *)
  c_wstart : int array;
  c_writers : int array;
      (* the assignments that statically target slot [s] are
         [c_writers.(c_wstart.(s))] up to [c_writers.(c_wstart.(s + 1) - 1)],
         in the reference engine's scan order (continuous, then per group
         in declaration order: dones then datas) *)
  c_has_producer : bool array;
      (* slot -> has a non-assignment producer (component input,
         primitive output, child output or done, go hole) *)
  c_group_nodes : int array array;
      (* group index -> its go node and assignment nodes, re-marked
         whenever the group's active-entry list changes *)
  c_text : string Lazy.t;  (* the rendered plan *)
}

(* One instance's engine state. *)
type sstate = {
  s_graph : Sched.t;
  s_live : bool array;
      (* assignment -> scheduled && guard true, as of its last eval *)
  s_val : int array;  (* assignment -> driven value while live *)
  s_base : int array;
      (* per-slot value from non-assignment producers — zero otherwise *)
  s_live_count : int array;  (* live writers per multi-writer slot *)
  mutable s_suspects : int;  (* slots currently holding >= 2 live writers *)
  s_entries : bool array array;
      (* group index -> gating flags of its active entries, in actives
         order ([||] = inactive); diffed to re-mark on schedule changes *)
  mutable s_entry_valid : bool;
      (* the fields below describe the lifecycle state the entry view was
         last computed from; [cadvance] preserves physical identity across
         quiet edges, so [s_entry_ctrl == i_ctrl] (plus equal running/go
         flags) proves the view is still current *)
  mutable s_entry_ctrl : cstate;
  mutable s_entry_running : bool;
  mutable s_entry_go : bool;
}

(* Conflicts need >= 2 simultaneously-live writers on one slot, so a
   per-slot live count (maintained only for statically multi-written
   slots) tells us when the exact — and comparatively expensive — settled
   check can be skipped. Maintained by the shared-slot assignments. *)
let writer_count cp slot = cp.c_wstart.(slot + 1) - cp.c_wstart.(slot)

let live_transition cp st dst becoming =
  if writer_count cp dst > 1 then begin
    let c =
      if becoming then st.s_live_count.(dst) + 1
      else st.s_live_count.(dst) - 1
    in
    st.s_live_count.(dst) <- c;
    if becoming && c = 2 then st.s_suspects <- st.s_suspects + 1
    else if (not becoming) && c = 1 then st.s_suspects <- st.s_suspects - 1
  end

(* Writes a list backwards into [a], its head at [i]. *)
let rec fill_down a i = function
  | [] -> ()
  | x :: rest ->
      a.(i) <- x;
      fill_down a (i - 1) rest

(* Recompute which groups the control schedules this cycle and diff
   against the last settle's view; a changed group has its go node and all
   its assignment nodes re-marked. Cheap (one walk of the control state),
   so it runs unconditionally at the top of every settle. *)
let refresh_entries cp inst st =
  let go = inst.i_env.ints.(inst.i_plan.p_go_slot) <> 0 in
  (* The active-group view is a pure function of (running, ctrl, go), and
     control only moves at clock edges — on the quiet settles in between
     this degenerates to three compares. *)
  if
    st.s_entry_valid && st.s_entry_ctrl == inst.i_ctrl
    && st.s_entry_running = inst.i_running
    && st.s_entry_go = go
  then ()
  else begin
    st.s_entry_valid <- true;
    st.s_entry_ctrl <- inst.i_ctrl;
    st.s_entry_running <- inst.i_running;
    st.s_entry_go <- go;
    let ngroups = Array.length inst.i_plan.p_groups in
    let fresh = Array.make (max ngroups 1) [] in
    List.iter
      (fun (g, gated) -> fresh.(g) <- gated :: fresh.(g))
      (active_groups inst ~go);
    for g = 0 to ngroups - 1 do
      let ne = Array.of_list (List.rev fresh.(g)) in
      if ne <> st.s_entries.(g) then begin
        st.s_entries.(g) <- ne;
        Array.iter (Sched.mark_node st.s_graph) cp.c_group_nodes.(g)
      end
    done
  end

(* Partial evaluation of a guard. Constants fold at build time;
   comparisons between same-width atoms compile to alloc-free native
   compares (slot values are masked and narrow, so signed comparison is
   exact). A width mismatch falls back to the reference evaluation, which
   keeps raising Width_error at run time. *)
exception Bail

let atom_width widths = function
  | Lit v -> Bitvec.width v
  | Port i -> widths.(i)

(* [p op y]: a narrow port against a narrow literal. *)
let cmp_port_lit op i (y : int) : Slot.env -> bool =
  match op with
  | Eq -> fun e -> e.ints.(i) = y
  | Neq -> fun e -> e.ints.(i) <> y
  | Lt -> fun e -> e.ints.(i) < y
  | Gt -> fun e -> e.ints.(i) > y
  | Le -> fun e -> e.ints.(i) <= y
  | Ge -> fun e -> e.ints.(i) >= y

let cmp_ports op i j : Slot.env -> bool =
  match op with
  | Eq -> fun e -> e.ints.(i) = e.ints.(j)
  | Neq -> fun e -> e.ints.(i) <> e.ints.(j)
  | Lt -> fun e -> e.ints.(i) < e.ints.(j)
  | Gt -> fun e -> e.ints.(i) > e.ints.(j)
  | Le -> fun e -> e.ints.(i) <= e.ints.(j)
  | Ge -> fun e -> e.ints.(i) >= e.ints.(j)

(* [x op y] is [y (flip op) x]. *)
let flip = function
  | Lt -> Gt
  | Gt -> Lt
  | Le -> Ge
  | Ge -> Le
  | (Eq | Neq) as op -> op

let rec fold_guard widths = function
  | True -> SConst true
  | Atom (Lit v) -> SConst (Bitvec.is_true v)
  | Atom (Port i) -> SFun (fun e -> e.ints.(i) <> 0)
  | Cmp (op, a, b) as g -> (
      let width = atom_width widths a in
      if width <> atom_width widths b then raise Bail;
      let lit v = Slot.int_of_bits width v in
      match (a, b) with
      | Lit _, Lit _ -> SConst (guard_holds no_env g)
      | Lit x, Port j -> SFun (cmp_port_lit (flip op) j (lit x))
      | Port i, Lit y -> SFun (cmp_port_lit op i (lit y))
      | Port i, Port j -> SFun (cmp_ports op i j))
  | And (g1, g2) -> (
      match (fold_guard widths g1, fold_guard widths g2) with
      | SConst false, _ | _, SConst false -> SConst false
      | SConst true, s | s, SConst true -> s
      | SFun f1, SFun f2 -> (
          (* The common left operands, a state compare or port, test
             inline: one closure call fewer. [g1] folded, so its widths
             agree. *)
          match g1 with
          | Cmp (Eq, Port i, Lit y) ->
              let y = Slot.int_of_bits widths.(i) y in
              SFun (fun e -> e.ints.(i) = y && f2 e)
          | Atom (Port i) ->
              SFun (fun e -> e.ints.(i) <> 0 && f2 e)
          | _ -> SFun (fun e -> f1 e && f2 e)))
  | Or (g1, g2) -> (
      match (fold_guard widths g1, fold_guard widths g2) with
      | SConst true, _ | _, SConst true -> SConst true
      | SConst false, s | s, SConst false -> s
      | SFun f1, SFun f2 -> SFun (fun e -> f1 e || f2 e))
  | Not g -> (
      match fold_guard widths g with
      | SConst b -> SConst (not b)
      | SFun f -> SFun (fun e -> not (f e)))

let stage_guard widths g =
  match fold_guard widths g with
  | s -> s
  | exception Bail -> SFun (fun env -> guard_holds env g)

(* The slots a guard reads, left to right, each passed to [read]; and
   whether it reads slot [s]. Neither allocates. *)
let atom_reads read = function Port s -> read s | Lit _ -> ()

let rec guard_reads read = function
  | True -> ()
  | Atom a -> atom_reads read a
  | Cmp (_, a, b) ->
      atom_reads read a;
      atom_reads read b
  | And (g1, g2) | Or (g1, g2) ->
      guard_reads read g1;
      guard_reads read g2
  | Not g -> guard_reads read g

let atom_is s = function Port r -> r = s | Lit _ -> false

let rec guard_reads_slot s = function
  | True -> false
  | Atom a -> atom_is s a
  | Cmp (_, a, b) -> atom_is s a || atom_is s b
  | And (g1, g2) | Or (g1, g2) -> guard_reads_slot s g1 || guard_reads_slot s g2
  | Not g -> guard_reads_slot s g

(* The graph as text: per level, its acyclic nodes in ascending order,
   then each cyclic component of the level (in ascending order of its
   largest member) with its members ascending. *)
let render ~label g =
  let n = Sched.node_count g in
  let nlevels = ref 0 in
  for k = 0 to n - 1 do
    nlevels := max !nlevels (Sched.level g k + 1)
  done;
  let acyclic = Array.make (max !nlevels 1) [] in
  let cyclic = Array.make (max !nlevels 1) [] in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 7 in
  for k = n - 1 downto 0 do
    let l = Sched.level g k in
    if Sched.cyclic g k then begin
      let id = Sched.scc g k in
      let ms = Option.value ~default:[] (Hashtbl.find_opt members id) in
      if ms = [] then cyclic.(l) <- id :: cyclic.(l);
      Hashtbl.replace members id (k :: ms)
    end
    else acyclic.(l) <- k :: acyclic.(l)
  done;
  let b = Buffer.create 1024 in
  let lines header nodes =
    Buffer.add_string b header;
    List.iter (fun k -> Buffer.add_string b ("  " ^ label k ^ "\n")) nodes
  in
  Buffer.add_string b
    (Printf.sprintf "%d nodes, %d levels, %d cyclic components\n" n !nlevels
       (Hashtbl.length members));
  for l = 0 to !nlevels - 1 do
    if acyclic.(l) <> [] then
      lines (Printf.sprintf "level %d:\n" l) acyclic.(l);
    List.iter
      (fun id ->
        lines
          (Printf.sprintf "level %d (cyclic, iterate):\n" l)
          (Hashtbl.find members id))
      cyclic.(l)
  done;
  Buffer.contents b

(* The component's graph and every decision that does not depend on an
   instance's state: which slots each node reads and writes (in the terms
   Sched expects), the writers of each slot, the staged guards, and how
   each assignment drives. Guards are partially evaluated (constant
   guards fold to always/never, constant single-writer assignments fold
   into the initial env and disappear, comparisons compile to alloc-free
   native compares). *)
let plan (ip : Instance.plan) : plan =
  let ngroups = Array.length ip.p_groups in
  let nslots = ip.p_slots in
  let widths = ip.p_widths in
  let fold_guards = ref 0 and fold_consts = ref 0 and elided = ref 0 in
  (* Assignments in the reference engine's static scan order, each
     array started from a long-lived filler. *)
  let na =
    Array.fold_left
      (fun n (dones, datas) -> n + Array.length dones + Array.length datas)
      (Array.length ip.p_continuous) ip.p_group_assigns
  in
  let ras = Array.make na Instance.no_assign in
  let c_group = Array.make na (-1) and c_data = Array.make na false in
  let next = ref 0 in
  let add group data =
    Array.iter (fun ra ->
        ras.(!next) <- ra;
        c_group.(!next) <- group;
        c_data.(!next) <- data;
        incr next)
  in
  add (-1) false ip.p_continuous;
  Array.iteri
    (fun g (dones, datas) ->
      add g false dones;
      add g true datas)
    ip.p_group_assigns;
  let c_dst = Array.map (fun ra -> ra.dst) ras in
  let c_guard = Array.make na (SConst false) in
  let c_src = Array.make na 0 in
  Array.iteri
    (fun ai ra ->
      (c_guard.(ai) <-
         match ra.guard with
         | True -> SConst true
         | g -> (
             match stage_guard widths g with
             | SConst _ as s ->
                 incr fold_guards;
                 s
             | s -> s));
      c_src.(ai) <-
        (match ra.src with
        | Port s -> s
        | Lit v ->
            incr fold_consts;
            -1 - Slot.int_of_bits widths.(ra.dst) v))
    ras;
  let np = Array.length ip.p_prims in
  let nc = Array.length ip.p_children in
  let first_assign = np + nc + ngroups in
  let edges k ~read ~source ~write =
    if k < np then begin
      let pp = ip.p_prims.(k) in
      let comb = pp.pp_proto.pr_comb in
      for i = 0 to Array.length comb - 1 do
        if comb.(i) then read pp.pp_in.(i)
      done;
      for i = 0 to Array.length pp.pp_out - 1 do
        write pp.pp_out.(i)
      done
    end
    else if k < np + nc then begin
      let cp = ip.p_children.(k - np) in
      for i = 0 to Array.length cp.cp_input_map - 1 do
        read (fst cp.cp_input_map.(i))
      done;
      write cp.cp_done_slot;
      for i = 0 to Array.length cp.cp_output_map - 1 do
        write (snd cp.cp_output_map.(i))
      done
    end
    else if k < first_assign then begin
      (* The go hole depends on the done hole through the gating rule. *)
      let g = k - np - nc in
      read ip.p_group_done.(g);
      write ip.p_group_go.(g)
    end
    else begin
      (* The guard's reads wake the node always, the source's only while
         it drives. The group done hole gates a data write, so it counts
         as a guard read. *)
      let ai = k - first_assign in
      let ra = ras.(ai) in
      if c_data.(ai) then read ip.p_group_done.(c_group.(ai));
      guard_reads read ra.guard;
      (match ra.src with
      | Port s when not (guard_reads_slot s ra.guard) -> source s
      | _ -> ());
      write ra.dst
    end
  in
  let topo = Sched.build_with ~slots:nslots ~nodes:(first_assign + na) edges in
  let wstart = Array.make (nslots + 1) 0 in
  Array.iter (fun dst -> wstart.(dst + 1) <- wstart.(dst + 1) + 1) c_dst;
  for s = 1 to nslots do
    wstart.(s) <- wstart.(s) + wstart.(s - 1)
  done;
  let writers = Array.make (max na 1) 0 in
  let fill = Array.sub wstart 0 (max nslots 1) in
  Array.iteri
    (fun ai dst ->
      writers.(fill.(dst)) <- ai;
      fill.(dst) <- fill.(dst) + 1)
    c_dst;
  let has_producer = Array.make (max nslots 1) false in
  List.iter (fun (_, s) -> has_producer.(s) <- true) ip.p_input_slots;
  Array.iter
    (fun pp -> Array.iter (fun s -> has_producer.(s) <- true) pp.pp_out)
    ip.p_prims;
  Array.iter
    (fun cp ->
      Array.iter (fun (_, ps) -> has_producer.(ps) <- true) cp.cp_output_map;
      has_producer.(cp.cp_done_slot) <- true)
    ip.p_children;
  Array.iter (fun s -> has_producer.(s) <- true) ip.p_group_go;
  let group_lists = Array.make (max ngroups 1) [] in
  for g = 0 to ngroups - 1 do
    group_lists.(g) <- [ np + nc + g ]
  done;
  let c_drive = Array.make na Shared in
  Array.iteri
    (fun ai dst ->
      let group = c_group.(ai) in
      if group >= 0 then
        group_lists.(group) <- (first_assign + ai) :: group_lists.(group);
      if wstart.(dst + 1) - wstart.(dst) = 1 && not has_producer.(dst) then
        c_drive.(ai) <-
          (match c_guard.(ai) with
          | SConst false ->
              incr elided;
              Elided
          | SConst true when group < 0 -> (
              match ras.(ai).src with
              | Lit _ ->
                  incr elided;
                  Folded
              | Port _ -> Always)
          | _ -> Direct))
    c_dst;
  let group_nodes = Array.make (max ngroups 1) [||] in
  Array.iteri (fun g l -> group_nodes.(g) <- Array.of_list l) group_lists;
  let fold_guards = !fold_guards and fold_consts = !fold_consts
  and elided = !elided in
  let proto_str cell =
    match Ports.find_cell ip.p_ports cell with
    | Some { cell_proto = Prim (n, ps); _ } ->
        Printf.sprintf "%s(%s)" n (String.concat "," (List.map string_of_int ps))
    | Some { cell_proto = Comp n; _ } -> n
    | None -> "?"
  in
  let notes ai =
    (match c_guard.(ai) with
    | SConst true when ras.(ai).guard <> True -> "  [guard: always]"
    | SConst false -> "  [guard: never]"
    | _ -> "")
    ^ (match ras.(ai).src with Lit _ -> "  [const src]" | Port _ -> "")
    ^
    match c_drive.(ai) with
    | Elided -> "  [elided]"
    | Folded -> "  [folded]"
    | Always | Direct | Shared -> ""
  in
  let label k =
    if k < np then
      let pp = ip.p_prims.(k) in
      Printf.sprintf "prim %s : %s" pp.pp_cell (proto_str pp.pp_cell)
    else if k < np + nc then
      let cp = ip.p_children.(k - np) in
      Printf.sprintf "child %s : %s" cp.cp_cell cp.cp_plan.p_comp.comp_name
    else if k < first_assign then
      Printf.sprintf "go %s" ip.p_groups.(k - np - nc).group_name
    else
      let ai = k - first_assign in
      let where =
        if c_group.(ai) < 0 then "continuous"
        else
          Printf.sprintf "%s%s" ip.p_groups.(c_group.(ai)).group_name
            (if c_data.(ai) then "" else " done")
      in
      Printf.sprintf "assign [%s] %s%s" where (assign_text ip ras.(ai))
        (notes ai)
  in
  {
    c_topo = topo;
    c_dst;
    c_src;
    c_drive;
    c_group;
    c_data;
    c_guard;
    c_wstart = wstart;
    c_writers = writers;
    c_has_producer = has_producer;
    c_group_nodes = group_nodes;
    (* Lazy: rendering walks and prints every node, and only tests and
       [Sim.compiled_plan] ask. *)
    c_text =
      lazy
        (Printf.sprintf
           "component %s: %d guards folded, %d constant sources, %d nodes \
            elided\n%s"
           ip.p_comp.comp_name fold_guards fold_consts elided
           (render ~label topo));
  }

(* Stage the component's plan over the instance's private state and
   return the engine's entry points: one closure per primitive, child and
   go node, and one function that evaluates any assignment node from the
   shared plan. Primitive port names are resolved to slots via
   Prim_state.compile_step, and slot resolution replays the reference
   scan over the slot's writers with an early exit instead of re-walking
   every assignment. Children must already be compiled. *)
let compile (cp : plan) inst : compiled =
  let ip = inst.i_plan in
  let env = inst.i_env in
  let ints = env.ints in
  let nslots = ip.p_slots in
  let na = Array.length cp.c_dst in
  let ngroups = Array.length ip.p_groups in
  let graph = Sched.create cp.c_topo in
  let first_assign =
    Array.length ip.p_prims + Array.length ip.p_children + ngroups
  in
  let st =
    {
      s_graph = graph;
      s_live = Array.make (max na 1) false;
      s_val = Array.make (max na 1) 0;
      s_base = Array.make (max nslots 1) 0;
      s_live_count = Array.make (max nslots 1) 0;
      s_suspects = 0;
      s_entries = Array.make (max ngroups 1) [||];
      s_entry_valid = false;
      s_entry_ctrl = CDone;
      s_entry_running = false;
      s_entry_go = false;
    }
  in
  Sched.mark_all graph;
  let blocked = Sched.blocked graph in
  let wstart = cp.c_wstart and writers = cp.c_writers in
  let has_producer = cp.c_has_producer in
  (* Every primitive's clock edge, staged first so that [wr] knows which
     edges read each slot: [edge_reads] is filled in while the reads are
     staged. *)
  let edge_reads = Array.make (max nslots 1) [] in
  (* Primitives whose next edge can change their state: set when a slot
     their edge reads changes or their state is poked, and kept while
     the edge is not idempotent. Every primitive but a combinational one
     latches at the first edge. *)
  let np = Array.length ip.p_prims in
  let latch = Array.make np false in
  (* The primitives in [latch], in the order they were set. *)
  let queue = Array.make np 0 in
  let queued = ref 0 in
  let enqueue p =
    if not latch.(p) then begin
      latch.(p) <- true;
      queue.(!queued) <- p;
      incr queued
    end
  in
  (* Where primitive [pp] reads and writes; a clock edge writes
     nothing. *)
  let ports ?(on_slot = ignore) ~write pp =
    {
      Prim_state.env;
      input =
        (fun name ->
          match input_slot pp name with
          | slot when slot >= 0 ->
              on_slot slot;
              slot
          | _ ->
              raise (Prim_state.Sim_error ("unknown primitive input " ^ name)));
      output = output_slot pp;
      write;
    }
  in
  let commits = Array.make np (fun () -> 0) in
  Array.iteri
    (fun p pp ->
      let on_slot s =
        match edge_reads.(s) with
        | q :: _ when q = p -> ()
        | ps -> edge_reads.(s) <- p :: ps
      in
      let ports = ports ~on_slot ~write:(fun _ -> ignore) pp in
      match Prim_state.compile_commit inst.i_prims.(p) ports with
      | Some f ->
          enqueue p;
          commits.(p) <- f
      | None -> ())
    ip.p_prims;
  (* The edges that read slot [s], in staging order, are
     [edge_readers.(estart.(s))] up to [edge_readers.(estart.(s + 1) - 1)]. *)
  let estart = Array.make (nslots + 1) 0 in
  for s = 0 to nslots - 1 do
    estart.(s + 1) <- estart.(s) + List.length edge_reads.(s)
  done;
  let edge_readers = Array.make (max estart.(nslots) 1) 0 in
  for s = 0 to nslots - 1 do
    fill_down edge_readers (estart.(s + 1) - 1) edge_reads.(s)
  done;
  (* The single sink for every computed slot value: a change enqueues
     the slot's readers and the edges that read it. *)
  let changed slot =
    Sched.mark_slot graph slot;
    for i = estart.(slot) to estart.(slot + 1) - 1 do
      enqueue edge_readers.(i)
    done
  in
  let wr slot v =
    if ints.(slot) <> v then begin
      ints.(slot) <- v;
      changed slot
    end
  in
  (* A slot with assignment writers: the last live writer in static scan
     order wins, else the producer's base — the reference engine's
     last-write-wins scan, with an early exit from the back, no
     allocation. *)
  let last_live slot =
    let first = wstart.(slot) in
    let i = ref (wstart.(slot + 1) - 1) in
    while !i >= first && not st.s_live.(writers.(!i)) do
      decr i
    done;
    if !i >= first then writers.(!i) else -1
  in
  let resolve slot =
    let w = last_live slot in
    wr slot
      (if w >= 0 then st.s_val.(w)
       else if has_producer.(slot) then st.s_base.(slot)
       else 0)
  in
  (* A non-assignment producer pushed a value: writer-less slots skip
     the base cell and write the env directly; writer-shadowed slots
     stage the base and re-resolve. *)
  let produce slot =
    if writer_count cp slot = 0 then fun v -> wr slot v
    else fun v ->
      if st.s_base.(slot) <> v then begin
        st.s_base.(slot) <- v;
        resolve slot
      end
  in
  let dsts = cp.c_dst and srcs = cp.c_src in
  let drive = cp.c_drive and groups = cp.c_group and datas = cp.c_data in
  let guards = cp.c_guard in
  (* Group gating, against the entry view [refresh_entries] maintains: a
     done write is live while its group is active, a data write unless
     every entry is gated and the done hole reads 1. *)
  let group_scheduled ai g =
    let entries = st.s_entries.(g) in
    Array.length entries > 0
    && ((not datas.(ai))
       || Array.exists not entries
       || ints.(ip.p_group_done.(g)) = 0)
  in
  let[@inline] drives ai =
    (let g = groups.(ai) in
     g < 0 || group_scheduled ai g)
    &&
    match guards.(ai) with
    | SConst b -> b
    | SFun g -> g env
  in
  let[@inline] src ai =
    let s = srcs.(ai) in
    if s >= 0 then ints.(s) else -1 - s
  in
  (* A writer's live transitions, which feed the suspect count that
     gates the conflict check. *)
  let set_live ai dst =
    if not st.s_live.(ai) then begin
      live_transition cp st dst true;
      st.s_live.(ai) <- true
    end
  in
  let set_dead ai dst =
    live_transition cp st dst false;
    st.s_live.(ai) <- false
  in
  (* Every assignment records in [blocked] whether it drives, so that
     Sched skips it on a source change while it does not. *)
  let eval_assign k ai =
    let dst = dsts.(ai) in
    match drive.(ai) with
    | Elided | Folded -> ()
    | Always -> wr dst (src ai)
    | Direct ->
        (* Single writer, no producer: the slot's value is a pure
           function of drive, so write the env directly. *)
        let d = drives ai in
        blocked.(k) <- not d;
        wr dst (if d then src ai else 0)
    | Shared ->
        (* Shared slot: maintain this writer's live/value cell and
           re-resolve the slot. *)
        let d = drives ai in
        blocked.(k) <- not d;
        if d then begin
          let v = src ai in
          if (not st.s_live.(ai)) || v <> st.s_val.(ai) then begin
            set_live ai dst;
            st.s_val.(ai) <- v;
            resolve dst
          end
        end
        else if st.s_live.(ai) then begin
          set_dead ai dst;
          resolve dst
        end
  in
  (* A never-driving writer starts blocked; a folded one's constant is
     the slot's initial value. *)
  for ai = 0 to na - 1 do
    match drive.(ai) with
    | Elided -> blocked.(first_assign + ai) <- true
    | Folded -> ints.(dsts.(ai)) <- src ai
    | Always | Direct | Shared -> ()
  done;
  let build_go g =
    (* Mirrors the reference loop: one write per active entry in actives
       order, so the last entry's liveness wins. *)
    let w = produce ip.p_group_go.(g) in
    let done_slot = ip.p_group_done.(g) in
    fun () ->
      let entries = st.s_entries.(g) in
      w
        (if Array.length entries = 0 then 0
         else if (not entries.(Array.length entries - 1)) || ints.(done_slot) = 0
         then 1
         else 0)
  in
  let build_prim p =
    let pp = ip.p_prims.(p) in
    Prim_state.compile_step inst.i_prims.(p)
      (ports ~write:produce pp)
  in
  let build_child c =
    let ch = inst.i_children.(c) in
    let chp = ch.c_plan in
    let structured = chp.cp_plan.p_structured in
    (* A structured child's [done] is registered ([i_done_reg]), not its
       combinational [done] output — stage only the registered writer for
       that slot, or the transient internal value would keep re-marking
       the slot's readers every settle. *)
    let outs =
      List.filter
        (fun (_, pslot) -> not (structured && pslot = chp.cp_done_slot))
        (Array.to_list chp.cp_output_map)
    in
    let done_w = if structured then Some (produce chp.cp_done_slot) else None in
    (* Flat index arrays so the closure's staging loops allocate
       nothing per call. *)
    let in_pslots = Array.map fst chp.cp_input_map in
    let out_cslots = Array.of_list (List.map fst outs) in
    let out_ws = Array.of_list (List.map (fun (_, p) -> produce p) outs) in
    let buf = ch.c_buf in
    let bints = buf.ints in
    let cints = ch.c_inst.i_env.ints in
    let child_settle =
      match ch.c_inst.i_compiled with
      | Some x -> x.x_settle
      | None -> assert false
    in
    fun () ->
      for i = 0 to Array.length in_pslots - 1 do
        bints.(i) <- ints.(in_pslots.(i))
      done;
      child_settle buf;
      for i = 0 to Array.length out_ws - 1 do
        out_ws.(i) cints.(out_cslots.(i))
      done;
      match done_w with
      | Some w -> w (if ch.c_inst.i_done_reg then 1 else 0)
      | None -> ()
  in
  let nc = Array.length ip.p_children in
  let closures = Array.make first_assign ignore in
  for k = 0 to first_assign - 1 do
    closures.(k) <-
      (if k < np then build_prim k
       else if k < np + nc then build_child (k - np)
       else build_go (k - np - nc))
  done;
  let eval k =
    if k >= first_assign then eval_assign k (k - first_assign)
    else closures.(k) ()
  in
  (* The inputs' writers, indexed like [p_input_slots]. *)
  let inputs =
    Array.of_list (List.map (fun (_, slot) -> produce slot) ip.p_input_slots)
  in
  (* One settle: stage the inputs, refresh the per-group entry view, then
     let Sched evaluate the dirty nodes level by level. Cyclic components
     iterate on its worklist under the fixpoint engine's divergence budget
     and message, and the conflict check runs only while some slot has
     two live writers, so error paths stay bit-identical. *)
  let x_settle (values : Slot.env) =
    for i = 0 to Array.length inputs - 1 do
      inputs.(i) values.ints.(i)
    done;
    refresh_entries cp inst st;
    let touched =
      try Sched.run graph ~eval ~max_passes:max_settle_iters
      with Sched.Diverged ->
        raise
          (Unstable_msg
             (Printf.sprintf "component %s: combinational fixpoint diverged"
                ip.p_comp.comp_name))
    in
    inst.i_iters_cycle <- inst.i_iters_cycle + touched;
    if st.s_suspects > 0 then check_conflicts inst
  in
  (* The clock edge latches only the primitives in [latch], in ascending
     order. Commit-time invalidation then re-marks exactly the nodes whose
     outputs can differ next cycle — primitives whose latched state
     changed, and every child (whose internal control may advance with
     stable inputs). Primitive [p] is node [p], child [c] node [np + c]. *)
  let x_commit commit_child =
    let n = !queued in
    (* Either order costs at most [np] steps: insertion sort while the
       queue is short, else a walk over [latch] in index order. *)
    if n * n <= np then
      for i = 1 to n - 1 do
        let p = queue.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && queue.(!j) > p do
          queue.(!j + 1) <- queue.(!j);
          decr j
        done;
        queue.(!j + 1) <- p
      done
    else begin
      let k = ref 0 in
      for p = 0 to np - 1 do
        if latch.(p) then begin
          queue.(!k) <- p;
          incr k
        end
      done
    end;
    (* Latch in ascending order; a primitive whose edge must run again
       stays queued, in place. *)
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let p = queue.(i) in
      let r = commits.(p) () in
      if r land Prim_state.edge_again <> 0 then begin
        queue.(!kept) <- p;
        incr kept
      end
      else latch.(p) <- false;
      if r land Prim_state.edge_changed <> 0 then Sched.mark_node graph p
    done;
    queued := !kept;
    inst.i_latched <- inst.i_latched + n;
    for c = 0 to Array.length inst.i_children - 1 do
      commit_child inst.i_children.(c).c_inst;
      Sched.mark_node graph (np + c)
    done
  in
  {
    x_settle;
    x_commit;
    x_touch_prim =
      (fun p ->
        Sched.mark_node graph p;
        enqueue p);
    x_plan = cp.c_text;
  }
