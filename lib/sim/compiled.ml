(* The compiled engine: each component's slot-dependency graph (Sched)
   and every decision about its nodes, planned once per component, and
   per instance the state and closures that evaluate the nodes, driven by
   Sched's dirty-set settle. The engine's state is private to this
   module; an instance reaches it only through the closures [compile]
   returns. *)

open Calyx
open Ir
open Instance
module Tele = Calyx_telemetry

(* A guard partially evaluated against the component: constants fold to
   always/never, the rest is a function of an instance's env, shared by
   every instance. *)
type sguard = SConst of bool | SFun of (Bitvec.t array -> bool)

(* How an assignment node drives its slot. *)
type drive =
  | Elided  (* single writer that never drives: the slot stays zero *)
  | Folded of Bitvec.t
      (* constant continuous single writer: folded into the initial env *)
  | Always
      (* continuous single writer, no producer, guard always true: writes
         its source to the env *)
  | Direct  (* single writer, no producer: writes the env directly *)
  | Shared  (* keeps a live/value cell and re-resolves the slot *)

type sassign = {
  sa_ra : int assignment_;
  sa_group : int;  (* -1 for continuous assignments *)
  sa_data : bool;  (* a group data assignment (gated while done reads 1) *)
  sa_guard : sguard;
  mutable sa_drive : drive;  (* set once, when the plan is built *)
}

(* Everything about the engine that depends only on the component, built
   once per component and shared by its instances. The graph has one
   node per primitive, child instance, group go hole, and assignment,
   numbered in that order: primitive [p] is node [p], child [c] node
   [np + c], group [g]'s go hole node [np + nc + g], and assignment [a]
   node [np + nc + ng + a]. Prim/child nodes push their outputs into the
   per-slot [base] value; assignment nodes compute liveness + value; go
   nodes compute the go hole from the active-entry list. *)
type plan = {
  c_topo : Sched.topo;
  c_assigns : sassign array;  (* in the reference engine's scan order *)
  c_wstart : int array;
  c_writers : int array;
      (* the indices into c_assigns that statically target slot [s] are
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
  s_val : Bitvec.t array;  (* assignment -> driven value while live *)
  s_base : Bitvec.t array;
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
  let go = Bitvec.is_true inst.i_env.(inst.i_plan.p_go_slot) in
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
   comparisons between same-width atoms compile to alloc-free int64
   compares (bitvec payloads are masked, so unsigned comparison of the
   raw values is exact). A width mismatch falls back to the reference
   evaluation, which keeps raising Width_error at run time. *)
exception Bail

let atom_width zeros = function
  | Lit v -> Bitvec.width v
  | Port i -> Bitvec.width zeros.(i)

let cmp_i64 = function
  | Eq -> fun x y -> Int64.equal x y
  | Neq -> fun x y -> not (Int64.equal x y)
  | Lt -> fun x y -> Int64.unsigned_compare x y < 0
  | Gt -> fun x y -> Int64.unsigned_compare x y > 0
  | Le -> fun x y -> Int64.unsigned_compare x y <= 0
  | Ge -> fun x y -> Int64.unsigned_compare x y >= 0

let rec fold_guard zeros = function
  | True -> SConst true
  | Atom (Lit v) -> SConst (Bitvec.is_true v)
  | Atom (Port i) -> SFun (fun env -> Bitvec.is_true env.(i))
  | Cmp (op, a, b) -> (
      if atom_width zeros a <> atom_width zeros b then raise Bail;
      let cmp = cmp_i64 op in
      match (a, b) with
      | Lit x, Lit y -> SConst (cmp (Bitvec.to_int64 x) (Bitvec.to_int64 y))
      | Lit x, Port j ->
          let xv = Bitvec.to_int64 x in
          SFun (fun env -> cmp xv (Bitvec.to_int64 env.(j)))
      | Port i, Lit y ->
          let yv = Bitvec.to_int64 y in
          SFun (fun env -> cmp (Bitvec.to_int64 env.(i)) yv)
      | Port i, Port j ->
          SFun
            (fun env -> cmp (Bitvec.to_int64 env.(i)) (Bitvec.to_int64 env.(j))))
  | And (g1, g2) -> (
      match (fold_guard zeros g1, fold_guard zeros g2) with
      | SConst false, _ | _, SConst false -> SConst false
      | SConst true, s | s, SConst true -> s
      | SFun f1, SFun f2 -> SFun (fun env -> f1 env && f2 env))
  | Or (g1, g2) -> (
      match (fold_guard zeros g1, fold_guard zeros g2) with
      | SConst true, _ | _, SConst true -> SConst true
      | SConst false, s | s, SConst false -> s
      | SFun f1, SFun f2 -> SFun (fun env -> f1 env || f2 env))
  | Not g -> (
      match fold_guard zeros g with
      | SConst b -> SConst (not b)
      | SFun f -> SFun (fun env -> not (f env)))

let stage_guard zeros g =
  match fold_guard zeros g with
  | s -> s
  | exception Bail -> SFun (fun env -> guard_holds env g)

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
   int64 compares). *)
let plan (ip : Instance.plan) : plan =
  let ngroups = Array.length ip.p_groups in
  let nslots = ip.p_slots in
  let fold_guards = ref 0 and fold_consts = ref 0 and elided = ref 0 in
  let stage group data ra =
    let guard =
      match ra.guard with
      | True -> SConst true
      | g -> (
          match stage_guard ip.p_zeros g with
          | SConst _ as s ->
              incr fold_guards;
              s
          | s -> s)
    in
    (match ra.src with Lit _ -> incr fold_consts | Port _ -> ());
    { sa_ra = ra; sa_group = group; sa_data = data; sa_guard = guard;
      sa_drive = Shared }
  in
  (* Assignments in the reference engine's static scan order. *)
  let c_assigns =
    Array.concat
      (Array.map (stage (-1) false) ip.p_continuous
      :: List.concat
           (List.mapi
              (fun g (dones, datas) ->
                [ Array.map (stage g false) dones; Array.map (stage g true) datas ])
              (Array.to_list ip.p_group_assigns)))
  in
  let na = Array.length c_assigns in
  let np = Array.length ip.p_prims in
  let nc = Array.length ip.p_children in
  let first_assign = np + nc + ngroups in
  let edges k ~read ~source ~write =
    if k < np then begin
      let pp = ip.p_prims.(k) in
      Array.iteri (fun i comb -> if comb then read pp.pp_in.(i)) pp.pp_proto.pr_comb;
      Array.iter write pp.pp_out
    end
    else if k < np + nc then begin
      let cp = ip.p_children.(k - np) in
      Array.iter (fun (s, _) -> read s) cp.cp_input_map;
      write cp.cp_done_slot;
      Array.iter (fun (_, s) -> write s) cp.cp_output_map
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
      let sa = c_assigns.(k - first_assign) in
      let ra = sa.sa_ra in
      if sa.sa_data then read ip.p_group_done.(sa.sa_group);
      let reads = guard_atoms ra.guard in
      List.iter (function Port s -> read s | Lit _ -> ()) reads;
      (match ra.src with
      | Port s
        when not (List.exists (function Port r -> r = s | Lit _ -> false) reads)
        ->
          source s
      | _ -> ());
      write ra.dst
    end
  in
  let topo = Sched.build_with ~slots:nslots ~nodes:(first_assign + na) edges in
  let wstart = Array.make (nslots + 1) 0 in
  Array.iter
    (fun sa ->
      let dst = sa.sa_ra.dst in
      wstart.(dst + 1) <- wstart.(dst + 1) + 1)
    c_assigns;
  for s = 1 to nslots do
    wstart.(s) <- wstart.(s) + wstart.(s - 1)
  done;
  let writers = Array.make (max na 1) 0 in
  let fill = Array.sub wstart 0 (max nslots 1) in
  Array.iteri
    (fun ai sa ->
      let dst = sa.sa_ra.dst in
      writers.(fill.(dst)) <- ai;
      fill.(dst) <- fill.(dst) + 1)
    c_assigns;
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
  let group_lists =
    Array.init (max ngroups 1) (fun g -> if g < ngroups then [ np + nc + g ] else [])
  in
  Array.iteri
    (fun ai sa ->
      let dst = sa.sa_ra.dst in
      if sa.sa_group >= 0 then
        group_lists.(sa.sa_group) <-
          (first_assign + ai) :: group_lists.(sa.sa_group);
      if wstart.(dst + 1) - wstart.(dst) = 1 && not has_producer.(dst) then
        sa.sa_drive <-
          (match sa.sa_guard with
          | SConst false ->
              incr elided;
              Elided
          | SConst true when sa.sa_group < 0 -> (
              match sa.sa_ra.src with
              | Lit v ->
                  incr elided;
                  Folded v
              | Port _ -> Always)
          | _ -> Direct))
    c_assigns;
  let fold_guards = !fold_guards and fold_consts = !fold_consts
  and elided = !elided in
  let proto_str cell =
    match Ports.find_cell ip.p_ports cell with
    | Some { cell_proto = Prim (n, ps); _ } ->
        Printf.sprintf "%s(%s)" n (String.concat "," (List.map string_of_int ps))
    | Some { cell_proto = Comp n; _ } -> n
    | None -> "?"
  in
  let notes sa =
    (match sa.sa_guard with
    | SConst true when sa.sa_ra.guard <> True -> "  [guard: always]"
    | SConst false -> "  [guard: never]"
    | _ -> "")
    ^ (match sa.sa_ra.src with Lit _ -> "  [const src]" | Port _ -> "")
    ^
    match sa.sa_drive with
    | Elided -> "  [elided]"
    | Folded _ -> "  [folded]"
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
      let sa = c_assigns.(k - first_assign) in
      let where =
        if sa.sa_group < 0 then "continuous"
        else
          Printf.sprintf "%s%s" ip.p_groups.(sa.sa_group).group_name
            (if sa.sa_data then "" else " done")
      in
      Printf.sprintf "assign [%s] %s%s" where (assign_text ip sa.sa_ra)
        (notes sa)
  in
  {
    c_topo = topo;
    c_assigns;
    c_wstart = wstart;
    c_writers = writers;
    c_has_producer = has_producer;
    c_group_nodes = Array.map Array.of_list group_lists;
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
   shared plan. Primitive port names are resolved to slot thunks/writers
   once via Prim_state.compile_step, and slot resolution replays the
   reference scan over the slot's writers with an early exit instead of
   re-walking every assignment. Children must already be compiled. *)
let compile (cp : plan) inst : compiled =
  let ip = inst.i_plan in
  let env = inst.i_env in
  let zeros = ip.p_zeros in
  let nslots = ip.p_slots in
  let na = Array.length cp.c_assigns in
  let ngroups = Array.length ip.p_groups in
  let graph = Sched.create cp.c_topo in
  let first_assign =
    Array.length ip.p_prims + Array.length ip.p_children + ngroups
  in
  let st =
    {
      s_graph = graph;
      s_live = Array.make (max na 1) false;
      s_val = Array.make (max na 1) (Bitvec.zero 1);
      s_base = Array.copy zeros;
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
  let stage_read ?(on_slot = ignore) pp name =
    match input_slot pp name with
    | slot when slot >= 0 ->
        on_slot slot;
        fun () -> env.(slot)
    | _ ->
        raise (Prim_state.Sim_error ("unknown primitive input " ^ name))
  in
  (* Every primitive's clock edge, staged first so that [wr] knows which
     edges read each slot: [edge_reads] is filled in while the reads are
     staged. A custom model reads by name at run time, after [staging]
     is cleared, and latches at every edge anyway. *)
  let staging = ref true in
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
  let commits =
    Array.mapi
      (fun p pp ->
        let on_slot s =
          if !staging then
            match edge_reads.(s) with
            | q :: _ when q = p -> ()
            | ps -> edge_reads.(s) <- p :: ps
        in
        match
          Prim_state.compile_commit inst.i_prims.(p)
            ~read:(stage_read ~on_slot pp)
        with
        | Some f ->
            enqueue p;
            f
        | None -> fun () -> 0)
      ip.p_prims
  in
  staging := false;
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
  let wr slot v =
    if not (Bitvec.equal env.(slot) v) then begin
      env.(slot) <- v;
      Sched.mark_slot graph slot;
      for i = estart.(slot) to estart.(slot + 1) - 1 do
        enqueue edge_readers.(i)
      done
    end
  in
  (* A slot with assignment writers: the last live writer in static scan
     order wins, else the producer's base — the reference engine's
     last-write-wins scan, with an early exit from the back, no
     allocation. *)
  let resolve slot =
    let first = wstart.(slot) in
    let i = ref (wstart.(slot + 1) - 1) in
    while !i >= first && not st.s_live.(writers.(!i)) do
      decr i
    done;
    wr slot
      (if !i >= first then st.s_val.(writers.(!i))
       else if has_producer.(slot) then st.s_base.(slot)
       else zeros.(slot))
  in
  (* A non-assignment producer pushed a value: writer-less slots skip
     the base cell and write the env directly; writer-shadowed slots
     stage the base and re-resolve. *)
  let produce slot =
    if writer_count cp slot = 0 then fun v -> wr slot v
    else fun v ->
      if not (Bitvec.equal st.s_base.(slot) v) then begin
        st.s_base.(slot) <- v;
        resolve slot
      end
  in
  (* Group gating, against the entry view [refresh_entries] maintains: a
     done write is live while its group is active, a data write unless
     every entry is gated and the done hole reads 1. *)
  let scheduled sa =
    let g = sa.sa_group in
    g < 0
    ||
    let entries = st.s_entries.(g) in
    Array.length entries > 0
    && ((not sa.sa_data)
       || Array.exists not entries
       || not (Bitvec.is_true env.(ip.p_group_done.(g))))
  in
  let drives sa =
    scheduled sa && match sa.sa_guard with SConst b -> b | SFun g -> g env
  in
  (* Every assignment records in [blocked] whether it drives, so that
     Sched skips it on a source change while it does not. *)
  let eval_assign k ai =
    let sa = cp.c_assigns.(ai) in
    let dst = sa.sa_ra.dst in
    match sa.sa_drive with
    | Elided | Folded _ -> ()
    | Always -> wr dst (atom_value env sa.sa_ra.src)
    | Direct ->
        (* Single writer, no producer: the slot's value is a pure
           function of drive, so write the env directly. *)
        let d = drives sa in
        blocked.(k) <- not d;
        wr dst (if d then atom_value env sa.sa_ra.src else zeros.(dst))
    | Shared ->
        (* Shared slot: maintain this writer's live/value cell — live
           transitions feed the suspect count that gates the conflict
           check — and re-resolve the slot. *)
        let d = drives sa in
        blocked.(k) <- not d;
        if d then begin
          let v = atom_value env sa.sa_ra.src in
          if (not st.s_live.(ai)) || not (Bitvec.equal v st.s_val.(ai)) then begin
            if not st.s_live.(ai) then live_transition cp st dst true;
            st.s_live.(ai) <- true;
            st.s_val.(ai) <- v;
            resolve dst
          end
        end
        else if st.s_live.(ai) then begin
          live_transition cp st dst false;
          st.s_live.(ai) <- false;
          resolve dst
        end
  in
  (* A never-driving writer starts blocked; a folded one's constant is
     the slot's initial value. *)
  Array.iteri
    (fun ai sa ->
      match sa.sa_drive with
      | Elided -> blocked.(first_assign + ai) <- true
      | Folded v -> env.(sa.sa_ra.dst) <- v
      | Always | Direct | Shared -> ())
    cp.c_assigns;
  let one1 = Bitvec.one 1 and zero1 = Bitvec.zero 1 in
  let build_go g =
    (* Mirrors the reference loop: one write per active entry in actives
       order, so the last entry's liveness wins. *)
    let w = produce ip.p_group_go.(g) in
    let done_slot = ip.p_group_done.(g) in
    fun () ->
      let entries = st.s_entries.(g) in
      w
        (if Array.length entries = 0 then zero1
         else if
           (not entries.(Array.length entries - 1))
           || not (Bitvec.is_true env.(done_slot))
         then one1
         else zero1)
  in
  let build_prim p =
    let pp = ip.p_prims.(p) in
    Prim_state.compile_step inst.i_prims.(p) ~read:(stage_read pp)
      ~write:(fun name ->
        match output_slot pp name with
        | slot when slot >= 0 -> Some (produce slot)
        | _ -> None)
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
      Array.to_list chp.cp_output_map
      |> List.filter_map (fun (cslot, pslot) ->
             if structured && pslot = chp.cp_done_slot then None
             else Some (cslot, produce pslot))
      |> Array.of_list
    in
    let done_w =
      if structured then Some (produce chp.cp_done_slot) else None
    in
    (* Flat index arrays so the closure's staging loops allocate
       nothing per call. *)
    let in_pslots = Array.map fst chp.cp_input_map in
    let out_cslots = Array.map fst outs in
    let out_ws = Array.map snd outs in
    let buf = ch.c_buf in
    let child_settle =
      match ch.c_inst.i_compiled with
      | Some x -> x.x_settle
      | None -> assert false
    in
    fun () ->
      for i = 0 to Array.length in_pslots - 1 do
        buf.(i) <- env.(in_pslots.(i))
      done;
      child_settle buf;
      let cenv = ch.c_inst.i_env in
      for i = 0 to Array.length out_ws - 1 do
        out_ws.(i) cenv.(out_cslots.(i))
      done;
      match done_w with
      | Some w -> w (if ch.c_inst.i_done_reg then one1 else zero1)
      | None -> ()
  in
  let nc = Array.length ip.p_children in
  let closure_of k =
    if k < np then build_prim k
    else if k < np + nc then build_child (k - np)
    else build_go (k - np - nc)
  in
  let closures = Array.init first_assign closure_of in
  let eval k =
    if k >= first_assign then eval_assign k (k - first_assign)
    else closures.(k) ()
  in
  let inputs =
    Array.of_list (List.map (fun (_, slot) -> produce slot) ip.p_input_slots)
  in
  (* One settle: stage the inputs, refresh the per-group entry view, then
     let Sched evaluate the dirty nodes level by level. Cyclic components
     iterate on its worklist under the fixpoint engine's divergence budget
     and message, and the conflict check runs only while some slot has
     two live writers, so error paths stay bit-identical. *)
  let x_settle (values : Bitvec.t array) =
    for i = 0 to Array.length inputs - 1 do
      inputs.(i) values.(i)
    done;
    refresh_entries cp inst st;
    let touched =
      try Sched.run graph ~eval ~max_passes:inst.i_max_iters
      with Sched.Diverged ->
        raise
          (Unstable_msg
             (Printf.sprintf "component %s: combinational fixpoint diverged"
                ip.p_comp.comp_name))
    in
    inst.i_iters_cycle <- inst.i_iters_cycle + touched;
    if Tele.Runtime.on () then
      Tele.Metrics.observe dirty_set_size (float_of_int touched);
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
    if Tele.Runtime.on () then
      Tele.Metrics.observe commit_set_size (float_of_int n);
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
