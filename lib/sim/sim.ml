open Calyx
open Ir
module Tele = Calyx_telemetry

(* Process-wide instruments. Updates sit off the per-slot hot path (one
   per settle / one per run) and are single-branch no-ops when telemetry
   is disabled. *)
let sim_cycles_total =
  Tele.Metrics.counter ~help:"Clock cycles simulated across all runs"
    "calyx_sim_cycles_total"

let fixpoint_iterations_total =
  Tele.Metrics.counter
    ~help:"Jacobi fixpoint iterations of the reference engine"
    "calyx_fixpoint_iterations_total"

let dirty_set_size =
  Tele.Metrics.histogram
    ~help:"Nodes touched per compiled-engine settle"
    ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. ]
    "calyx_sched_dirty_set_size"

exception Timeout of { budget : int; snapshot : string }
exception Conflict of { cycle : int; message : string; snapshot : string }
exception Unstable of { cycle : int; message : string; snapshot : string }

(* Raised deep inside the combinational evaluator, where neither the cycle
   number nor the status snapshot is in scope; [cycle] catches them at the
   root and re-raises the public exceptions with full context. *)
exception Conflict_msg of string
exception Unstable_msg of string

(* ------------------------------------------------------------------ *)
(* Control events (the span-tracing interface of Calyx_obs.Spans)      *)
(* ------------------------------------------------------------------ *)

type ctrl_phase = Ctrl_enter | Ctrl_exit | Ctrl_branch of bool

type ctrl_event = {
  ce_cycle : int;
  ce_instance : string;
  ce_node : int;
  ce_phase : ctrl_phase;
}

type ctrl_sink = ctrl_event -> unit

(* ------------------------------------------------------------------ *)
(* Control interpreter state (the reference semantics of Section 3.4) *)
(* ------------------------------------------------------------------ *)

(* The control program, annotated with its Ir.control_preorder node ids so
   the interpreter can attribute enter/exit/branch events. Built once per
   instance at construction time. *)
type ictrl =
  | IEmpty
  | IEnable of int * string
  | ISeq of int * ictrl list
  | IPar of int * ictrl list
  | IIf of int * string option * port_ref * ictrl * ictrl
  | IWhile of int * string option * port_ref * ictrl
  | IInvoke of int * string

(* Mirrors Ir.control_preorder: non-Empty nodes numbered in pre-order,
   children left to right, then before else. *)
let annotate ctrl =
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let rec go = function
    | Empty -> IEmpty
    | Enable (g, _) -> IEnable (fresh (), g)
    | Seq (cs, _) ->
        let id = fresh () in
        ISeq (id, List.map go cs)
    | Par (cs, _) ->
        let id = fresh () in
        IPar (id, List.map go cs)
    | If { cond_port; cond_group; tbranch; fbranch; _ } ->
        let id = fresh () in
        let t = go tbranch in
        let f = go fbranch in
        IIf (id, cond_group, cond_port, t, f)
    | While { cond_port; cond_group; body; _ } ->
        let id = fresh () in
        IWhile (id, cond_group, cond_port, go body)
    | Invoke { cell; _ } -> IInvoke (fresh (), cell)
  in
  go ctrl

type cstate =
  | CDone
  | CEnable of int * string
  | CSeq of int * cstate * ictrl list  (* current child; remaining children *)
  | CPar of int * cstate list
  | CIfCond of int * string option * port_ref * ictrl * ictrl
  | CIfBody of int * cstate  (* keeps the if open while a branch runs *)
  | CWhileCond of int * string option * port_ref * ictrl
  | CWhileBody of int * cstate * string option * port_ref * ictrl

(* [emit phase id] publishes a control event. The no-op instance serves the
   speculative [cstart] calls made while evaluating the combinational
   fixpoint (control actually starts only at the clock edge, in [commit]). *)
let no_emit (_ : ctrl_phase) (_ : int) = ()

let rec cstart ~emit = function
  | IEmpty -> CDone
  | IEnable (id, g) ->
      emit Ctrl_enter id;
      CEnable (id, g)
  | ISeq (id, cs) ->
      emit Ctrl_enter id;
      seq_next ~emit id cs
  | IPar (id, cs) -> (
      emit Ctrl_enter id;
      match
        List.filter (fun s -> s <> CDone) (List.map (cstart ~emit) cs)
      with
      | [] ->
          emit Ctrl_exit id;
          CDone
      | ss -> CPar (id, ss))
  | IIf (id, cond_group, cond_port, t, f) ->
      emit Ctrl_enter id;
      CIfCond (id, cond_group, cond_port, t, f)
  | IWhile (id, cond_group, cond_port, body) ->
      emit Ctrl_enter id;
      CWhileCond (id, cond_group, cond_port, body)
  | IInvoke (_, cell) ->
      ir_error
        "simulator: invoke of %s is not directly executable; run the \
         compile-invoke pass first (Pipelines.compile does)"
        cell

(* Start the next non-empty child of a seq; exhausting the list closes the
   seq itself. *)
and seq_next ~emit id = function
  | [] ->
      emit Ctrl_exit id;
      CDone
  | c :: rest -> (
      match cstart ~emit c with
      | CDone -> seq_next ~emit id rest
      | s -> CSeq (id, s, rest))

(* Scheduled groups this cycle. The boolean marks whether the group's data
   assignments are gated off while its done hole reads 1 — this mirrors the
   compiled [child[go] = state & !child[done]] encoding and prevents e.g. a
   self-incrementing register group from committing a second write during
   the done-observation cycle. Condition groups of if/while are exempt:
   their done is often combinational (constant 1) and their data
   assignments must be live in the cycle the condition port is read. *)
let rec cactive acc = function
  | CDone -> acc
  | CEnable (_, g) -> (g, true) :: acc
  | CSeq (_, s, _) -> cactive acc s
  | CPar (_, ss) -> List.fold_left cactive acc ss
  | CIfCond (_, Some g, _, _, _) | CWhileCond (_, Some g, _, _) ->
      (g, false) :: acc
  | CIfCond (_, None, _, _, _) | CWhileCond (_, None, _, _) -> acc
  | CIfBody (_, s) -> cactive acc s
  | CWhileBody (_, s, _, _, _) -> cactive acc s

(* Advance the control state at a clock edge. [group_done] reports whether a
   group's done hole read 1 this cycle; [port_true] reads a condition port. *)
let rec cadvance ~emit st ~group_done ~port_true =
  match st with
  | CDone -> CDone
  | CEnable (id, g) ->
      if group_done g then begin
        emit Ctrl_exit id;
        CDone
      end
      else st
  (* Wrapper nodes are rebuilt only when a child actually moved:
     preserving physical identity across quiet edges is what lets
     [refresh_entries] skip recomputing the active-group view. *)
  | CSeq (id, s, rest) -> (
      match cadvance ~emit s ~group_done ~port_true with
      | CDone -> seq_next ~emit id rest
      | s' -> if s' == s then st else CSeq (id, s', rest))
  | CPar (id, ss) -> (
      let ss' = List.map (fun s -> cadvance ~emit s ~group_done ~port_true) ss in
      if List.for_all2 (fun a b -> a == b) ss ss' then st
      else
        match List.filter (fun s -> s <> CDone) ss' with
        | [] ->
            emit Ctrl_exit id;
            CDone
        | ss' -> CPar (id, ss'))
  | CIfCond (id, cond, port, t, f) ->
      let resolved = match cond with None -> true | Some g -> group_done g in
      if not resolved then st
      else begin
        let taken = port_true port in
        emit (Ctrl_branch taken) id;
        match cstart ~emit (if taken then t else f) with
        | CDone ->
            emit Ctrl_exit id;
            CDone
        | s -> CIfBody (id, s)
      end
  | CIfBody (id, s) -> (
      match cadvance ~emit s ~group_done ~port_true with
      | CDone ->
          emit Ctrl_exit id;
          CDone
      | s' -> if s' == s then st else CIfBody (id, s'))
  | CWhileCond (id, cond, port, body) ->
      let resolved = match cond with None -> true | Some g -> group_done g in
      if not resolved then st
      else begin
        let truth = port_true port in
        emit (Ctrl_branch truth) id;
        if not truth then begin
          emit Ctrl_exit id;
          CDone
        end
        else
          match cstart ~emit body with
          | CDone -> st (* empty body: re-evaluate the condition next cycle *)
          | s -> CWhileBody (id, s, cond, port, body)
      end
  | CWhileBody (id, s, cond, port, body) -> (
      match cadvance ~emit s ~group_done ~port_true with
      | CDone -> CWhileCond (id, cond, port, body)
      | s' -> if s' == s then st else CWhileBody (id, s', cond, port, body))

(* ------------------------------------------------------------------ *)
(* Compiled per-instance representation                                *)
(* ------------------------------------------------------------------ *)

type engine = [ `Fixpoint | `Compiled ]

let engines : (string * engine) list =
  [ ("fixpoint", `Fixpoint); ("compiled", `Compiled) ]

let engine_name (e : engine) =
  fst (List.find (fun (_, e') -> e' = e) engines)

let default_engine : engine = `Compiled

type compiled_assign = {
  ca_dst : int;
  ca_guard : Bitvec.t array -> bool;
  ca_src : Bitvec.t array -> Bitvec.t;
  ca_reads : int list;  (* slots the guard and source read *)
  ca_text : string Lazy.t;
      (* for conflict diagnostics and plan labels — lazy, since pretty-
         printing thousands of assignments would dominate [create] *)
  ca_ast : assignment;  (* for the compiled engine's partial evaluation *)
}

(* ------------------------------------------------------------------ *)
(* Slot-graph state (see Sched for the graph machinery)               *)
(* ------------------------------------------------------------------ *)

(* One graph node per primitive, child instance, group go hole, and
   assignment. Prim/child nodes push their outputs into the per-slot [base]
   value; assignment nodes compute liveness + value; go nodes compute the
   go hole from the active-entry list. *)
type snode =
  | NPrim of int  (* index into i_prims *)
  | NChild of int  (* index into i_children *)
  | NGo of int  (* group index *)
  | NAssign of int  (* index into s_assigns *)

type sassign = {
  sa_ca : compiled_assign;
  sa_group : int;  (* -1 for continuous assignments *)
  sa_data : bool;  (* a group data assignment (gated while done reads 1) *)
  mutable sa_live : bool;  (* scheduled && guard true, as of the last eval *)
  mutable sa_val : Bitvec.t;  (* driven value while live *)
}

type sstate = {
  s_graph : Sched.t;
  s_nodes : snode array;
  s_assigns : sassign array;
  s_base : Bitvec.t array;
      (* per-slot value from non-assignment producers (component inputs,
         primitive outputs, child outputs, go holes) — zero otherwise *)
  s_writers : int array array;
      (* slot -> indices into s_assigns that statically target it, in the
         reference engine's scan order (continuous, then per group in
         declaration order: dones then datas) *)
  s_live_count : int array;  (* live writers per multi-writer slot *)
  mutable s_suspects : int;  (* slots currently holding >= 2 live writers *)
  s_entries : bool array array;
      (* group index -> gating flags of its active entries, in actives
         order ([||] = inactive); diffed to re-mark on schedule changes *)
  s_group_idx : (string, int) Hashtbl.t;
  s_group_done : int array;  (* group index -> done hole slot *)
  s_group_go_slot : int array;
  s_prim_node : int array;
  s_child_node : int array;
  s_group_nodes : int array array;
      (* group index -> its go node and assignment nodes, re-marked
         whenever the group's active-entry list changes *)
  mutable s_entry_valid : bool;
      (* the fields below describe the lifecycle state the entry view was
         last computed from; [cadvance] preserves physical identity across
         quiet edges, so [s_entry_ctrl == i_ctrl] (plus equal running/go
         flags) proves the view is still current *)
  mutable s_entry_ctrl : cstate;
  mutable s_entry_running : bool;
  mutable s_entry_go : bool;
}

type prim_inst = {
  pi_cell : string;  (* cell name, for test-bench resolution *)
  pi_state : Prim_state.t;
  pi_inputs : (string * int) list;  (* input port name -> slot *)
  pi_outputs : (string * int) list;
}

(* ------------------------------------------------------------------ *)
(* Compiled-engine state (AOT specialization of the slot graph)        *)
(* ------------------------------------------------------------------ *)

type cexec = {
  x_sched : sstate;
      (* the dirty-set schedule over the slot graph; the per-node eval
         is the specialized closure below *)
  x_eval : int -> unit;  (* node id -> its specialized closure *)
  x_commits : (unit -> bool) array;
      (* staged prim clock edges; [true] = outputs may differ next cycle *)
  x_inputs : (Bitvec.t -> unit) array;
      (* per input port, indexed like i_input_slots *)
  x_plan : string Lazy.t;
      (* rendered level plan (golden snapshots) — lazy: rendering walks
         and prints every node, and only tests and [compiled_plan] ask *)
}

type instance = {
  i_comp : component;
  i_path : string;  (* dotted instance path from the entrypoint; root is "" *)
  i_slots : int;  (* number of ports in [i_ports] *)
  i_zeros : Bitvec.t array;  (* per-slot zero values (template) *)
  mutable i_env : Bitvec.t array;
  mutable i_next : Bitvec.t array;
  i_prims : prim_inst array;
  i_children : (string * child) array;
  i_continuous : compiled_assign array;
  i_group_assigns : (string, compiled_assign array * compiled_assign array) Hashtbl.t;
      (* done-hole writes (always live while scheduled), data assignments *)
  i_group_go : (string, int) Hashtbl.t;  (* group -> slot of its go hole *)
  i_group_done : (string, int) Hashtbl.t;
  i_input_slots : (string * int) list;  (* This input ports *)
  i_go_slot : int;  (* slot of the [go] input (read on every settle) *)
  i_output_slots : (string * int) list;
  i_ports : Ports.t;  (* slot numbering: a slot is a port id *)
  i_structured : bool;  (* control program is non-empty *)
  i_ictrl : ictrl;  (* control program annotated with preorder node ids *)
  mutable i_ctrl : cstate;
  mutable i_running : bool;
  mutable i_done_reg : bool;
  mutable i_iters_cycle : int;
      (* evaluation work accumulated this cycle: fixpoint iterations under
         the reference engine, nodes touched under the compiled engine;
         reset at commit *)
  i_max_iters : int;  (* fixpoint iteration / worklist pass budget *)
  i_groups : string array;  (* declaration order (the static scan order) *)
  (* Reusable conflict-check scratch (one slot-indexed "driver table" per
     instance, generation-stamped so clearing is O(1) per cycle). *)
  mutable i_gen : int;
  i_drv_gen : int array;
  i_drv_val : Bitvec.t array;
  i_drv_text : string Lazy.t array;
  mutable i_compiled : cexec option;  (* Some iff built with `Compiled *)
}

and child = {
  c_inst : instance;
  c_input_map : (int * int) array;  (* parent slot of c.in -> child input slot *)
  c_output_map : (int * int) array;  (* child output slot -> parent slot *)
  c_done_parent_slot : int;  (* parent slot of the child's done output *)
  c_buf : Bitvec.t array;  (* reused input buffer, indexed like c_input_map *)
  mutable c_buf_valid : bool;
      (* fixpoint engine: c_buf holds the inputs of the last child eval,
         so an unchanged-input iteration skips re-evaluating the child *)
}

let prim_reader env (pi : prim_inst) name =
  match List.assoc_opt name pi.pi_inputs with
  | Some slot -> env.(slot)
  | None ->
      (* Reading an output during commit (never happens) or a missing port. *)
      raise (Prim_state.Sim_error ("unknown primitive input " ^ name))

let go_slot inst = inst.i_go_slot

(* Groups active in the current cycle, given the lifecycle state. If the
   instance is idle but go is high, control starts this very cycle. *)
let effective_ctrl inst ~go =
  if not inst.i_structured then CDone
  else if inst.i_running then inst.i_ctrl
  else if go then cstart ~emit:no_emit inst.i_ictrl
  else CDone

let active_groups inst ~go = cactive [] (effective_ctrl inst ~go)

(* Conflict detection at the settled point: two active assignments driving
   the same port with different values is undefined behaviour. Shared by
   both engines so the diagnostics are bit-identical. The driver
   table is a generation-stamped per-instance scratch array — bumping
   [i_gen] clears it in O(1). *)
let check_conflicts inst =
  let env = inst.i_env in
  inst.i_gen <- inst.i_gen + 1;
  let gen = inst.i_gen in
  let check ca =
    if ca.ca_guard env then begin
      let v = ca.ca_src env in
      let dst = ca.ca_dst in
      if inst.i_drv_gen.(dst) = gen then begin
        if not (Bitvec.equal v inst.i_drv_val.(dst)) then
          raise
            (Conflict_msg
               (Printf.sprintf
                  "component %s: conflicting drivers in the same cycle:\n  %s\n  %s"
                  inst.i_comp.comp_name
                  (Lazy.force inst.i_drv_text.(dst))
                  (Lazy.force ca.ca_text)))
      end
      else begin
        inst.i_drv_gen.(dst) <- gen;
        inst.i_drv_val.(dst) <- v;
        inst.i_drv_text.(dst) <- ca.ca_text
      end
    end
  in
  let go = Bitvec.is_true env.(go_slot inst) in
  Array.iter check inst.i_continuous;
  List.iter
    (fun (g, gated) ->
      let dones, datas = Hashtbl.find inst.i_group_assigns g in
      Array.iter check dones;
      let live =
        (not gated)
        || not (Bitvec.is_true env.(Hashtbl.find inst.i_group_done g))
      in
      if live then Array.iter check datas)
    (active_groups inst ~go)

(* Conflicts need >= 2 simultaneously-live writers on one slot, so a
   per-slot live count (maintained only for statically multi-written
   slots) tells us when the exact — and comparatively expensive — settled
   check can be skipped. Maintained by the compiled engine's shared-slot
   closures. *)
let live_transition st sa becoming =
  let dst = sa.sa_ca.ca_dst in
  if Array.length st.s_writers.(dst) > 1 then begin
    let c =
      if becoming then st.s_live_count.(dst) + 1
      else st.s_live_count.(dst) - 1
    in
    st.s_live_count.(dst) <- c;
    if becoming && c = 2 then st.s_suspects <- st.s_suspects + 1
    else if (not becoming) && c = 1 then st.s_suspects <- st.s_suspects - 1
  end

(* Recompute which groups the control schedules this cycle and diff
   against the last settle's view; a changed group has its go node and all
   its assignment nodes re-marked. Cheap (one walk of the control state),
   so it runs unconditionally at the top of every compiled-engine
   settle. *)
let refresh_entries inst st =
  let go = Bitvec.is_true inst.i_env.(go_slot inst) in
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
    let ngroups = Array.length inst.i_groups in
    let fresh = Array.make (max ngroups 1) [] in
    List.iter
      (fun (g, gated) ->
        let gi = Hashtbl.find st.s_group_idx g in
        fresh.(gi) <- gated :: fresh.(gi))
      (active_groups inst ~go);
    for gi = 0 to ngroups - 1 do
      let ne = Array.of_list (List.rev fresh.(gi)) in
      if ne <> st.s_entries.(gi) then begin
        st.s_entries.(gi) <- ne;
        Array.iter (Sched.mark_node st.s_graph) st.s_group_nodes.(gi)
      end
    done
  end

let rec build ?(externs : (string * (unit -> Prim_state.t)) list = [])
    ~(engine : engine) ?(max_iters = 1000) ~(path : string) ~ports_of
    (ctx : context) (comp : component) : instance =
  let ports = ports_of comp in
  let id = Ports.id ports in
  let slots = Ports.count ports in
  let zeros =
    Array.init (max slots 1) (fun i ->
        Bitvec.zero (if i < slots then Ports.width_of_id ports i else 1))
  in
  let compile_atom = function
    | Lit v -> fun _ -> v
    | Port p ->
        let i = id p in
        fun env -> env.(i)
  in
  let rec compile_guard = function
    | True -> fun _ -> true
    | Atom a ->
        let f = compile_atom a in
        fun env -> Bitvec.is_true (f env)
    | Cmp (op, a, b) ->
        let fa = compile_atom a and fb = compile_atom b in
        let cmp =
          match op with
          | Eq -> Bitvec.eq
          | Neq -> Bitvec.neq
          | Lt -> Bitvec.lt
          | Gt -> Bitvec.gt
          | Le -> Bitvec.le
          | Ge -> Bitvec.ge
        in
        fun env -> Bitvec.is_true (cmp (fa env) (fb env))
    | And (g1, g2) ->
        let f1 = compile_guard g1 and f2 = compile_guard g2 in
        fun env -> f1 env && f2 env
    | Or (g1, g2) ->
        let f1 = compile_guard g1 and f2 = compile_guard g2 in
        fun env -> f1 env || f2 env
    | Not g ->
        let f = compile_guard g in
        fun env -> not (f env)
  in
  let compile_assign a =
    {
      ca_dst = id a.dst;
      ca_guard = compile_guard a.guard;
      ca_src = compile_atom a.src;
      ca_reads =
        List.filter_map
          (function Port p -> Some (id p) | Lit _ -> None)
          (assignment_atoms a);
      ca_text = lazy (Format.asprintf "%a" Printer.pp_assignment a);
      ca_ast = a;
    }
  in
  let prims = ref [] in
  let children = ref [] in
  List.iter
    (fun c ->
      match c.cell_proto with
      | Prim (name, params) ->
          let cports = Ports.proto_ports ports c.cell_proto in
          let ins =
            List.filter_map
              (fun (p, _, d) ->
                if d = Input then Some (p, id (Cell_port (c.cell_name, p)))
                else None)
              cports
          in
          let outs =
            List.filter_map
              (fun (p, _, d) ->
                if d = Output then Some (p, id (Cell_port (c.cell_name, p)))
                else None)
              cports
          in
          prims :=
            { pi_cell = c.cell_name;
              pi_state = Prim_state.create name params;
              pi_inputs = ins;
              pi_outputs = outs }
            :: !prims
      | Comp name when (find_component ctx name).is_extern <> None -> (
          (* Black-box RTL (Section 6.2): link a registered behavioural
             model, playing the role of the .sv file the real compiler
             links during code generation. *)
          match List.assoc_opt name externs with
          | None ->
              ir_error
                "simulator: extern component %s has no behavioural model \
                 (register one via Sim.create ~externs)"
                name
          | Some make_state ->
              let sub = find_component ctx name in
              let ins =
                List.filter_map
                  (fun pd ->
                    if pd.pd_dir = Input then
                      Some (pd.pd_name, id (Cell_port (c.cell_name, pd.pd_name)))
                    else None)
                  (signature_ports sub)
              in
              let outs =
                List.filter_map
                  (fun pd ->
                    if pd.pd_dir = Output then
                      Some (pd.pd_name, id (Cell_port (c.cell_name, pd.pd_name)))
                    else None)
                  (signature_ports sub)
              in
              prims :=
                { pi_cell = c.cell_name; pi_state = make_state ();
                  pi_inputs = ins; pi_outputs = outs }
                :: !prims)
      | Comp name ->
          let sub = find_component ctx name in
          let child_path =
            if path = "" then c.cell_name else path ^ "." ^ c.cell_name
          in
          let inst =
            build ~externs ~engine ~max_iters ~path:child_path ~ports_of ctx sub
          in
          let input_map =
            List.map
              (fun (p, slot) -> (id (Cell_port (c.cell_name, p)), slot))
              inst.i_input_slots
          in
          let output_map =
            List.map
              (fun (p, slot) -> (slot, id (Cell_port (c.cell_name, p))))
              inst.i_output_slots
          in
          children :=
            ( c.cell_name,
              {
                c_inst = inst;
                c_input_map = Array.of_list input_map;
                c_output_map = Array.of_list output_map;
                c_done_parent_slot = id (Cell_port (c.cell_name, "done"));
                c_buf =
                  Array.of_list
                    (List.map (fun (_, cslot) -> inst.i_zeros.(cslot)) input_map);
                c_buf_valid = false;
              } )
            :: !children)
    comp.cells;
  let group_assigns = Hashtbl.create 16 in
  let group_go = Hashtbl.create 16 in
  let group_done = Hashtbl.create 16 in
  List.iter
    (fun g ->
      let done_slot = id (Hole (g.group_name, "done")) in
      let dones, datas =
        List.partition
          (fun ca -> ca.ca_dst = done_slot)
          (List.map compile_assign g.assigns)
      in
      Hashtbl.replace group_assigns g.group_name
        (Array.of_list dones, Array.of_list datas);
      Hashtbl.replace group_go g.group_name (id (Hole (g.group_name, "go")));
      Hashtbl.replace group_done g.group_name done_slot)
    comp.groups;
  let input_slots =
    List.map (fun pd -> (pd.pd_name, id (This pd.pd_name))) comp.inputs
  in
  let output_slots =
    List.map (fun pd -> (pd.pd_name, id (This pd.pd_name))) comp.outputs
  in
  let inst =
    {
      i_comp = comp;
      i_path = path;
      i_slots = slots;
      i_zeros = zeros;
      i_env = Array.copy zeros;
      i_next = Array.copy zeros;
      i_prims = Array.of_list (List.rev !prims);
      i_children = Array.of_list (List.rev !children);
      i_continuous = Array.of_list (List.map compile_assign comp.continuous);
      i_group_assigns = group_assigns;
      i_group_go = group_go;
      i_group_done = group_done;
      i_input_slots = input_slots;
      i_go_slot = List.assoc "go" input_slots;
      i_output_slots = output_slots;
      i_ports = ports;
      i_structured = comp.control <> Empty;
      i_ictrl = annotate comp.control;
      i_ctrl = CDone;
      i_running = false;
      i_done_reg = false;
      i_iters_cycle = 0;
      i_max_iters = max_iters;
      i_groups = Array.of_list (List.map (fun g -> g.group_name) comp.groups);
      i_gen = 0;
      i_drv_gen = Array.make (max slots 1) 0;
      i_drv_val = Array.copy zeros;
      i_drv_text = Array.make (max slots 1) (lazy "");
      i_compiled = None;
    }
  in
  (match engine with
  | `Compiled -> inst.i_compiled <- Some (compile_instance inst)
  | `Fixpoint -> ());
  inst

(* Construct the dependency graph of one instance: which slots each node
   reads and writes, in the terms Sched expects. *)
and build_sched inst : sstate =
  let ngroups = Array.length inst.i_groups in
  let group_idx = Hashtbl.create 16 in
  Array.iteri (fun gi g -> Hashtbl.replace group_idx g gi) inst.i_groups;
  let group_done =
    Array.map (fun g -> Hashtbl.find inst.i_group_done g) inst.i_groups
  in
  let group_go_slot =
    Array.map (fun g -> Hashtbl.find inst.i_group_go g) inst.i_groups
  in
  (* Assignments in the reference engine's static scan order. *)
  let assigns = ref [] in
  let add ca group data =
    assigns :=
      { sa_ca = ca; sa_group = group; sa_data = data;
        sa_live = false; sa_val = Bitvec.zero 1 }
      :: !assigns
  in
  Array.iter (fun ca -> add ca (-1) false) inst.i_continuous;
  Array.iteri
    (fun gi g ->
      let dones, datas = Hashtbl.find inst.i_group_assigns g in
      Array.iter (fun ca -> add ca gi false) dones;
      Array.iter (fun ca -> add ca gi true) datas)
    inst.i_groups;
  let s_assigns = Array.of_list (List.rev !assigns) in
  let na = Array.length s_assigns in
  let np = Array.length inst.i_prims in
  let nc = Array.length inst.i_children in
  let n = np + nc + ngroups + na in
  let prim_node = Array.init np (fun p -> p) in
  let child_node = Array.init nc (fun c -> np + c) in
  let go_node = Array.init ngroups (fun gi -> np + nc + gi) in
  let assign_node = Array.init na (fun ai -> np + nc + ngroups + ai) in
  let nodes = Array.make (max n 1) (NGo 0) in
  let specs = Array.make (max n 1) ([], []) in
  Array.iteri
    (fun p pi ->
      nodes.(prim_node.(p)) <- NPrim p;
      let reads =
        match Prim_state.comb_inputs pi.pi_state with
        | None -> List.map snd pi.pi_inputs
        | Some names ->
            List.filter_map (fun nm -> List.assoc_opt nm pi.pi_inputs) names
      in
      specs.(prim_node.(p)) <- (reads, List.map snd pi.pi_outputs))
    inst.i_prims;
  Array.iteri
    (fun c (_, ch) ->
      nodes.(child_node.(c)) <- NChild c;
      let reads = Array.to_list (Array.map fst ch.c_input_map) in
      let writes =
        ch.c_done_parent_slot :: Array.to_list (Array.map snd ch.c_output_map)
      in
      specs.(child_node.(c)) <- (reads, writes))
    inst.i_children;
  Array.iteri
    (fun gi _ ->
      nodes.(go_node.(gi)) <- NGo gi;
      (* The go hole depends on the done hole through the gating rule. *)
      specs.(go_node.(gi)) <- ([ group_done.(gi) ], [ group_go_slot.(gi) ]))
    inst.i_groups;
  Array.iteri
    (fun ai sa ->
      nodes.(assign_node.(ai)) <- NAssign ai;
      let reads =
        if sa.sa_data then group_done.(sa.sa_group) :: sa.sa_ca.ca_reads
        else sa.sa_ca.ca_reads
      in
      specs.(assign_node.(ai)) <- (reads, [ sa.sa_ca.ca_dst ]))
    s_assigns;
  let graph = Sched.build ~slots:inst.i_slots ~nodes:(Array.sub specs 0 n) in
  let writer_lists = Array.make (max inst.i_slots 1) [] in
  Array.iteri
    (fun ai sa ->
      writer_lists.(sa.sa_ca.ca_dst) <- ai :: writer_lists.(sa.sa_ca.ca_dst))
    s_assigns;
  let group_nodes = Array.make (max ngroups 1) [||] in
  for gi = 0 to ngroups - 1 do
    let ns = ref [ go_node.(gi) ] in
    Array.iteri
      (fun ai sa -> if sa.sa_group = gi then ns := assign_node.(ai) :: !ns)
      s_assigns;
    group_nodes.(gi) <- Array.of_list !ns
  done;
  let st =
    {
      s_graph = graph;
      s_nodes = nodes;
      s_assigns;
      s_base = Array.copy inst.i_zeros;
      s_writers = Array.map (fun l -> Array.of_list (List.rev l)) writer_lists;
      s_live_count = Array.make (max inst.i_slots 1) 0;
      s_suspects = 0;
      s_entries = Array.make (max ngroups 1) [||];
      s_group_idx = group_idx;
      s_group_done = group_done;
      s_group_go_slot = group_go_slot;
      s_prim_node = prim_node;
      s_child_node = child_node;
      s_group_nodes = group_nodes;
      s_entry_valid = false;
      s_entry_ctrl = CDone;
      s_entry_running = false;
      s_entry_go = false;
    }
  in
  Sched.mark_all st.s_graph;
  st

(* AOT compilation: freeze the instance's levelized slot graph into one
   specialized closure per node (see Compiled for the plan shape), then
   let the dirty-set scheduler (Sched) drive those closures. Settles are
   sparse — dirty buckets, commit-time invalidation, group-entry diffing —
   and each node is cheap: guards and sources are partially evaluated
   against the AST (constant guards fold to always/never, constant
   single-writer assignments fold into the initial env and disappear,
   comparisons compile to alloc-free int64 compares), primitive port
   names are resolved to slot thunks/writers once via
   Prim_state.compile_step, and slot resolution replays the reference
   scan through prefetched writer cells with an early exit instead of
   re-walking index arrays. Cyclic SCCs iterate on the worklist under
   the same divergence budget and message as the fixpoint engine, and
   conflict detection reuses [check_conflicts] gated by the suspect
   count, so error paths stay bit-identical. *)
and compile_instance inst : cexec =
  let st = build_sched inst in
  let env = inst.i_env in
  let zeros = inst.i_zeros in
  let nslots = inst.i_slots in
  let na = Array.length st.s_assigns in
  (* The single sink for every computed slot value: a change enqueues
     the slot's readers. *)
  let wr slot v =
    if not (Bitvec.equal env.(slot) v) then begin
      env.(slot) <- v;
      Sched.mark_slot st.s_graph slot
    end
  in
  (* Slots with a non-assignment producer (component input, primitive
     output, child output or done, go hole). *)
  let has_producer = Array.make (max nslots 1) false in
  List.iter (fun (_, s) -> has_producer.(s) <- true) inst.i_input_slots;
  Array.iter
    (fun pi ->
      List.iter (fun (_, s) -> has_producer.(s) <- true) pi.pi_outputs)
    inst.i_prims;
  Array.iter
    (fun (_, ch) ->
      Array.iter (fun (_, ps) -> has_producer.(ps) <- true) ch.c_output_map;
      has_producer.(ch.c_done_parent_slot) <- true)
    inst.i_children;
  Array.iter (fun s -> has_producer.(s) <- true) st.s_group_go_slot;
  (* Staged per-slot resolvers for slots with assignment writers: the
     last live writer in static scan order wins, else the producer's
     base — the reference engine's last-write-wins scan, with the writer
     records prefetched and an early exit from the back, no allocation. *)
  let resolvers = Array.make (max nslots 1) (fun () -> ()) in
  for slot = 0 to nslots - 1 do
    let ws = st.s_writers.(slot) in
    if Array.length ws > 0 then begin
      let sas = Array.map (fun ai -> st.s_assigns.(ai)) ws in
      let n = Array.length sas in
      let base =
        if has_producer.(slot) then fun () -> st.s_base.(slot)
        else
          let z = zeros.(slot) in
          fun () -> z
      in
      resolvers.(slot) <-
        fun () ->
          let rec last i =
            if i < 0 then base ()
            else if sas.(i).sa_live then sas.(i).sa_val
            else last (i - 1)
          in
          wr slot (last (n - 1))
    end
  done;
  (* A non-assignment producer pushed a value: writer-less slots skip
     the base cell and write the env directly; writer-shadowed slots
     stage the base and re-resolve. *)
  let produce slot =
    if Array.length st.s_writers.(slot) = 0 then fun v -> wr slot v
    else begin
      let r = resolvers.(slot) in
      fun v ->
        if not (Bitvec.equal st.s_base.(slot) v) then begin
          st.s_base.(slot) <- v;
          r ()
        end
    end
  in
  (* Partial evaluation of guards and sources against the AST. Constants
     fold at build time; comparisons between same-width atoms compile to
     alloc-free int64 compares (bitvec payloads are masked, so unsigned
     comparison of the raw values is exact). Width mismatches bail out
     to the generic closure to preserve the runtime Width_error. *)
  let fold_guards = ref 0 and fold_consts = ref 0 and elided = ref 0 in
  let notes = Array.make (max na 1) "" in
  let slot_of = Ports.id inst.i_ports in
  let stage_src = function
    | Lit v ->
        incr fold_consts;
        `Const v
    | Port p ->
        let i = slot_of p in
        `Slot i
  in
  let stage_guard g =
    let exception Bail in
    let atom = function
      | Lit v -> `Const v
      | Port p -> `Slot (slot_of p)
    in
    let width = function
      | `Const v -> Bitvec.width v
      | `Slot i -> Bitvec.width zeros.(i)
    in
    let cmp_i64 = function
      | Eq -> fun x y -> Int64.equal x y
      | Neq -> fun x y -> not (Int64.equal x y)
      | Lt -> fun x y -> Int64.unsigned_compare x y < 0
      | Gt -> fun x y -> Int64.unsigned_compare x y > 0
      | Le -> fun x y -> Int64.unsigned_compare x y <= 0
      | Ge -> fun x y -> Int64.unsigned_compare x y >= 0
    in
    let rec go = function
      | True -> `Const true
      | Atom a -> (
          match atom a with
          | `Const v -> `Const (Bitvec.is_true v)
          | `Slot i -> `Fun (fun () -> Bitvec.is_true env.(i)))
      | Cmp (op, a, b) -> (
          let sa = atom a and sb = atom b in
          if width sa <> width sb then raise Bail;
          let cmp = cmp_i64 op in
          match (sa, sb) with
          | `Const x, `Const y ->
              `Const (cmp (Bitvec.to_int64 x) (Bitvec.to_int64 y))
          | `Const x, `Slot j ->
              let xv = Bitvec.to_int64 x in
              `Fun (fun () -> cmp xv (Bitvec.to_int64 env.(j)))
          | `Slot i, `Const y ->
              let yv = Bitvec.to_int64 y in
              `Fun (fun () -> cmp (Bitvec.to_int64 env.(i)) yv)
          | `Slot i, `Slot j ->
              `Fun
                (fun () ->
                  cmp (Bitvec.to_int64 env.(i)) (Bitvec.to_int64 env.(j))))
      | And (g1, g2) -> (
          match (go g1, go g2) with
          | `Const false, _ | _, `Const false -> `Const false
          | `Const true, s | s, `Const true -> s
          | `Fun f1, `Fun f2 -> `Fun (fun () -> f1 () && f2 ()))
      | Or (g1, g2) -> (
          match (go g1, go g2) with
          | `Const true, _ | _, `Const true -> `Const true
          | `Const false, s | s, `Const false -> s
          | `Fun f1, `Fun f2 -> `Fun (fun () -> f1 () || f2 ()))
      | Not g -> (
          match go g with
          | `Const b -> `Const (not b)
          | `Fun f -> `Fun (fun () -> not (f ())))
    in
    match go g with
    | `Const b ->
        incr fold_guards;
        `Const b
    | s -> s
  in
  let build_assign ai =
    let sa = st.s_assigns.(ai) in
    let ca = sa.sa_ca in
    let dst = ca.ca_dst in
    let guard =
      (* A width-mismatched comparison must keep raising Width_error at
         run time: fall back to the generic compiled guard. *)
      let generic () = `Fun (fun () -> ca.ca_guard env) in
      match ca.ca_ast.guard with
      | True -> `Const true
      | g -> ( try stage_guard g with _ -> generic ())
    in
    let src =
      match stage_src ca.ca_ast.src with
      | `Const v -> fun () -> v
      | `Slot i -> fun () -> env.(i)
    in
    (* Group gating, staged against the entry view [refresh_entries]
       maintains: a done write is live while its group is active, a data
       write unless every entry is gated and the done hole reads 1. *)
    let sched =
      if sa.sa_group < 0 then None
      else if sa.sa_data then begin
        let gi = sa.sa_group in
        let done_slot = st.s_group_done.(gi) in
        Some
          (fun () ->
            let entries = st.s_entries.(gi) in
            Array.length entries > 0
            && (Array.exists not entries
               || not (Bitvec.is_true env.(done_slot))))
      end
      else
        let gi = sa.sa_group in
        Some (fun () -> Array.length st.s_entries.(gi) > 0)
    in
    let note s = notes.(ai) <- notes.(ai) ^ s in
    (match guard with
    | `Const true when ca.ca_ast.guard <> True -> note "  [guard: always]"
    | `Const false -> note "  [guard: never]"
    | _ -> ());
    (match ca.ca_ast.src with Lit _ -> note "  [const src]" | _ -> ());
    if Array.length st.s_writers.(dst) = 1 && not has_producer.(dst) then begin
      (* Single writer, no producer: the slot's value is a pure
         function of drive, so write the env directly. *)
      let z = zeros.(dst) in
      match (sched, guard) with
      | _, `Const false ->
          (* Never drives; env.(dst) stays at its zero initial. *)
          incr elided;
          note "  [elided]";
          fun () -> ()
      | None, `Const true -> (
          match ca.ca_ast.src with
          | Lit v ->
              (* Constant continuous assignment: fold it into the
                 initial env and drop the node from the hot path. *)
              env.(dst) <- v;
              incr elided;
              note "  [folded]";
              fun () -> ()
          | _ -> fun () -> wr dst (src ()))
      | None, `Fun g -> (fun () -> wr dst (if g () then src () else z))
      | Some on, `Const true -> (fun () -> wr dst (if on () then src () else z))
      | Some on, `Fun g ->
          fun () -> wr dst (if on () && g () then src () else z)
    end
    else begin
      (* Shared slot: maintain this writer's live/value cell — the
         sstate's own record, so live transitions feed the suspect count
         that gates the conflict check — and re-resolve the slot. *)
      let resolve = resolvers.(dst) in
      let drive =
        match (sched, guard) with
        | None, `Const b -> fun () -> b
        | None, `Fun g -> g
        | Some on, `Const true -> on
        | Some _, `Const false -> fun () -> false
        | Some on, `Fun g -> fun () -> on () && g ()
      in
      fun () ->
        if drive () then begin
          let v = src () in
          if (not sa.sa_live) || not (Bitvec.equal v sa.sa_val) then begin
            if not sa.sa_live then live_transition st sa true;
            sa.sa_live <- true;
            sa.sa_val <- v;
            resolve ()
          end
        end
        else if sa.sa_live then begin
          live_transition st sa false;
          sa.sa_live <- false;
          resolve ()
        end
    end
  in
  let one1 = Bitvec.one 1 and zero1 = Bitvec.zero 1 in
  let build_go gi =
    (* Mirrors the reference loop: one write per active entry in actives
       order, so the last entry's liveness wins. *)
    let w = produce st.s_group_go_slot.(gi) in
    let done_slot = st.s_group_done.(gi) in
    fun () ->
      let entries = st.s_entries.(gi) in
      w
        (if Array.length entries = 0 then zero1
         else if
           (not entries.(Array.length entries - 1))
           || not (Bitvec.is_true env.(done_slot))
         then one1
         else zero1)
  in
  let stage_read pi name =
    match List.assoc_opt name pi.pi_inputs with
    | Some slot -> fun () -> env.(slot)
    | None ->
        raise (Prim_state.Sim_error ("unknown primitive input " ^ name))
  in
  let build_prim p =
    let pi = inst.i_prims.(p) in
    let writers = List.map (fun (q, slot) -> (q, produce slot)) pi.pi_outputs in
    Prim_state.compile_step pi.pi_state ~read:(stage_read pi)
      ~write:(fun name -> List.assoc_opt name writers)
  in
  let build_child c =
    let _, ch = inst.i_children.(c) in
    (* A structured child's [done] is registered ([i_done_reg]), not its
       combinational [done] output — stage only the registered writer for
       that slot, or the transient internal value would keep re-marking
       the slot's readers every settle. *)
    let outs =
      Array.to_list ch.c_output_map
      |> List.filter_map (fun (cslot, pslot) ->
             if ch.c_inst.i_structured && pslot = ch.c_done_parent_slot then
               None
             else Some (cslot, produce pslot))
      |> Array.of_list
    in
    let done_w =
      if ch.c_inst.i_structured then Some (produce ch.c_done_parent_slot)
      else None
    in
    (* Flat index arrays so the closure's staging loops allocate
       nothing per call. *)
    let in_pslots = Array.map fst ch.c_input_map in
    let out_cslots = Array.map fst outs in
    let out_ws = Array.map snd outs in
    let buf = ch.c_buf in
    fun () ->
      for i = 0 to Array.length in_pslots - 1 do
        buf.(i) <- env.(in_pslots.(i))
      done;
      eval_compiled ch.c_inst buf;
      let cenv = ch.c_inst.i_env in
      for i = 0 to Array.length out_ws - 1 do
        out_ws.(i) cenv.(out_cslots.(i))
      done;
      match done_w with
      | Some w -> w (if ch.c_inst.i_done_reg then one1 else zero1)
      | None -> ()
  in
  let closure_of k =
    match st.s_nodes.(k) with
    | NPrim p -> build_prim p
    | NChild c -> build_child c
    | NGo gi -> build_go gi
    | NAssign ai -> build_assign ai
  in
  let closures = Array.init (Sched.node_count st.s_graph) closure_of in
  let proto_str cell =
    match List.find_opt (fun c -> String.equal c.cell_name cell) inst.i_comp.cells with
    | Some { cell_proto = Prim (n, ps); _ } ->
        Printf.sprintf "%s(%s)" n (String.concat "," (List.map string_of_int ps))
    | Some { cell_proto = Comp n; _ } -> n
    | None -> "?"
  in
  let label k =
    match st.s_nodes.(k) with
    | NPrim p ->
        let pi = inst.i_prims.(p) in
        Printf.sprintf "prim %s : %s" pi.pi_cell (proto_str pi.pi_cell)
    | NChild c ->
        let name, ch = inst.i_children.(c) in
        Printf.sprintf "child %s : %s" name ch.c_inst.i_comp.comp_name
    | NGo gi -> Printf.sprintf "go %s" inst.i_groups.(gi)
    | NAssign ai ->
        let sa = st.s_assigns.(ai) in
        let where =
          if sa.sa_group < 0 then "continuous"
          else
            Printf.sprintf "%s%s" inst.i_groups.(sa.sa_group)
              (if sa.sa_data then "" else " done")
        in
        Printf.sprintf "assign [%s] %s%s" where
          (Lazy.force sa.sa_ca.ca_text)
          notes.(ai)
  in
  {
    x_sched = st;
    x_eval = (fun k -> closures.(k) ());
    x_commits =
      Array.map
        (fun pi -> Prim_state.compile_commit pi.pi_state ~read:(stage_read pi))
        inst.i_prims;
    x_inputs =
      Array.of_list
        (List.map (fun (_, slot) -> produce slot) inst.i_input_slots);
    x_plan =
      lazy
        (Printf.sprintf
           "component %s: %d guards folded, %d constant sources, %d nodes \
            elided\n%s"
           inst.i_comp.comp_name !fold_guards !fold_consts !elided
           (Compiled.render ~label (Compiled.plan st.s_graph)));
  }

(* One settle under the compiled engine: stage the inputs, refresh the
   per-group entry view (diffed, re-marking changed groups' nodes), then
   let the dirty-set scheduler drive the specialized closures in
   level order. Cyclic components iterate on the worklist under the same
   divergence budget and error message as the fixpoint engine. *)
and eval_compiled inst (inputs : Bitvec.t array) =
  let cs =
    match inst.i_compiled with Some cs -> cs | None -> assert false
  in
  let st = cs.x_sched in
  let xi = cs.x_inputs in
  for i = 0 to Array.length xi - 1 do
    xi.(i) inputs.(i)
  done;
  refresh_entries inst st;
  let touched =
    try Sched.run st.s_graph ~eval:cs.x_eval ~max_passes:inst.i_max_iters
    with Sched.Diverged ->
      raise
        (Unstable_msg
           (Printf.sprintf "component %s: combinational fixpoint diverged"
              inst.i_comp.comp_name))
  in
  inst.i_iters_cycle <- inst.i_iters_cycle + touched;
  if Tele.Runtime.on () then
    Tele.Metrics.observe dirty_set_size (float_of_int touched);
  if st.s_suspects > 0 then check_conflicts inst

(* ------------------------------------------------------------------ *)
(* Combinational evaluation                                            *)
(* ------------------------------------------------------------------ *)

let rec eval_comb inst (inputs : Bitvec.t array) =
  (* [inputs] is indexed in the order of [i_input_slots]. *)
  let n = inst.i_slots in
  let changed = ref true in
  let iters = ref 0 in
  while !changed do
    incr iters;
    if !iters > inst.i_max_iters then
      raise
        (Unstable_msg
           (Printf.sprintf "component %s: combinational fixpoint diverged"
              inst.i_comp.comp_name));
    changed := false;
    let old = inst.i_env and next = inst.i_next in
    Array.blit inst.i_zeros 0 next 0 n;
    (* Component inputs. *)
    List.iteri
      (fun i (_, slot) -> next.(slot) <- inputs.(i))
      inst.i_input_slots;
    (* go holes of active groups. *)
    let go = Bitvec.is_true next.(List.assoc "go" inst.i_input_slots) in
    let actives = active_groups inst ~go in
    let group_live (g, gated) =
      (not gated)
      || not (Bitvec.is_true old.(Hashtbl.find inst.i_group_done g))
    in
    List.iter
      (fun ((g, _) as entry) ->
        next.(Hashtbl.find inst.i_group_go g) <-
          (if group_live entry then Bitvec.one 1 else Bitvec.zero 1))
      actives;
    (* Primitive outputs, from the previous iteration's inputs. *)
    Array.iter
      (fun pi ->
        let outs = Prim_state.outputs pi.pi_state ~read:(prim_reader old pi) in
        List.iter
          (fun (p, v) ->
            match List.assoc_opt p pi.pi_outputs with
            | Some slot -> next.(slot) <- v
            | None -> ())
          outs)
      inst.i_prims;
    (* Child component outputs. The input buffer is reused across
       iterations; an iteration that leaves it unchanged skips the child. *)
    Array.iter
      (fun (_, ch) ->
        let recompute = ref (not ch.c_buf_valid) in
        Array.iteri
          (fun i (pslot, _) ->
            let v = old.(pslot) in
            if not (Bitvec.equal ch.c_buf.(i) v) then begin
              ch.c_buf.(i) <- v;
              recompute := true
            end)
          ch.c_input_map;
        if !recompute then begin
          eval_comb ch.c_inst ch.c_buf;
          ch.c_buf_valid <- true
        end;
        Array.iter
          (fun (cslot, pslot) -> next.(pslot) <- ch.c_inst.i_env.(cslot))
          ch.c_output_map;
        (* Structured children report a registered done. *)
        if ch.c_inst.i_structured then
          next.(ch.c_done_parent_slot) <-
            (if ch.c_inst.i_done_reg then Bitvec.one 1 else Bitvec.zero 1))
      inst.i_children;
    (* Active assignments, reading the previous iteration. *)
    let run_assign ca =
      if ca.ca_guard old then next.(ca.ca_dst) <- ca.ca_src old
    in
    Array.iter run_assign inst.i_continuous;
    List.iter
      (fun ((g, _) as entry) ->
        let dones, datas = Hashtbl.find inst.i_group_assigns g in
        Array.iter run_assign dones;
        if group_live entry then Array.iter run_assign datas)
      actives;
    (* Converged? *)
    (try
       for i = 0 to n - 1 do
         if not (Bitvec.equal old.(i) next.(i)) then raise Exit
       done
     with Exit -> changed := true);
    inst.i_env <- next;
    inst.i_next <- old
  done;
  inst.i_iters_cycle <- inst.i_iters_cycle + !iters;
  if Tele.Runtime.on () then
    Tele.Metrics.inc ~by:(float_of_int !iters) fixpoint_iterations_total;
  check_conflicts inst

(* ------------------------------------------------------------------ *)
(* Clock edge                                                          *)
(* ------------------------------------------------------------------ *)

let rec commit ~now ~csink inst =
  inst.i_iters_cycle <- 0;
  let env = inst.i_env in
  (match inst.i_compiled with
  | Some cs ->
      (* Commit-time invalidation: re-mark exactly the nodes whose outputs
         can differ next cycle — primitives whose latched state changed,
         and every child (whose internal control may advance with stable
         inputs). *)
      let st = cs.x_sched in
      let xc = cs.x_commits in
      for p = 0 to Array.length xc - 1 do
        if xc.(p) () then Sched.mark_node st.s_graph st.s_prim_node.(p)
      done;
      let chs = inst.i_children in
      for c = 0 to Array.length chs - 1 do
        let _, ch = chs.(c) in
        commit ~now ~csink ch.c_inst;
        Sched.mark_node st.s_graph st.s_child_node.(c)
      done
  | None ->
      (* Primitive state updates. *)
      Array.iter
        (fun pi -> Prim_state.commit pi.pi_state ~read:(prim_reader env pi))
        inst.i_prims;
      (* Child updates (their env is consistent with the converged parent
         env). *)
      Array.iter
        (fun (_, ch) ->
          commit ~now ~csink ch.c_inst;
          ch.c_buf_valid <- false)
        inst.i_children);
  (* Control lifecycle. The emit closures are only materialized when a
     control sink is attached — on the hot no-sink path every instance
     would otherwise allocate them at every clock edge. *)
  if inst.i_structured then begin
    (* Control that starts because [go] rose was already active during this
       cycle (effective_ctrl runs it speculatively), so its enters carry
       [now]. A node reached by advancement only begins executing next
       cycle: its enter is stamped [now + 1], while the exits and branch
       resolutions that caused the advancement observe this cycle. *)
    let emit_start, emit_adv =
      match csink with
      | None -> (no_emit, no_emit)
      | Some f ->
          let emit_at cycle phase id =
            f
              {
                ce_cycle = cycle;
                ce_instance = inst.i_path;
                ce_node = id;
                ce_phase = phase;
              }
          in
          let emit_start = emit_at now in
          let emit_next = emit_at (now + 1) in
          ( emit_start,
            fun phase id ->
              match phase with
              | Ctrl_enter -> emit_next phase id
              | Ctrl_exit | Ctrl_branch _ -> emit_start phase id )
    in
    let go = Bitvec.is_true env.(go_slot inst) in
    if (not inst.i_running) && go then begin
      inst.i_running <- true;
      inst.i_ctrl <- cstart ~emit:emit_start inst.i_ictrl
    end;
    if inst.i_running then begin
      let group_done g =
        Bitvec.is_true env.(Hashtbl.find inst.i_group_done g)
      in
      let port_true p =
        Bitvec.is_true env.(Ports.id inst.i_ports p)
      in
      inst.i_ctrl <- cadvance ~emit:emit_adv inst.i_ctrl ~group_done ~port_true;
      if inst.i_ctrl = CDone then begin
        inst.i_running <- false;
        inst.i_done_reg <- true
      end
      else inst.i_done_reg <- false
    end
    else inst.i_done_reg <- false
  end

(* ------------------------------------------------------------------ *)
(* Observation (the event-sink interface of calyx_obs)                 *)
(* ------------------------------------------------------------------ *)

type signal_kind =
  | Sig_this of string
  | Sig_hole of string * string
  | Sig_cell of string * string

type signal = {
  sig_path : string;
  sig_width : int;
  sig_instance : string;
  sig_kind : signal_kind;
}

type event = {
  ev_cycle : int;
  ev_values : Bitvec.t array;
  ev_active : (string * string) list;
  ev_iters : int;
}

type sink = event -> unit

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  root : instance;
  inputs : Bitvec.t array;  (* indexed like root.i_input_slots *)
  mutable finished : bool;
  mutable cycles : int;  (* clock edges since creation *)
  mutable sink : sink option;
  mutable ctrl_sink : ctrl_sink option;
  mutable probes : (signal array * (instance * int) array) option;
      (* built on demand: flattened signal metadata + where to read each *)
}

let create ?externs ?(engine = default_engine) ?(max_fixpoint_iters = 1000) ctx
    =
  Tele.Trace.with_span ~cat:"stage" "sim-build" @@ fun () ->
  let comp = entry ctx in
  let root =
    build ?externs ~engine ~max_iters:max_fixpoint_iters ~path:""
      ~ports_of:(Ports.tables ctx) ctx comp
  in
  let inputs =
    Array.of_list
      (List.map
         (fun (name, _) ->
           Bitvec.zero
             (List.find (fun pd -> pd.pd_name = name) comp.inputs).pd_width)
         root.i_input_slots)
  in
  {
    root;
    inputs;
    finished = false;
    cycles = 0;
    sink = None;
    ctrl_sink = None;
    probes = None;
  }

(* Flattened views of the instance hierarchy. Instance paths are dotted
   cell names from the entrypoint (the root's path is ""). *)

let strip_prefix prefix =
  if prefix = "" then "" else String.sub prefix 0 (String.length prefix - 1)

let build_probes t =
  let rec walk prefix inst acc =
    let inst_path = strip_prefix prefix in
    let acc = ref acc in
    for slot = 0 to inst.i_slots - 1 do
      let kind, local =
        match Ports.port inst.i_ports slot with
        | This n -> (Sig_this n, n)
        | Hole (g, h) -> (Sig_hole (g, h), g ^ "." ^ h)
        | Cell_port (c, q) -> (Sig_cell (c, q), c ^ "." ^ q)
      in
      acc :=
        ( {
            sig_path = prefix ^ local;
            sig_width = Bitvec.width inst.i_zeros.(slot);
            sig_instance = inst_path;
            sig_kind = kind;
          },
          (inst, slot) )
        :: !acc
    done;
    Array.fold_left
      (fun acc (name, ch) -> walk (prefix ^ name ^ ".") ch.c_inst acc)
      !acc inst.i_children
  in
  let entries = List.rev (walk "" t.root []) in
  (Array.of_list (List.map fst entries), Array.of_list (List.map snd entries))

let probes t =
  match t.probes with
  | Some p -> p
  | None ->
      let p = build_probes t in
      t.probes <- Some p;
      p

let signals t = fst (probes t)

let instances t =
  let rec walk prefix inst acc =
    let acc = (strip_prefix prefix, inst.i_comp.comp_name) :: acc in
    Array.fold_left
      (fun acc (name, ch) -> walk (prefix ^ name ^ ".") ch.c_inst acc)
      acc inst.i_children
  in
  List.rev (walk "" t.root [])

let set_sink t sink =
  t.sink <- sink;
  (* Pre-build the probe index so the first observed cycle is not slower
     than the rest. *)
  if sink <> None then ignore (probes t)

(* Compose with whatever sink is already installed, so independent
   observers (a VCD tracer, a profiler, a coverage collector) can attach to
   the same simulation without knowing about each other. Installed sinks
   run in attachment order. *)
let add_sink t sink =
  match t.sink with
  | None -> set_sink t (Some sink)
  | Some prev ->
      set_sink t
        (Some
           (fun ev ->
             prev ev;
             sink ev))

let set_ctrl_sink t sink = t.ctrl_sink <- sink

let add_ctrl_sink t sink =
  t.ctrl_sink <-
    (match t.ctrl_sink with
    | None -> Some sink
    | Some prev ->
        Some
          (fun ev ->
            prev ev;
            sink ev))

let cycles_elapsed t = t.cycles

let capture_values t =
  let _, slots = probes t in
  Array.map (fun (inst, slot) -> inst.i_env.(slot)) slots

let instance_go inst =
  Bitvec.is_true inst.i_env.(List.assoc "go" inst.i_input_slots)

let collect_active t =
  let rec walk prefix inst acc =
    let acc =
      if not inst.i_structured then acc
      else
        let inst_path = strip_prefix prefix in
        List.fold_left
          (fun acc (g, _) -> (inst_path, g) :: acc)
          acc
          (active_groups inst ~go:(instance_go inst))
    in
    Array.fold_left
      (fun acc (name, ch) -> walk (prefix ^ name ^ ".") ch.c_inst acc)
      acc inst.i_children
  in
  List.rev (walk "" t.root [])

let rec total_iters inst =
  Array.fold_left
    (fun acc (_, ch) -> acc + total_iters ch.c_inst)
    inst.i_iters_cycle inst.i_children

(* ------------------------------------------------------------------ *)
(* Status snapshots (Timeout debugging)                                *)
(* ------------------------------------------------------------------ *)

let rec cstate_to_string = function
  | CDone -> "done"
  | CEnable (_, g) -> g
  | CSeq (_, s, rest) -> (
      match List.length rest with
      | 0 -> Printf.sprintf "seq(%s)" (cstate_to_string s)
      | n -> Printf.sprintf "seq(%s; +%d more)" (cstate_to_string s) n)
  | CPar (_, ss) ->
      "par{" ^ String.concat " | " (List.map cstate_to_string ss) ^ "}"
  | CIfCond (_, _, p, _, _) -> Format.asprintf "if(%a?)" pp_port_ref p
  | CIfBody (_, s) -> Printf.sprintf "if{%s}" (cstate_to_string s)
  | CWhileCond (_, _, p, _) -> Format.asprintf "while(%a?)" pp_port_ref p
  | CWhileBody (_, s, _, p, _) ->
      Format.asprintf "while(%a){%s}" pp_port_ref p (cstate_to_string s)

let status t =
  let buf = Buffer.create 256 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  add "simulation state after %d cycles:" t.cycles;
  let rec walk path inst =
    let name = if path = "" then "<entry>" else path in
    if inst.i_structured then begin
      let state =
        if inst.i_running then "running " ^ cstate_to_string inst.i_ctrl
        else if inst.i_done_reg then "presenting done"
        else "idle"
      in
      add "  %s (component %s): %s" name inst.i_comp.comp_name state;
      List.iter
        (fun (g, _) ->
          match find_group_opt inst.i_comp g with
          | None -> add "    active group %s" g
          | Some grp ->
              List.iter
                (fun a ->
                  if equal_port_ref a.dst (Hole (g, "done")) then
                    add "    active group %s: waiting on %s" g
                      (Format.asprintf "%a" Printer.pp_assignment a))
                grp.assigns)
        (active_groups inst ~go:(instance_go inst))
    end
    else begin
      add "  %s (component %s): flat netlist" name inst.i_comp.comp_name;
      List.iter
        (fun a ->
          if equal_port_ref a.dst (This "done") then
            add "    done wiring: %s"
              (Format.asprintf "%a" Printer.pp_assignment a))
        inst.i_comp.continuous;
      Array.iter
        (fun pi ->
          if
            String.length pi.pi_cell >= 3
            && String.sub pi.pi_cell 0 3 = "fsm"
          then
            try
              add "    fsm register %s = %s" pi.pi_cell
                (Bitvec.to_string (Prim_state.get_register pi.pi_state))
            with Prim_state.Sim_error _ -> ())
        inst.i_prims
    end;
    Array.iter
      (fun (n, ch) ->
        walk (if path = "" then n else path ^ "." ^ n) ch.c_inst)
      inst.i_children
  in
  walk "" t.root;
  Buffer.contents buf

let set_input t name v =
  let rec go i = function
    | [] -> ir_error "no input port %s" name
    | (n, _) :: _ when String.equal n name -> t.inputs.(i) <- v
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.root.i_input_slots

let read_output t name =
  match List.assoc_opt name t.root.i_output_slots with
  | Some slot ->
      if String.equal name "done" && t.root.i_structured then
        if t.root.i_done_reg then Bitvec.one 1 else Bitvec.zero 1
      else t.root.i_env.(slot)
  | None -> ir_error "no output port %s" name

let engine t : engine =
  match t.root.i_compiled with Some _ -> `Compiled | None -> `Fixpoint

(* The rendered level plans of the whole instance tree (compiled engine
   only) — the golden-snapshot view of what was specialized. *)
let compiled_plan t =
  match t.root.i_compiled with
  | None -> None
  | Some _ ->
      let buf = Buffer.create 512 in
      let rec walk inst =
        (match inst.i_compiled with
        | Some cs -> Buffer.add_string buf (Lazy.force cs.x_plan)
        | None -> ());
        Array.iter (fun (_, ch) -> walk ch.c_inst) inst.i_children
      in
      walk t.root;
      Some (Buffer.contents buf)

let cycle t =
  (try
     match t.root.i_compiled with
     | Some _ -> eval_compiled t.root t.inputs
     | None -> eval_comb t.root t.inputs
   with
  | Conflict_msg message ->
      raise (Conflict { cycle = t.cycles; message; snapshot = status t })
  | Unstable_msg message ->
      raise (Unstable { cycle = t.cycles; message; snapshot = status t }));
  (* Observation point: the combinational fixpoint has settled, state has
     not yet committed — the values "on the wires" during this cycle. *)
  (match t.sink with
  | None -> ()
  | Some sink ->
      sink
        {
          ev_cycle = t.cycles;
          ev_values = capture_values t;
          ev_active = collect_active t;
          ev_iters = total_iters t.root;
        });
  let flat_done =
    (not t.root.i_structured)
    && Bitvec.is_true
         t.root.i_env.(List.assoc "done" t.root.i_output_slots)
  in
  commit ~now:t.cycles ~csink:t.ctrl_sink t.root;
  let structured_done =
    t.root.i_structured && t.root.i_done_reg
  in
  if flat_done || structured_done then t.finished <- true;
  t.cycles <- t.cycles + 1

let done_seen t = t.finished

let run ?(max_cycles = 5_000_000) t =
  Tele.Trace.with_span ~cat:"stage" "sim" @@ fun () ->
  if Tele.Runtime.on () then
    Tele.Trace.add_tag "engine" (engine_name (engine t));
  set_input t "go" (Bitvec.one 1);
  let cycles = ref 0 in
  while (not t.finished) && !cycles < max_cycles do
    cycle t;
    incr cycles
  done;
  if not t.finished then
    raise (Timeout { budget = max_cycles; snapshot = status t });
  if Tele.Runtime.on () then begin
    Tele.Metrics.inc ~by:(float_of_int !cycles) sim_cycles_total;
    Tele.Trace.add_metric "cycles" (float_of_int !cycles)
  end;
  !cycles

(* Hierarchical test-bench access. *)

let rec resolve_prim inst path =
  match String.index_opt path '.' with
  | None ->
      let rec find p =
        if p >= Array.length inst.i_prims then
          ir_error "no primitive cell %s in %s" path inst.i_comp.comp_name
        else if String.equal inst.i_prims.(p).pi_cell path then (inst, p)
        else find (p + 1)
      in
      find 0
  | Some i ->
      let hd = String.sub path 0 i in
      let tl = String.sub path (i + 1) (String.length path - i - 1) in
      let ch =
        match
          Array.find_opt (fun (n, _) -> String.equal n hd) inst.i_children
        with
        | Some (_, ch) -> ch
        | None -> ir_error "no child instance %s" hd
      in
      resolve_prim ch.c_inst tl

let prim_state_at (inst, p) = inst.i_prims.(p).pi_state

(* A test-bench write changed primitive state behind the scheduler's back;
   mark the primitive so the next settle re-reads its outputs. *)
let touch_prim (inst, p) =
  match inst.i_compiled with
  | Some { x_sched = st; _ } -> Sched.mark_node st.s_graph st.s_prim_node.(p)
  | None -> ()  (* the fixpoint engine re-reads every output *)

let read_register t path =
  Prim_state.get_register (prim_state_at (resolve_prim t.root path))

let write_register t path v =
  let loc = resolve_prim t.root path in
  Prim_state.set_register (prim_state_at loc) v;
  touch_prim loc

let read_memory t path =
  Prim_state.get_memory (prim_state_at (resolve_prim t.root path))

let write_memory t path data =
  let loc = resolve_prim t.root path in
  Prim_state.set_memory (prim_state_at loc) data;
  touch_prim loc

let write_memory_ints t path ~width ints =
  write_memory t path
    (Array.of_list (List.map (fun v -> Bitvec.of_int ~width v) ints))

let read_memory_ints t path =
  Array.to_list (Array.map (fun v -> Bitvec.to_int v) (read_memory t path))

let external_memories t =
  List.filter_map
    (fun c ->
      if Attrs.external_mem c.cell_attrs then Some c.cell_name else None)
    t.root.i_comp.cells

(* ------------------------------------------------------------------ *)
(* Engine differential                                                 *)
(* ------------------------------------------------------------------ *)

(* One engine's observation of one program: everything the equivalence
   contract covers, or the error it raised. *)
let observe ~load engine ctx regs mems =
  match
    let sim = create ~engine ctx in
    load sim;
    let events = ref [] in
    set_ctrl_sink sim (Some (fun e -> events := e :: !events));
    let cycles = run ~max_cycles:400_000 sim in
    ( cycles,
      List.map (fun r -> Bitvec.to_int64 (read_register sim r)) regs,
      List.map (fun m -> read_memory_ints sim m) mems,
      List.rev !events )
  with
  | obs -> Ok obs
  | exception Conflict { cycle; message; _ } ->
      Error (Printf.sprintf "conflict at cycle %d: %s" cycle message)
  | exception Unstable { cycle; message; _ } ->
      Error (Printf.sprintf "unstable at cycle %d: %s" cycle message)
  | exception Timeout { budget; _ } ->
      Error (Printf.sprintf "timeout after %d cycles" budget)
  | exception e -> Error (Printexc.to_string e)

let state_cells ctx =
  List.fold_left
    (fun (regs, mems) c ->
      match c.cell_proto with
      | Prim ("std_reg", _) -> (c.cell_name :: regs, mems)
      | Prim (p, _) when String.starts_with ~prefix:"std_mem" p ->
          (regs, c.cell_name :: mems)
      | _ -> (regs, mems))
    ([], []) (entry ctx).cells

let disagreement ?(load = ignore) ctx =
  let regs, mems = state_cells ctx in
  let runs =
    List.map (fun (n, e) -> (n, observe ~load e ctx regs mems)) engines
  in
  let diff (an, a) (bn, b) =
    let where =
      match (a, b) with
      | Ok (ac, _, _, _), Ok (bc, _, _, _) when ac <> bc ->
          Some (Printf.sprintf "cycles %d vs %d" ac bc)
      | Ok (_, ar, _, _), Ok (_, br, _, _) when ar <> br ->
          Some "final registers differ"
      | Ok (_, _, am, _), Ok (_, _, bm, _) when am <> bm ->
          Some "final memories differ"
      | Ok (_, _, _, ae), Ok (_, _, _, be) when ae <> be ->
          Some
            (Printf.sprintf "ctrl events differ (%d vs %d)" (List.length ae)
               (List.length be))
      | Ok _, Ok _ -> None
      | Error ea, Error eb when ea = eb -> None
      | Error ea, Error eb ->
          Some (Printf.sprintf "errors differ: %S vs %S" ea eb)
      | Ok _, Error eb -> Some (Printf.sprintf "ok vs error %S" eb)
      | Error ea, Ok _ -> Some (Printf.sprintf "error %S vs ok" ea)
    in
    Option.map (fun w -> Printf.sprintf "%s vs %s: %s" an bn w) where
  in
  let rec pairs = function
    | [] -> None
    | a :: rest -> (
        match List.find_map (diff a) rest with
        | Some d -> Some d
        | None -> pairs rest)
  in
  pairs runs
