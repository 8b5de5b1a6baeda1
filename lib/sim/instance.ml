(* The simulator's instance model, read by both evaluation engines: one
   record per component instance, its groups numbered once (their index
   in [i_groups], declaration order, which is also the static scan order
   of every settle), and the control interpreter that decides which
   groups run in a cycle (the reference semantics of Section 3.4).

   Sim builds instances and runs the fixpoint reference engine and the
   clock-edge lifecycle over them; Compiled adds the compiled engine to an
   instance as closures over its own private state. Group names appear
   only where something is printed. *)

open Calyx
open Ir
module Tele = Calyx_telemetry

(* The simulator's process-wide instruments, defined here below both
   engines so they register in one fixed order. Updates sit off the
   per-slot hot path (one per settle / one per run) and are single-branch
   no-ops when telemetry is disabled. *)
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

let commit_set_size =
  Tele.Metrics.histogram
    ~help:"Primitives latched per compiled-engine clock edge"
    ~buckets:[ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. ]
    "calyx_sched_commit_set_size"

(* Raised deep inside either engine's settle, where neither the cycle
   number nor the status snapshot is in scope; [Sim.cycle] catches them
   at the root and re-raises the public exceptions with full context. *)
exception Conflict_msg of string
exception Unstable_msg of string

type ctrl_phase = Ctrl_enter | Ctrl_exit | Ctrl_branch of bool

(* ------------------------------------------------------------------ *)
(* Control interpreter state                                           *)
(* ------------------------------------------------------------------ *)

(* The control program, annotated with its Ir.control_preorder node ids so
   the interpreter can attribute enter/exit/branch events, and with group
   indices in place of names. Built once per instance at construction
   time. *)
type ictrl =
  | IEmpty
  | IEnable of int * int
  | ISeq of int * ictrl list
  | IPar of int * ictrl list
  | IIf of int * int option * port_ref * ictrl * ictrl
  | IWhile of int * int option * port_ref * ictrl
  | IInvoke of int * string

(* Mirrors Ir.control_preorder: non-Empty nodes numbered in pre-order,
   children left to right, then before else. [group] maps a group name to
   its index. *)
let annotate ~group ctrl =
  let next = ref 0 in
  let fresh () =
    let id = !next in
    incr next;
    id
  in
  let rec go = function
    | Empty -> IEmpty
    | Enable (g, _) ->
        let id = fresh () in
        IEnable (id, group g)
    | Seq (cs, _) ->
        let id = fresh () in
        ISeq (id, List.map go cs)
    | Par (cs, _) ->
        let id = fresh () in
        IPar (id, List.map go cs)
    | If { cond_port; cond_group; tbranch; fbranch; _ } ->
        let id = fresh () in
        let cond = Option.map group cond_group in
        let t = go tbranch in
        let f = go fbranch in
        IIf (id, cond, cond_port, t, f)
    | While { cond_port; cond_group; body; _ } ->
        let id = fresh () in
        let cond = Option.map group cond_group in
        IWhile (id, cond, cond_port, go body)
    | Invoke { cell; _ } -> IInvoke (fresh (), cell)
  in
  go ctrl

type cstate =
  | CDone
  | CEnable of int * int
  | CSeq of int * cstate * ictrl list  (* current child; remaining children *)
  | CPar of int * cstate list
  | CIfCond of int * int option * port_ref * ictrl * ictrl
  | CIfBody of int * cstate  (* keeps the if open while a branch runs *)
  | CWhileCond of int * int option * port_ref * ictrl
  | CWhileBody of int * cstate * int option * port_ref * ictrl

(* [emit phase id] publishes a control event. The no-op instance serves the
   speculative [cstart] calls made while evaluating the combinational
   fixpoint (control actually starts only at the clock edge, in
   [Sim.commit]). *)
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

(* Scheduled groups this cycle, as [(group index, gated)]. [gated] marks
   whether the group's data assignments are gated off while its done hole
   reads 1 — this mirrors the compiled [child[go] = state & !child[done]]
   encoding and prevents e.g. a self-incrementing register group from
   committing a second write during the done-observation cycle. Condition
   groups of if/while are exempt: their done is often combinational
   (constant 1) and their data assignments must be live in the cycle the
   condition port is read. *)
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
     preserving physical identity across quiet edges is what lets the
     compiled engine skip recomputing its active-group view. *)
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
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

type compiled_assign = {
  ca_dst : int;
  ca_guard : Bitvec.t array -> bool;
  ca_src : Bitvec.t array -> Bitvec.t;
  ca_reads : int list;
      (* slots the source and guard read: the source's first when it is
         a port, then the guard's *)
  ca_text : string Lazy.t;
      (* for conflict diagnostics and plan labels — lazy, since pretty-
         printing thousands of assignments would dominate [create] *)
  ca_ast : assignment;  (* for the compiled engine's partial evaluation *)
}

type prim_inst = {
  pi_cell : string;  (* cell name, for test-bench resolution *)
  pi_state : Prim_state.t;
  pi_inputs : (string * int) list;  (* input port name -> slot *)
  pi_outputs : (string * int) list;
  pi_comb_reads : int list;
      (* the input slots an output reads within one cycle (the inputs of
         Prims.comb_arcs; every input of an extern black box) *)
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
  i_groups : group array;
      (* declaration order: a group's index here is its number everywhere *)
  i_group_assigns : (compiled_assign array * compiled_assign array) array;
      (* per group: done-hole writes (always live while scheduled), data
         assignments *)
  i_group_go : int array;  (* per group: slot of its go hole *)
  i_group_done : int array;  (* per group: slot of its done hole *)
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
  (* Reusable conflict-check scratch (one slot-indexed "driver table" per
     instance, generation-stamped so clearing is O(1) per cycle). *)
  mutable i_gen : int;
  i_drv_gen : int array;
  i_drv_val : Bitvec.t array;
  i_drv_text : string Lazy.t array;
  mutable i_compiled : compiled option;  (* Some iff built with `Compiled *)
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

(* The compiled engine of one instance, as closures over its private
   state (see Compiled). *)
and compiled = {
  x_settle : Bitvec.t array -> unit;
      (* one settle; the inputs are indexed like [i_input_slots] *)
  x_commit : (instance -> unit) -> unit;
      (* the clock edge below the control lifecycle: latch the
         primitives, commit every child with the given function, and
         re-mark the nodes whose outputs may differ next cycle *)
  x_touch_prim : int -> unit;
      (* primitive [p]'s state changed behind the engine's back *)
  x_plan : string Lazy.t;  (* the rendered plan (golden snapshots) *)
}

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
  let go = Bitvec.is_true env.(inst.i_go_slot) in
  Array.iter check inst.i_continuous;
  List.iter
    (fun (g, gated) ->
      let dones, datas = inst.i_group_assigns.(g) in
      Array.iter check dones;
      let live =
        (not gated) || not (Bitvec.is_true env.(inst.i_group_done.(g)))
      in
      if live then Array.iter check datas)
    (active_groups inst ~go)
