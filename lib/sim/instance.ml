(* The simulator's instance model, read by both evaluation engines: one
   plan per component, shared by all its instances (its ports numbered
   as slots, every assignment resolved over them, its groups numbered
   once: their index in [p_groups], declaration order, which is also the
   static scan order of every settle), one record per component instance
   with its own values ([Slot.env]) and state, and the control
   interpreter that decides which groups run in a cycle (the reference
   semantics of Section 3.4).

   Sim builds plans and instances and runs the fixpoint reference engine
   and the clock-edge lifecycle over them; Compiled adds the compiled
   engine to an instance as closures over its own private state. Group
   names appear only where something is printed. *)

open Calyx
open Ir

(* Raised deep inside either engine's settle, where neither the cycle
   number nor the status snapshot is in scope; [Sim.cycle] catches them
   at the root and re-raises the public exceptions with full context. *)
exception Conflict_msg of string
exception Unstable_msg of string

(* The settle budget past which either engine raises [Unstable_msg]:
   Jacobi iterations per cycle under the fixpoint engine, worklist passes
   per cyclic-component member under the compiled engine. *)
let max_settle_iters = 1000

type ctrl_phase = Ctrl_enter | Ctrl_exit | Ctrl_branch of bool

(* ------------------------------------------------------------------ *)
(* Control interpreter state                                           *)
(* ------------------------------------------------------------------ *)

(* The control program, annotated with its Ir.control_preorder node ids so
   the interpreter can attribute enter/exit/branch events, and with group
   indices in place of names. Built once per component, in its plan. *)
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
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(* What every instance of one component shares, resolved once per
   [Sim.create]: its ports numbered as slots (a slot is a port id of
   [p_ports]), every assignment over those slots, the slots of each
   primitive, child and group hole, and the annotated control program.
   Instances read it and never write it. *)

(* One primitive prototype's port names and behavioural model, shared
   by every cell of it. *)
type proto_plan = {
  pr_make : unit -> Prim_state.t;  (* fresh state for one instance *)
  pr_inputs : string array;  (* input port names, in port order *)
  pr_outputs : string array;
  pr_comb : bool array;
      (* per input: an output reads it within one cycle (the inputs of
         Prims.comb_arcs) *)
}

type prim_plan = {
  pp_cell : string;  (* cell name, for test-bench resolution *)
  pp_proto : proto_plan;
  pp_in : int array;  (* the slot of each of [pr_inputs] *)
  pp_out : int array;  (* the slot of each of [pr_outputs] *)
}

type plan = {
  p_comp : component;
  p_ports : Ports.t;
  p_slots : int;  (* number of ports in [p_ports] *)
  p_widths : int array;  (* per-slot width *)
  p_cells : cell_plan array;  (* primitives and children, in cell order *)
  p_prims : prim_plan array;
  p_children : child_plan array;
  p_continuous : int assignment_ array;
  p_groups : group array;
      (* declaration order: a group's index here is its number everywhere *)
  p_group_assigns : (int assignment_ array * int assignment_ array) array;
      (* per group: done-hole writes (always live while scheduled), data
         assignments *)
  p_group_go : int array;  (* per group: slot of its go hole *)
  p_group_done : int array;  (* per group: slot of its done hole *)
  p_input_slots : (string * int) list;  (* This input ports *)
  p_go_slot : int;  (* slot of the [go] input (read on every settle) *)
  p_output_slots : (string * int) list;
  p_structured : bool;  (* control program is non-empty *)
  p_ictrl : ictrl;  (* control program annotated with preorder node ids *)
}

and cell_plan = Prim_cell of int | Child_cell of int

and child_plan = {
  cp_cell : string;
  cp_plan : plan;
  cp_input_map : (int * int) array;  (* parent slot of c.in -> child input slot *)
  cp_output_map : (int * int) array;  (* child output slot -> parent slot *)
  cp_done_slot : int;  (* parent slot of the child's done output *)
}

let atom_value env = function Port i -> Slot.get env i | Lit v -> v

(* The first index of [name] in [names], or -1. *)
let index_of names name =
  let rec go i =
    if i = Array.length names then -1
    else if String.equal names.(i) name then i
    else go (i + 1)
  in
  go 0

(* The slot of a primitive's input or output port, or -1. *)
let input_slot pp name =
  let i = index_of pp.pp_proto.pr_inputs name in
  if i < 0 then -1 else pp.pp_in.(i)

let output_slot pp name =
  let i = index_of pp.pp_proto.pr_outputs name in
  if i < 0 then -1 else pp.pp_out.(i)

(* The reference evaluation of a resolved guard, on Bitvec: what the
   fixpoint engine and the conflict check read, and the compiled engine's
   fallback. *)
let rec guard_holds env = function
  | True -> true
  | Atom a -> Bitvec.is_true (atom_value env a)
  | Cmp (op, a, b) ->
      let cmp =
        match op with
        | Eq -> Bitvec.eq
        | Neq -> Bitvec.neq
        | Lt -> Bitvec.lt
        | Gt -> Bitvec.gt
        | Le -> Bitvec.le
        | Ge -> Bitvec.ge
      in
      Bitvec.is_true (cmp (atom_value env a) (atom_value env b))
  | And (g1, g2) -> guard_holds env g1 && guard_holds env g2
  | Or (g1, g2) -> guard_holds env g1 || guard_holds env g2
  | Not g -> not (guard_holds env g)

let assign_text plan a =
  Format.asprintf "%a" Printer.pp_assignment
    (Ports.assignment_of_ids plan.p_ports a)

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

type instance = {
  i_plan : plan;
  i_path : string;  (* dotted instance path from the entrypoint; root is "" *)
  mutable i_env : Slot.env;  (* every slot's value, read by both engines *)
  mutable i_next : Slot.env;
      (* the fixpoint engine's scratch, made on first use ([no_env]
         until then) *)
  i_prims : Prim_state.t array;  (* indexed like [p_prims] *)
  i_children : child array;  (* indexed like [p_children] *)
  mutable i_ctrl : cstate;
  mutable i_running : bool;
  mutable i_done_reg : bool;
  mutable i_iters_cycle : int;
      (* evaluation work accumulated this cycle: fixpoint iterations under
         the reference engine, nodes touched under the compiled engine;
         folded into [i_evals] at commit *)
  mutable i_evals : int;  (* settle work of every committed cycle *)
  mutable i_latched : int;
      (* primitives latched over every clock edge (compiled engine) *)
  (* Conflict-check scratch (one slot-indexed "driver table" per
     instance, generation-stamped so clearing is O(1) per cycle), made on
     the first check. *)
  mutable i_gen : int;
  mutable i_drivers : drivers option;
  mutable i_compiled : compiled option;  (* Some iff built with `Compiled *)
}

and drivers = {
  d_gen : int array;
  d_val : Bitvec.t array;
  d_by : int assignment_ array;
}

and child = {
  c_plan : child_plan;
  c_inst : instance;
  c_buf : Slot.env;  (* reused input buffer, indexed like cp_input_map *)
  mutable c_buf_valid : bool;
      (* fixpoint engine: c_buf holds the inputs of the last child eval,
         so an unchanged-input iteration skips re-evaluating the child *)
}

(* The compiled engine of one instance, as closures over its private
   state (see Compiled). *)
and compiled = {
  x_settle : Slot.env -> unit;
      (* one settle; the inputs are indexed like [p_input_slots] *)
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
  if not inst.i_plan.p_structured then CDone
  else if inst.i_running then inst.i_ctrl
  else if go then cstart ~emit:no_emit inst.i_plan.p_ictrl
  else CDone

let active_groups inst ~go = cactive [] (effective_ctrl inst ~go)

(* Long-lived fillers for fresh arrays: OCaml 5 runs a minor collection
   before it makes a large array from a young value. *)
let no_env = Slot.create [||]
let no_assign = { dst = 0; src = Port 0; guard = True }
let no_prim = Prim_state.create "std_wire" [ 1 ]

let no_prim_plan =
  {
    pp_cell = "";
    pp_proto =
      { pr_make = (fun () -> raise Exit); pr_inputs = [||]; pr_outputs = [||];
        pr_comb = [||] };
    pp_in = [||];
    pp_out = [||];
  }

let zero1 = Bitvec.zero 1

(* [Array.of_list l], made from [filler] rather than from [l]'s head. *)
let array_of_list filler l =
  let a = Array.make (List.length l) filler in
  List.iteri (fun i x -> a.(i) <- x) l;
  a

let drivers inst =
  match inst.i_drivers with
  | Some d -> d
  | None ->
      let n = max inst.i_plan.p_slots 1 in
      let d =
        { d_gen = Array.make n 0; d_val = Array.make n zero1;
          d_by = Array.make n no_assign }
      in
      inst.i_drivers <- Some d;
      d

(* Conflict detection at the settled point: two active assignments driving
   the same port with different values is undefined behaviour. Shared by
   both engines so the diagnostics are bit-identical. The driver
   table is a generation-stamped per-instance scratch array — bumping
   [i_gen] clears it in O(1). *)
let check_conflicts inst =
  let plan = inst.i_plan in
  let env = inst.i_env in
  let drv = drivers inst in
  inst.i_gen <- inst.i_gen + 1;
  let gen = inst.i_gen in
  let check ra =
    if guard_holds env ra.guard then begin
      let v = atom_value env ra.src in
      let dst = ra.dst in
      if drv.d_gen.(dst) = gen then begin
        if not (Bitvec.equal v drv.d_val.(dst)) then
          raise
            (Conflict_msg
               (Printf.sprintf
                  "component %s: conflicting drivers in the same cycle:\n  %s\n  %s"
                  plan.p_comp.comp_name
                  (assign_text plan drv.d_by.(dst))
                  (assign_text plan ra)))
      end
      else begin
        drv.d_gen.(dst) <- gen;
        drv.d_val.(dst) <- v;
        drv.d_by.(dst) <- ra
      end
    end
  in
  let go = env.ints.(plan.p_go_slot) <> 0 in
  Array.iter check plan.p_continuous;
  List.iter
    (fun (g, gated) ->
      let dones, datas = plan.p_group_assigns.(g) in
      Array.iter check dones;
      let live = (not gated) || env.ints.(plan.p_group_done.(g)) = 0 in
      if live then Array.iter check datas)
    (active_groups inst ~go)
