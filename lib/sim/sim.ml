open Calyx
open Ir
open Instance
module Tele = Calyx_telemetry

exception Timeout of { budget : int; snapshot : string }
exception Conflict of { cycle : int; message : string; snapshot : string }
exception Unstable of { cycle : int; message : string; snapshot : string }

(* ------------------------------------------------------------------ *)
(* Control events (the span-tracing interface of Calyx_obs.Spans)      *)
(* ------------------------------------------------------------------ *)

type ctrl_phase = Instance.ctrl_phase =
  | Ctrl_enter
  | Ctrl_exit
  | Ctrl_branch of bool

type ctrl_event = {
  ce_cycle : int;
  ce_instance : string;
  ce_node : int;
  ce_phase : ctrl_phase;
}

type ctrl_sink = ctrl_event -> unit

(* ------------------------------------------------------------------ *)
(* Engines and instance construction                                   *)
(* ------------------------------------------------------------------ *)

type engine = [ `Fixpoint | `Compiled ]

let engines : (string * engine) list =
  [ ("fixpoint", `Fixpoint); ("compiled", `Compiled) ]

let engine_name (e : engine) =
  fst (List.find (fun (_, e') -> e' = e) engines)

let default_engine : engine = `Compiled

(* Resolve one component into the plan its instances share. Every port
   the simulator reads is resolved to its slot here, once per component;
   [plan_of] returns a child component's plan. A fault is raised in the
   order the parts are resolved below: the cells (a child's own plan
   first), the group done holes, the group assignments (each in
   [Ports.resolve_assignment]'s order: its source, then its guard left
   to right, then its destination), the signature, the control program,
   the [go] input, and the continuous assignments. *)
let plan_component ~ports_of ~plan_of (ctx : context)
    (comp : component) : plan =
  let ports = ports_of comp in
  let id = Ports.id ports in
  let slots = Ports.count ports in
  let widths =
    Array.init (max slots 1) (fun i ->
        if i < slots then Ports.width_of_id ports i else 1)
  in
  (* The engines copy a source into its destination as stored, so the two
     must be one width, as the checker demands (CX006). *)
  let resolve a =
    let ra = Ports.resolve_assignment ports a in
    let src_width =
      match ra.src with Port s -> widths.(s) | Lit v -> Bitvec.width v
    in
    if src_width <> widths.(ra.dst) then
      ir_error "simulator: width mismatch in %a = %a (%d vs %d)" pp_port_ref
        a.dst pp_atom a.src widths.(ra.dst) src_width;
    ra
  in
  (* Each prototype's ports and model, planned at its first cell. *)
  let protos = Hashtbl.create 8 in
  let proto_of proto name params =
    match Hashtbl.find_opt protos proto with
    | Some pr -> pr
    | None ->
        let cports = Ports.proto_ports ports proto in
        let names dir =
          Array.of_list
            (List.filter_map
               (fun (p, _, d) -> if d = dir then Some p else None)
               cports)
        in
        let inputs = names Input in
        let comb = Prims.comb_arcs name params in
        let pr =
          { pr_make = (fun () -> Prim_state.create name params);
            pr_inputs = inputs; pr_outputs = names Output;
            pr_comb =
              Array.map
                (fun p -> List.exists (fun (i, _) -> String.equal i p) comb)
                inputs }
        in
        Hashtbl.replace protos proto pr;
        pr
  in
  let prims = ref [] and children = ref [] and cells = ref [] in
  let nprims = ref 0 and nchildren = ref 0 in
  let cell_slots cell names =
    let slots = Array.make (Array.length names) 0 in
    for i = 0 to Array.length names - 1 do
      slots.(i) <- id (Cell_port (cell, names.(i)))
    done;
    slots
  in
  List.iter
    (fun c ->
      match c.cell_proto with
      | Prim (name, params) ->
          let pr = proto_of c.cell_proto name params in
          let pp_in = cell_slots c.cell_name pr.pr_inputs in
          let pp_out = cell_slots c.cell_name pr.pr_outputs in
          cells := Prim_cell !nprims :: !cells;
          incr nprims;
          prims :=
            { pp_cell = c.cell_name; pp_proto = pr; pp_in; pp_out } :: !prims
      | Comp name when (find_component ctx name).is_extern <> None ->
          (* Black-box RTL (Section 6.2) is linked from its .sv file at
             code generation; the simulator has no model of it. *)
          ir_error
            "simulator: extern component %s is black-box RTL and cannot be \
             simulated"
            name
      | Comp name ->
          let sub = plan_of (find_component ctx name) in
          let cp_input_map =
            List.map
              (fun (p, slot) -> (id (Cell_port (c.cell_name, p)), slot))
              sub.p_input_slots
          in
          let cp_output_map =
            List.map
              (fun (p, slot) -> (slot, id (Cell_port (c.cell_name, p))))
              sub.p_output_slots
          in
          cells := Child_cell !nchildren :: !cells;
          incr nchildren;
          children :=
            { cp_cell = c.cell_name;
              cp_plan = sub;
              cp_input_map = Array.of_list cp_input_map;
              cp_output_map = Array.of_list cp_output_map;
              cp_done_slot = id (Cell_port (c.cell_name, "done")) }
            :: !children)
    comp.cells;
  let groups = Array.of_list comp.groups in
  let group_index = Hashtbl.create 16 in
  Array.iteri (fun i g -> Hashtbl.replace group_index g.group_name i) groups;
  let group name =
    match Hashtbl.find_opt group_index name with
    | Some i -> i
    | None ->
        ir_error "simulator: %s enables undefined group %s" comp.comp_name name
  in
  let hole_slots hole =
    Array.map (fun g -> id (Hole (g.group_name, hole))) groups
  in
  let group_done = hole_slots "done" in
  let group_assigns = Array.make (Array.length groups) ([||], [||]) in
  Array.iteri
    (fun i g ->
      let dones, datas =
        List.partition
          (fun ra -> ra.dst = group_done.(i))
          (List.map resolve g.assigns)
      in
      group_assigns.(i) <- (Array.of_list dones, Array.of_list datas))
    groups;
  let input_slots =
    List.map (fun pd -> (pd.pd_name, id (This pd.pd_name))) comp.inputs
  in
  let output_slots =
    List.map (fun pd -> (pd.pd_name, id (This pd.pd_name))) comp.outputs
  in
  let ictrl = annotate ~group comp.control in
  let go_slot = List.assoc "go" input_slots in
  let group_go = hole_slots "go" in
  let continuous = array_of_list no_assign (List.map resolve comp.continuous) in
  {
    p_comp = comp;
    p_ports = ports;
    p_slots = slots;
    p_widths = widths;
    p_cells = array_of_list (Prim_cell 0) (List.rev !cells);
    p_prims = array_of_list no_prim_plan (List.rev !prims);
    p_children = Array.of_list (List.rev !children);
    p_continuous = continuous;
    p_groups = groups;
    p_group_assigns = group_assigns;
    p_group_go = group_go;
    p_group_done = group_done;
    p_input_slots = input_slots;
    p_go_slot = go_slot;
    p_output_slots = output_slots;
    p_structured = comp.control <> Empty;
    p_ictrl = ictrl;
  }

(* One instance of a planned component: its own values, primitive states
   and children, in cell order, and under the compiled engine its node
   closures, staged from the component's engine plan ([compiled_of]). *)
let rec instantiate ~engine ~compiled_of ~path plan : instance =
  let prims = ref [] and children = ref [] in
  Array.iter
    (function
      | Prim_cell p -> prims := plan.p_prims.(p).pp_proto.pr_make () :: !prims
      | Child_cell c ->
          let cp = plan.p_children.(c) in
          let child_path =
            if path = "" then cp.cp_cell else path ^ "." ^ cp.cp_cell
          in
          let inst =
            instantiate ~engine ~compiled_of ~path:child_path
              cp.cp_plan
          in
          let cwidths = cp.cp_plan.p_widths in
          children :=
            { c_plan = cp;
              c_inst = inst;
              c_buf =
                Slot.create
                  (Array.map (fun (_, cslot) -> cwidths.(cslot)) cp.cp_input_map);
              c_buf_valid = false }
            :: !children)
    plan.p_cells;
  let inst =
    {
      i_plan = plan;
      i_path = path;
      i_env = Slot.create plan.p_widths;
      i_next = no_env;
      i_prims = array_of_list no_prim (List.rev !prims);
      i_children = Array.of_list (List.rev !children);
      i_ctrl = CDone;
      i_running = false;
      i_done_reg = false;
      i_iters_cycle = 0;
      i_evals = 0;
      i_latched = 0;
      i_gen = 0;
      i_drivers = None;
      i_compiled = None;
    }
  in
  if engine = `Compiled then
    inst.i_compiled <- Some (Compiled.compile (compiled_of plan) inst);
  inst

(* ------------------------------------------------------------------ *)
(* The fixpoint reference engine                                       *)
(* ------------------------------------------------------------------ *)

(* The fixpoint engine computes on Bitvec, reading and writing the slots
   through Slot's conversion, so the engine differential compares two
   independent implementations; a value it only moves (an input, a
   child's port, an assignment's source) is copied as stored. *)
let prim_reader env (pp : prim_plan) name =
  match input_slot pp name with
  | slot when slot >= 0 -> Slot.get env slot
  | _ ->
      (* Reading an output during commit (never happens) or a missing port. *)
      raise (Prim_state.Sim_error ("unknown primitive input " ^ name))

let rec eval_comb inst (inputs : Slot.env) =
  (* [inputs] is indexed in the order of [p_input_slots]. *)
  let plan = inst.i_plan in
  let n = plan.p_slots in
  let changed = ref true in
  let iters = ref 0 in
  while !changed do
    incr iters;
    if !iters > max_settle_iters then
      raise
        (Unstable_msg
           (Printf.sprintf "component %s: combinational fixpoint diverged"
              plan.p_comp.comp_name));
    changed := false;
    if inst.i_next == no_env then inst.i_next <- Slot.create plan.p_widths;
    let old = inst.i_env and next = inst.i_next in
    Slot.clear next;
    (* Component inputs. *)
    List.iteri
      (fun i (_, slot) -> Slot.copy inputs i next slot)
      plan.p_input_slots;
    (* go holes of active groups. *)
    let go = Slot.is_true next plan.p_go_slot in
    let actives = active_groups inst ~go in
    let group_live (g, gated) =
      (not gated) || not (Slot.is_true old plan.p_group_done.(g))
    in
    List.iter
      (fun ((g, _) as entry) ->
        Slot.set next plan.p_group_go.(g)
          (if group_live entry then Bitvec.one 1 else Bitvec.zero 1))
      actives;
    (* Primitive outputs, from the previous iteration's inputs. *)
    Array.iteri
      (fun p state ->
        let pp = plan.p_prims.(p) in
        let outs = Prim_state.outputs state ~read:(prim_reader old pp) in
        List.iter
          (fun (q, v) ->
            match output_slot pp q with
            | slot when slot >= 0 -> Slot.set next slot v
            | _ -> ())
          outs)
      inst.i_prims;
    (* Child component outputs. The input buffer is reused across
       iterations; an iteration that leaves it unchanged skips the child. *)
    Array.iter
      (fun ch ->
        let cp = ch.c_plan in
        let recompute = ref (not ch.c_buf_valid) in
        Array.iteri
          (fun i (pslot, _) ->
            if not (Slot.same old pslot ch.c_buf i) then begin
              Slot.copy old pslot ch.c_buf i;
              recompute := true
            end)
          cp.cp_input_map;
        if !recompute then begin
          eval_comb ch.c_inst ch.c_buf;
          ch.c_buf_valid <- true
        end;
        Array.iter
          (fun (cslot, pslot) ->
            Slot.copy ch.c_inst.i_env cslot next pslot)
          cp.cp_output_map;
        (* Structured children report a registered done. *)
        if cp.cp_plan.p_structured then
          Slot.set next cp.cp_done_slot
            (if ch.c_inst.i_done_reg then Bitvec.one 1 else Bitvec.zero 1))
      inst.i_children;
    (* Active assignments, reading the previous iteration. *)
    let run_assign ra =
      if guard_holds old ra.guard then
        match ra.src with
        | Port s -> Slot.copy old s next ra.dst
        | Lit v -> Slot.set next ra.dst v
    in
    Array.iter run_assign plan.p_continuous;
    List.iter
      (fun ((g, _) as entry) ->
        let dones, datas = plan.p_group_assigns.(g) in
        Array.iter run_assign dones;
        if group_live entry then Array.iter run_assign datas)
      actives;
    (* Converged? *)
    (try
       for i = 0 to n - 1 do
         if not (Slot.same old i next i) then raise Exit
       done
     with Exit -> changed := true);
    inst.i_env <- next;
    inst.i_next <- old
  done;
  inst.i_iters_cycle <- inst.i_iters_cycle + !iters;
  check_conflicts inst

(* ------------------------------------------------------------------ *)
(* Clock edge                                                          *)
(* ------------------------------------------------------------------ *)

let rec commit ~now ~csink inst =
  inst.i_evals <- inst.i_evals + inst.i_iters_cycle;
  inst.i_iters_cycle <- 0;
  let env = inst.i_env in
  (match inst.i_compiled with
  | Some x ->
      (* Without a control sink [now] is never read, so the children commit
         through one static closure, not a partial application per edge. *)
      x.x_commit
        (match csink with
        | None -> commit_unobserved
        | Some _ -> commit ~now ~csink)
  | None ->
      (* Primitive state updates. *)
      Array.iteri
        (fun p state ->
          Prim_state.commit state ~read:(prim_reader env inst.i_plan.p_prims.(p)))
        inst.i_prims;
      (* Child updates (their env is consistent with the converged parent
         env). *)
      Array.iter
        (fun ch ->
          commit ~now ~csink ch.c_inst;
          ch.c_buf_valid <- false)
        inst.i_children);
  (* Control lifecycle. The emit closures are only materialized when a
     control sink is attached — on the hot no-sink path every instance
     would otherwise allocate them at every clock edge. *)
  let plan = inst.i_plan in
  if plan.p_structured then begin
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
    let go = Slot.is_true env plan.p_go_slot in
    if (not inst.i_running) && go then begin
      inst.i_running <- true;
      inst.i_ctrl <- cstart ~emit:emit_start plan.p_ictrl
    end;
    if inst.i_running then begin
      let group_done g = Slot.is_true env plan.p_group_done.(g) in
      let port_true p = Slot.is_true env (Ports.id plan.p_ports p) in
      inst.i_ctrl <- cadvance ~emit:emit_adv inst.i_ctrl ~group_done ~port_true;
      if inst.i_ctrl = CDone then begin
        inst.i_running <- false;
        inst.i_done_reg <- true
      end
      else inst.i_done_reg <- false
    end
    else inst.i_done_reg <- false
  end

and commit_unobserved inst = commit ~now:0 ~csink:None inst

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
  inputs : Slot.env;  (* indexed like the root's p_input_slots *)
  mutable finished : bool;
  mutable cycles : int;  (* clock edges since creation *)
  mutable sink : sink option;
  mutable ctrl_sink : ctrl_sink option;
  mutable probes : (signal array * (instance * int) array) option;
      (* built on demand: flattened signal metadata + where to read each *)
  done_slot : int option;  (* the root's [done] output *)
}

(* The plans are memoized per component inside one build: every instance
   of a component shares them, and nothing outlives the [Sim.t], so
   simulations built on different domains share no state. *)
let create ?(engine = default_engine) ctx =
  Tele.Trace.with_span ~cat:"stage" "sim-build" @@ fun () ->
  let comp = entry ctx in
  let ports_of = Ports.tables ctx in
  let plans = Hashtbl.create 8 and compiled = Hashtbl.create 8 in
  let rec plan_of comp =
    match Hashtbl.find_opt plans comp.comp_name with
    | Some plan -> plan
    | None ->
        let plan = plan_component ~ports_of ~plan_of ctx comp in
        Hashtbl.replace plans comp.comp_name plan;
        plan
  in
  let compiled_of plan =
    let name = plan.p_comp.comp_name in
    match Hashtbl.find_opt compiled name with
    | Some cp -> cp
    | None ->
        let cp = Compiled.plan plan in
        Hashtbl.replace compiled name cp;
        cp
  in
  let root_plan = plan_of comp in
  (* The compiled engine computes on native ints: a design with a slot
     wider than [Slot.narrow] anywhere runs on the fixpoint engine, which
     computes every width on Bitvec. *)
  let engine =
    if
      Seq.exists
        (fun p -> Array.exists Slot.is_wide p.p_widths)
        (Hashtbl.to_seq_values plans)
    then `Fixpoint
    else engine
  in
  let root = instantiate ~engine ~compiled_of ~path:"" root_plan in
  let widths = root.i_plan.p_widths in
  let inputs =
    Slot.create
      (Array.of_list
         (List.map (fun (_, slot) -> widths.(slot)) root.i_plan.p_input_slots))
  in
  {
    root;
    inputs;
    finished = false;
    cycles = 0;
    sink = None;
    ctrl_sink = None;
    probes = None;
    done_slot = List.assoc_opt "done" root.i_plan.p_output_slots;
  }

(* Flattened views of the instance hierarchy. Instance paths are dotted
   cell names from the entrypoint (the root's path is ""). *)

let strip_prefix prefix =
  if prefix = "" then "" else String.sub prefix 0 (String.length prefix - 1)

let build_probes t =
  let rec walk prefix inst acc =
    let inst_path = strip_prefix prefix in
    let acc = ref acc in
    let plan = inst.i_plan in
    for slot = 0 to plan.p_slots - 1 do
      let kind, local =
        match Ports.port plan.p_ports slot with
        | This n -> (Sig_this n, n)
        | Hole (g, h) -> (Sig_hole (g, h), g ^ "." ^ h)
        | Cell_port (c, q) -> (Sig_cell (c, q), c ^ "." ^ q)
      in
      acc :=
        ( {
            sig_path = prefix ^ local;
            sig_width = plan.p_widths.(slot);
            sig_instance = inst_path;
            sig_kind = kind;
          },
          (inst, slot) )
        :: !acc
    done;
    Array.fold_left
      (fun acc ch -> walk (prefix ^ ch.c_plan.cp_cell ^ ".") ch.c_inst acc)
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
    let acc = (strip_prefix prefix, inst.i_plan.p_comp.comp_name) :: acc in
    Array.fold_left
      (fun acc ch -> walk (prefix ^ ch.c_plan.cp_cell ^ ".") ch.c_inst acc)
      acc inst.i_children
  in
  List.rev (walk "" t.root [])

(* Compose with whatever sink is already installed, so independent
   observers (a VCD tracer, a profiler, a coverage collector) can attach to
   the same simulation without knowing about each other. Installed sinks
   run in attachment order. *)
let add_sink t sink =
  t.sink <-
    (match t.sink with
    | None -> Some sink
    | Some prev ->
        Some
          (fun ev ->
            prev ev;
            sink ev));
  (* Pre-build the probe index so the first observed cycle is not slower
     than the rest. *)
  ignore (probes t)

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
  Array.map (fun (inst, slot) -> Slot.get inst.i_env slot) slots

let instance_go inst = Slot.is_true inst.i_env inst.i_plan.p_go_slot

let collect_active t =
  let rec walk prefix inst acc =
    let acc =
      if not inst.i_plan.p_structured then acc
      else
        let inst_path = strip_prefix prefix in
        List.fold_left
          (fun acc (g, _) ->
            (inst_path, inst.i_plan.p_groups.(g).group_name) :: acc)
          acc
          (active_groups inst ~go:(instance_go inst))
    in
    Array.fold_left
      (fun acc ch -> walk (prefix ^ ch.c_plan.cp_cell ^ ".") ch.c_inst acc)
      acc inst.i_children
  in
  List.rev (walk "" t.root [])

(* [count] summed over the instance tree. *)
let rec tree_sum count inst =
  Array.fold_left
    (fun acc ch -> acc + tree_sum count ch.c_inst)
    (count inst) inst.i_children

(* ------------------------------------------------------------------ *)
(* Status snapshots (Timeout debugging)                                *)
(* ------------------------------------------------------------------ *)

let cstate_to_string inst =
  let rec str = function
    | CDone -> "done"
    | CEnable (_, g) -> inst.i_plan.p_groups.(g).group_name
    | CSeq (_, s, rest) -> (
        match List.length rest with
        | 0 -> Printf.sprintf "seq(%s)" (str s)
        | n -> Printf.sprintf "seq(%s; +%d more)" (str s) n)
    | CPar (_, ss) -> "par{" ^ String.concat " | " (List.map str ss) ^ "}"
    | CIfCond (_, _, p, _, _) -> Format.asprintf "if(%a?)" pp_port_ref p
    | CIfBody (_, s) -> Printf.sprintf "if{%s}" (str s)
    | CWhileCond (_, _, p, _) -> Format.asprintf "while(%a?)" pp_port_ref p
    | CWhileBody (_, s, _, p, _) ->
        Format.asprintf "while(%a){%s}" pp_port_ref p (str s)
  in
  str inst.i_ctrl

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
    let plan = inst.i_plan in
    if plan.p_structured then begin
      let state =
        if inst.i_running then "running " ^ cstate_to_string inst
        else if inst.i_done_reg then "presenting done"
        else "idle"
      in
      add "  %s (component %s): %s" name plan.p_comp.comp_name state;
      List.iter
        (fun (g, _) ->
          let g = plan.p_groups.(g) in
          List.iter
            (fun a ->
              if equal_port_ref a.dst (Hole (g.group_name, "done")) then
                add "    active group %s: waiting on %s" g.group_name
                  (Format.asprintf "%a" Printer.pp_assignment a))
            g.assigns)
        (active_groups inst ~go:(instance_go inst))
    end
    else begin
      add "  %s (component %s): flat netlist" name plan.p_comp.comp_name;
      List.iter
        (fun a ->
          if equal_port_ref a.dst (This "done") then
            add "    done wiring: %s"
              (Format.asprintf "%a" Printer.pp_assignment a))
        plan.p_comp.continuous;
      Array.iteri
        (fun p state ->
          let cell = plan.p_prims.(p).pp_cell in
          if String.length cell >= 3 && String.sub cell 0 3 = "fsm" then
            try
              add "    fsm register %s = %s" cell
                (Bitvec.to_string (Prim_state.get_register state))
            with Prim_state.Sim_error _ -> ())
        inst.i_prims
    end;
    Array.iter
      (fun ch ->
        let n = ch.c_plan.cp_cell in
        walk (if path = "" then n else path ^ "." ^ n) ch.c_inst)
      inst.i_children
  in
  walk "" t.root;
  Buffer.contents buf

let set_input t name v =
  let rec go i = function
    | [] -> ir_error "no input port %s" name
    | (n, _) :: _ when String.equal n name -> Slot.set t.inputs i v
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.root.i_plan.p_input_slots

let read_output t name =
  match List.assoc_opt name t.root.i_plan.p_output_slots with
  | Some slot ->
      if String.equal name "done" && t.root.i_plan.p_structured then
        if t.root.i_done_reg then Bitvec.one 1 else Bitvec.zero 1
      else Slot.get t.root.i_env slot
  | None -> ir_error "no output port %s" name

let engine t : engine =
  match t.root.i_compiled with Some _ -> `Compiled | None -> `Fixpoint

(* The compiled engine's plans of the whole instance tree, parent before
   children — the golden-snapshot view of what was specialized. *)
let compiled_plan t =
  match t.root.i_compiled with
  | None -> None
  | Some _ ->
      let buf = Buffer.create 512 in
      let rec walk inst =
        (match inst.i_compiled with
        | Some x -> Buffer.add_string buf (Lazy.force x.x_plan)
        | None -> ());
        Array.iter (fun ch -> walk ch.c_inst) inst.i_children
      in
      walk t.root;
      Some (Buffer.contents buf)

let cycle t =
  (try
     match t.root.i_compiled with
     | Some x -> x.x_settle t.inputs
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
          ev_iters = tree_sum (fun i -> i.i_iters_cycle) t.root;
        });
  let flat_done =
    (not t.root.i_plan.p_structured)
    &&
    match t.done_slot with
    | Some s -> Slot.is_true t.root.i_env s
    | None -> raise Not_found
  in
  commit ~now:t.cycles ~csink:t.ctrl_sink t.root;
  let structured_done =
    t.root.i_plan.p_structured && t.root.i_done_reg
  in
  if flat_done || structured_done then t.finished <- true;
  t.cycles <- t.cycles + 1

let done_seen t = t.finished

let run ?(max_cycles = 5_000_000) t =
  Tele.Trace.with_span ~cat:"stage" "sim" @@ fun () ->
  if Tele.Runtime.on () then
    Tele.Trace.add_tag "engine" (engine_name (engine t));
  set_input t "go" (Bitvec.one 1);
  let evals () = tree_sum (fun i -> i.i_evals) t.root
  and latched () = tree_sum (fun i -> i.i_latched) t.root in
  let evals0 = evals () and latched0 = latched () in
  let cycles = ref 0 in
  while (not t.finished) && !cycles < max_cycles do
    cycle t;
    incr cycles
  done;
  if not t.finished then
    raise (Timeout { budget = max_cycles; snapshot = status t });
  if Tele.Runtime.on () then begin
    Tele.Trace.add_metric "cycles" (float_of_int !cycles);
    Tele.Trace.add_metric "evals" (float_of_int (evals () - evals0));
    if engine t = `Compiled then
      Tele.Trace.add_metric "latched" (float_of_int (latched () - latched0))
  end;
  !cycles

(* Hierarchical test-bench access. *)

let rec resolve_prim inst path =
  match String.index_opt path '.' with
  | None ->
      let rec find p =
        if p >= Array.length inst.i_prims then
          ir_error "no primitive cell %s in %s" path inst.i_plan.p_comp.comp_name
        else if String.equal inst.i_plan.p_prims.(p).pp_cell path then (inst, p)
        else find (p + 1)
      in
      find 0
  | Some i ->
      let hd = String.sub path 0 i in
      let tl = String.sub path (i + 1) (String.length path - i - 1) in
      let ch =
        match
          Array.find_opt
            (fun ch -> String.equal ch.c_plan.cp_cell hd)
            inst.i_children
        with
        | Some ch -> ch
        | None -> ir_error "no child instance %s" hd
      in
      resolve_prim ch.c_inst tl

let prim_state_at (inst, p) = inst.i_prims.(p)

(* A test-bench write changed primitive state behind the compiled engine's
   back; it re-marks the primitive so the next settle re-reads its
   outputs. *)
let touch_prim (inst, p) =
  match inst.i_compiled with
  | Some x -> x.x_touch_prim p
  | None -> ()  (* the fixpoint engine re-reads every output *)

(* Test-bench access: an error names the cell it is about. *)
let named path f =
  try f ()
  with Prim_state.Sim_error msg ->
    raise (Prim_state.Sim_error (Printf.sprintf "%s: %s" path msg))

let read_register t path =
  named path (fun () ->
      Prim_state.get_register (prim_state_at (resolve_prim t.root path)))

let write_register t path v =
  let loc = resolve_prim t.root path in
  named path (fun () -> Prim_state.set_register (prim_state_at loc) v);
  touch_prim loc

let read_memory t path =
  named path (fun () ->
      Prim_state.get_memory (prim_state_at (resolve_prim t.root path)))

let write_memory t path data =
  let loc = resolve_prim t.root path in
  named path (fun () -> Prim_state.set_memory (prim_state_at loc) data);
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
    t.root.i_plan.p_comp.cells

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
    add_ctrl_sink sim (fun e -> events := e :: !events);
    let cycles = run ~max_cycles:400_000 sim in
    ( cycles,
      List.map (fun r -> Bitvec.to_int64 (read_register sim r)) regs,
      List.map (fun m -> read_memory sim m) mems,
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
  let regs = ref [] and mems = ref [] in
  let rec walk comp prefix =
    List.iter
      (fun c ->
        let path =
          if prefix = "" then c.cell_name else prefix ^ "." ^ c.cell_name
        in
        match c.cell_proto with
        | Prim (name, _) -> (
            match Prims.find name with
            | Some { kind = Register; _ } -> regs := path :: !regs
            | Some { kind = Memory; _ } -> mems := path :: !mems
            | Some _ | None -> ())
        | Comp name -> walk (find_component ctx name) path)
      comp.cells
  in
  walk (entry ctx) "";
  (List.rev !regs, List.rev !mems)

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
