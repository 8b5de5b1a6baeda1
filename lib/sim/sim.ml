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
          let pi_state = Prim_state.create name params in
          let comb = List.map fst (Prims.comb_arcs name params) in
          prims :=
            { pi_cell = c.cell_name;
              pi_state;
              pi_inputs = ins;
              pi_outputs = outs;
              pi_comb_reads =
                List.filter_map
                  (fun (p, slot) -> if List.mem p comb then Some slot else None)
                  ins }
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
                  pi_inputs = ins; pi_outputs = outs;
                  pi_comb_reads = List.map snd ins }
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
  let group_assigns =
    Array.mapi
      (fun i g ->
        let dones, datas =
          List.partition
            (fun ca -> ca.ca_dst = group_done.(i))
            (List.map compile_assign g.assigns)
        in
        (Array.of_list dones, Array.of_list datas))
      groups
  in
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
      i_groups = groups;
      i_group_assigns = group_assigns;
      i_group_go = hole_slots "go";
      i_group_done = group_done;
      i_input_slots = input_slots;
      i_go_slot = List.assoc "go" input_slots;
      i_output_slots = output_slots;
      i_ports = ports;
      i_structured = comp.control <> Empty;
      i_ictrl = annotate ~group comp.control;
      i_ctrl = CDone;
      i_running = false;
      i_done_reg = false;
      i_iters_cycle = 0;
      i_max_iters = max_iters;
      i_gen = 0;
      i_drv_gen = Array.make (max slots 1) 0;
      i_drv_val = Array.copy zeros;
      i_drv_text = Array.make (max slots 1) (lazy "");
      i_compiled = None;
    }
  in
  if engine = `Compiled then inst.i_compiled <- Some (Compiled.compile inst);
  inst

(* ------------------------------------------------------------------ *)
(* The fixpoint reference engine                                       *)
(* ------------------------------------------------------------------ *)

let prim_reader env (pi : prim_inst) name =
  match List.assoc_opt name pi.pi_inputs with
  | Some slot -> env.(slot)
  | None ->
      (* Reading an output during commit (never happens) or a missing port. *)
      raise (Prim_state.Sim_error ("unknown primitive input " ^ name))

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
    let go = Bitvec.is_true next.(inst.i_go_slot) in
    let actives = active_groups inst ~go in
    let group_live (g, gated) =
      (not gated)
      || not (Bitvec.is_true old.(inst.i_group_done.(g)))
    in
    List.iter
      (fun ((g, _) as entry) ->
        next.(inst.i_group_go.(g)) <-
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
        let dones, datas = inst.i_group_assigns.(g) in
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
  | Some x ->
      (* Without a control sink [now] is never read, so the children commit
         through one static closure, not a partial application per edge. *)
      x.x_commit
        (match csink with
        | None -> commit_unobserved
        | Some _ -> commit ~now ~csink)
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
    let go = Bitvec.is_true env.(inst.i_go_slot) in
    if (not inst.i_running) && go then begin
      inst.i_running <- true;
      inst.i_ctrl <- cstart ~emit:emit_start inst.i_ictrl
    end;
    if inst.i_running then begin
      let group_done g = Bitvec.is_true env.(inst.i_group_done.(g)) in
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
  inputs : Bitvec.t array;  (* indexed like root.i_input_slots *)
  mutable finished : bool;
  mutable cycles : int;  (* clock edges since creation *)
  mutable sink : sink option;
  mutable ctrl_sink : ctrl_sink option;
  mutable probes : (signal array * (instance * int) array) option;
      (* built on demand: flattened signal metadata + where to read each *)
  done_slot : int option;  (* the root's [done] output *)
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
    done_slot = List.assoc_opt "done" root.i_output_slots;
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

let instance_go inst = Bitvec.is_true inst.i_env.(inst.i_go_slot)

let collect_active t =
  let rec walk prefix inst acc =
    let acc =
      if not inst.i_structured then acc
      else
        let inst_path = strip_prefix prefix in
        List.fold_left
          (fun acc (g, _) -> (inst_path, inst.i_groups.(g).group_name) :: acc)
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

let cstate_to_string inst =
  let rec str = function
    | CDone -> "done"
    | CEnable (_, g) -> inst.i_groups.(g).group_name
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
    if inst.i_structured then begin
      let state =
        if inst.i_running then "running " ^ cstate_to_string inst
        else if inst.i_done_reg then "presenting done"
        else "idle"
      in
      add "  %s (component %s): %s" name inst.i_comp.comp_name state;
      List.iter
        (fun (g, _) ->
          let g = inst.i_groups.(g) in
          List.iter
            (fun a ->
              if equal_port_ref a.dst (Hole (g.group_name, "done")) then
                add "    active group %s: waiting on %s" g.group_name
                  (Format.asprintf "%a" Printer.pp_assignment a))
            g.assigns)
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
        Array.iter (fun (_, ch) -> walk ch.c_inst) inst.i_children
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
          ev_iters = total_iters t.root;
        });
  let flat_done =
    (not t.root.i_structured)
    &&
    match t.done_slot with
    | Some s -> Bitvec.is_true t.root.i_env.(s)
    | None -> raise Not_found
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

(* A test-bench write changed primitive state behind the compiled engine's
   back; it re-marks the primitive so the next settle re-reads its
   outputs. *)
let touch_prim (inst, p) =
  match inst.i_compiled with
  | Some x -> x.x_touch_prim p
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
  let regs = ref [] and mems = ref [] in
  let rec walk comp prefix =
    List.iter
      (fun c ->
        let path =
          if prefix = "" then c.cell_name else prefix ^ "." ^ c.cell_name
        in
        match c.cell_proto with
        | Prim ("std_reg", _) -> regs := path :: !regs
        | Prim (("std_mem_d1" | "std_mem_d2"), _) -> mems := path :: !mems
        | Prim _ -> ()
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
