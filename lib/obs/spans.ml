open Calyx
module Sim = Calyx_sim.Sim

type span = {
  sp_thread : string;
  sp_name : string;
  sp_path : string;
  sp_node : int;  (* preorder id; -1 for fsm-derived spans *)
  sp_enter : int;
  sp_exit : int;  (* inclusive: duration = exit - enter + 1 *)
}

type fsm_track = {
  ft_thread : string;
  ft_cell : string;
  ft_slot : int;
  mutable ft_since : (int * int) option;  (* current value, first cycle *)
}

type t = {
  labels : (string * int, string * string) Hashtbl.t;
      (* (instance, node) -> (control path, label) *)
  open_nodes : (string * int, int) Hashtbl.t;  (* -> enter cycle *)
  mutable closed : span list;  (* reverse completion order *)
  mutable last_cycle : int;  (* last observed cycle, -1 before any *)
  fsms : fsm_track list;
}

let empty labels fsms =
  { labels; open_nodes = Hashtbl.create 16; closed = []; last_cycle = -1; fsms }

let node_span t inst node ~enter ~exit =
  let path, label =
    try Hashtbl.find t.labels (inst, node)
    with Not_found -> ("?", Printf.sprintf "node %d" node)
  in
  {
    sp_thread = inst;
    sp_name = label;
    sp_path = path;
    sp_node = node;
    sp_enter = enter;
    sp_exit = exit;
  }

let ctrl_sink t (ce : Sim.ctrl_event) =
  t.last_cycle <- max t.last_cycle ce.Sim.ce_cycle;
  let key = (ce.Sim.ce_instance, ce.Sim.ce_node) in
  match ce.Sim.ce_phase with
  | Sim.Ctrl_enter -> Hashtbl.replace t.open_nodes key ce.Sim.ce_cycle
  | Sim.Ctrl_exit ->
      let enter =
        match Hashtbl.find_opt t.open_nodes key with
        | Some c -> c
        | None -> ce.Sim.ce_cycle
      in
      Hashtbl.remove t.open_nodes key;
      (* A zero-work node (e.g. an empty seq reached mid-run) exits at the
         edge before its stamped enter cycle; clamp to a 1-cycle span. *)
      t.closed <-
        node_span t ce.Sim.ce_instance ce.Sim.ce_node ~enter
          ~exit:(max ce.Sim.ce_cycle enter)
        :: t.closed
  | Sim.Ctrl_branch _ -> ()

(* The interval [since..exit] over which an fsm register held [v]. *)
let fsm_span ft v ~since ~exit =
  {
    sp_thread = ft.ft_thread;
    sp_name = Printf.sprintf "%s=%d" ft.ft_cell v;
    sp_path = ft.ft_cell;
    sp_node = -1;
    sp_enter = since;
    sp_exit = exit;
  }

let value_sink t (ev : Sim.event) =
  t.last_cycle <- max t.last_cycle ev.Sim.ev_cycle;
  List.iter
    (fun ft ->
      let v = Bitvec.to_int ev.Sim.ev_values.(ft.ft_slot) in
      match ft.ft_since with
      | Some (prev, _) when prev = v -> ()
      | Some (prev, since) ->
          t.closed <-
            fsm_span ft prev ~since ~exit:(ev.Sim.ev_cycle - 1) :: t.closed;
          ft.ft_since <- Some (v, ev.Sim.ev_cycle)
      | None -> ft.ft_since <- Some (v, ev.Sim.ev_cycle))
    t.fsms

let create ctx sim =
  let labels = Hashtbl.create 32 in
  List.iter
    (fun (inst, comp_name) ->
      match Ir.find_component_opt ctx comp_name with
      | None -> ()
      | Some comp ->
          List.iter
            (fun (id, path, node) ->
              Hashtbl.replace labels (inst, id)
                (path, Ir.control_node_label node))
            (Ir.control_preorder comp.Ir.control))
    (Sim.instances sim);
  let t = empty labels [] in
  Sim.add_ctrl_sink sim (ctrl_sink t);
  Sim.add_sink sim (fun ev -> t.last_cycle <- max t.last_cycle ev.Sim.ev_cycle);
  t

let create_fsm ctx sim =
  let t =
    empty (Hashtbl.create 1)
      (List.map
         (fun (inst, cell, slot) ->
           {
             ft_thread = (if inst = "" then cell else inst ^ "." ^ cell);
             ft_cell = cell;
             ft_slot = slot;
             ft_since = None;
           })
         (Coverage.fsm_registers ctx sim))
  in
  Sim.add_sink sim (value_sink t);
  t

(* Residual spans (still open at the last observed cycle — a timed-out run,
   or fsm values held through the final cycle) are closed at export time so
   partial traces stay loadable. *)
let spans t =
  let residual =
    Hashtbl.fold
      (fun (inst, node) enter acc ->
        if t.last_cycle < enter then acc
        else node_span t inst node ~enter ~exit:t.last_cycle :: acc)
      t.open_nodes []
  in
  let fsm_residual =
    List.filter_map
      (fun ft ->
        match ft.ft_since with
        | Some (v, since) when t.last_cycle >= since ->
            Some (fsm_span ft v ~since ~exit:t.last_cycle)
        | _ -> None)
      t.fsms
  in
  List.rev_append t.closed (residual @ fsm_residual)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export (load at ui.perfetto.dev)                 *)
(* ------------------------------------------------------------------ *)

(* One track per instance or fsm register. Sorting by node id first breaks
   the exporter's (track, start, longest-first) ties. *)
let to_chrome t =
  let module Trace = Calyx_telemetry.Trace in
  let event s =
    {
      Trace.ev_name = s.sp_name;
      ev_cat = (if s.sp_node >= 0 then "control" else "fsm");
      ev_track = (if s.sp_thread = "" then "<entry>" else s.sp_thread);
      ev_domain = Trace.Cycles;
      ev_start = float_of_int s.sp_enter;
      ev_dur = float_of_int (s.sp_exit - s.sp_enter + 1);
      ev_args =
        ("path", Trace.S s.sp_path)
        :: (if s.sp_node < 0 then []
            else [ ("node", Trace.F (float_of_int s.sp_node)) ]);
    }
  in
  Trace.chrome
    (List.map event
       (List.stable_sort (fun a b -> compare a.sp_node b.sp_node) (spans t)))
