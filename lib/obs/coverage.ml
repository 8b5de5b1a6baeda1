open Calyx
module Sim = Calyx_sim.Sim
module Json = Calyx_telemetry.Json

(* ------------------------------------------------------------------ *)
(* FSM register identification (shared with Spans)                     *)
(* ------------------------------------------------------------------ *)

let is_fsm_cell (c : Ir.cell) =
  match c.Ir.cell_proto with
  | Ir.Prim ("std_reg", _) ->
      Attrs.get "generated" ~default:0 c.Ir.cell_attrs <> 0
      && String.length c.Ir.cell_name >= 3
      && String.sub c.Ir.cell_name 0 3 = "fsm"
  | _ -> false

(* States a compiled schedule can put an fsm register in: every literal
   written to its [in] port, plus the reset state 0. *)
let fsm_possible_states (comp : Ir.component) cell_name =
  let states = Hashtbl.create 8 in
  Hashtbl.replace states 0 ();
  List.iter
    (fun (a : Ir.assignment) ->
      match (a.Ir.dst, a.Ir.src) with
      | Ir.Cell_port (c, "in"), Ir.Lit v when c = cell_name ->
          Hashtbl.replace states (Bitvec.to_int v) ()
      | _ -> ())
    (Ir.all_assignments comp);
  List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) states [])

let fsm_registers ctx sim =
  let out_slot = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Sim.signal) ->
      match s.Sim.sig_kind with
      | Sim.Sig_cell (cell, "out") ->
          Hashtbl.replace out_slot (s.Sim.sig_instance, cell) i
      | _ -> ())
    (Sim.signals sim);
  List.concat_map
    (fun (inst, comp_name) ->
      match Ir.find_component_opt ctx comp_name with
      | None -> []
      | Some comp ->
          List.filter_map
            (fun (c : Ir.cell) ->
              if not (is_fsm_cell c) then None
              else
                match Hashtbl.find_opt out_slot (inst, c.Ir.cell_name) with
                | None -> None
                | Some slot -> Some (inst, c.Ir.cell_name, slot))
            comp.Ir.cells)
    (Sim.instances sim)

(* ------------------------------------------------------------------ *)
(* Collector state                                                     *)
(* ------------------------------------------------------------------ *)

type node_kind = KIf | KWhile

type node_info = { ni_component : string; ni_path : string }

type if_acc = { mutable if_taken : int; mutable if_untaken : int }

type while_acc = {
  mutable wh_cur : int;  (* body trips in the current activation *)
  mutable wh_entered : int;
  wh_hist : (int, int) Hashtbl.t;  (* trip count -> completed activations *)
}

type fsm_watch = {
  fw_instance : string;
  fw_component : string;
  fw_cell : string;
  fw_slot : int;
  fw_possible : int list;
  fw_observed : (int, unit) Hashtbl.t;
}

type t = {
  inst_comp : (string, string) Hashtbl.t;
  group_cycles : (string * string, int ref) Hashtbl.t;
      (* pre-seeded with every group of every instance *)
  nodes : (string * int, node_kind * node_info) Hashtbl.t;
  ifs : (string * int, if_acc) Hashtbl.t;
  whiles : (string * int, while_acc) Hashtbl.t;
  fsms : fsm_watch list;
  signals : Sim.signal array;
  toggled : bool array;
  mutable prev_values : Bitvec.t array option;
  mutable cycles : int;
}

let sink t (ev : Sim.event) =
  t.cycles <- t.cycles + 1;
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.group_cycles key with
      | Some r -> incr r
      | None -> Hashtbl.replace t.group_cycles key (ref 1))
    ev.Sim.ev_active;
  (match t.prev_values with
  | None -> ()
  | Some prev ->
      Array.iteri
        (fun i v ->
          if not (Bitvec.equal prev.(i) v) then t.toggled.(i) <- true)
        ev.Sim.ev_values);
  t.prev_values <- Some ev.Sim.ev_values;
  List.iter
    (fun fw ->
      Hashtbl.replace fw.fw_observed
        (Bitvec.to_int ev.Sim.ev_values.(fw.fw_slot))
        ())
    t.fsms

let ctrl_sink t (ce : Sim.ctrl_event) =
  let key = (ce.Sim.ce_instance, ce.Sim.ce_node) in
  match Hashtbl.find_opt t.ifs key with
  | Some acc -> (
      match ce.Sim.ce_phase with
      | Sim.Ctrl_branch true -> acc.if_taken <- acc.if_taken + 1
      | Sim.Ctrl_branch false -> acc.if_untaken <- acc.if_untaken + 1
      | _ -> ())
  | None -> (
      match Hashtbl.find_opt t.whiles key with
      | None -> ()
      | Some acc -> (
          match ce.Sim.ce_phase with
          | Sim.Ctrl_enter ->
              acc.wh_cur <- 0;
              acc.wh_entered <- acc.wh_entered + 1
          | Sim.Ctrl_branch true -> acc.wh_cur <- acc.wh_cur + 1
          | Sim.Ctrl_branch false -> ()
          | Sim.Ctrl_exit ->
              let n =
                try Hashtbl.find acc.wh_hist acc.wh_cur with Not_found -> 0
              in
              Hashtbl.replace acc.wh_hist acc.wh_cur (n + 1)))

let create ctx sim =
  let inst_comp = Hashtbl.create 16 in
  let group_cycles = Hashtbl.create 32 in
  let nodes = Hashtbl.create 32 in
  let ifs = Hashtbl.create 8 in
  let whiles = Hashtbl.create 8 in
  List.iter
    (fun (inst, comp_name) ->
      Hashtbl.replace inst_comp inst comp_name;
      match Ir.find_component_opt ctx comp_name with
      | None -> ()
      | Some comp ->
          List.iter
            (fun (g : Ir.group) ->
              Hashtbl.replace group_cycles (inst, g.Ir.group_name) (ref 0))
            comp.Ir.groups;
          List.iter
            (fun (id, path, node) ->
              let info = { ni_component = comp_name; ni_path = path } in
              match node with
              | Ir.If _ ->
                  Hashtbl.replace nodes (inst, id) (KIf, info);
                  Hashtbl.replace ifs (inst, id)
                    { if_taken = 0; if_untaken = 0 }
              | Ir.While _ ->
                  Hashtbl.replace nodes (inst, id) (KWhile, info);
                  Hashtbl.replace whiles (inst, id)
                    { wh_cur = 0; wh_entered = 0; wh_hist = Hashtbl.create 4 }
              | _ -> ())
            (Ir.control_preorder comp.Ir.control))
    (Sim.instances sim);
  let t =
    {
      inst_comp;
      group_cycles;
      nodes;
      ifs;
      whiles;
      fsms =
        List.map
          (fun (inst, cell, slot) ->
            let comp_name = Hashtbl.find inst_comp inst in
            {
              fw_instance = inst;
              fw_component = comp_name;
              fw_cell = cell;
              fw_slot = slot;
              fw_possible =
                fsm_possible_states (Ir.find_component ctx comp_name) cell;
              fw_observed = Hashtbl.create 8;
            })
          (fsm_registers ctx sim);
      signals = Sim.signals sim;
      toggled = Array.make (Array.length (Sim.signals sim)) false;
      prev_values = None;
      cycles = 0;
    }
  in
  Sim.add_sink sim (sink t);
  Sim.add_ctrl_sink sim (ctrl_sink t);
  t

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type group_row = {
  gr_instance : string;
  gr_component : string;
  gr_group : string;
  gr_cycles : int;
}

type if_row = {
  ir_instance : string;
  ir_component : string;
  ir_path : string;
  ir_taken : int;
  ir_untaken : int;
}

type while_row = {
  wr_instance : string;
  wr_component : string;
  wr_path : string;
  wr_entered : int;
  wr_trips : (int * int) list;  (* trip count -> completed activations *)
  wr_zero_trip : bool;
}

type fsm_row = {
  fr_instance : string;
  fr_component : string;
  fr_cell : string;
  fr_possible : int list;
  fr_missed : int list;
}

let component_of t inst =
  try Hashtbl.find t.inst_comp inst with Not_found -> "?"

let by_location a b = compare a b

let group_rows t =
  Hashtbl.fold
    (fun (inst, group) cycles acc ->
      {
        gr_instance = inst;
        gr_component = component_of t inst;
        gr_group = group;
        gr_cycles = !cycles;
      }
      :: acc)
    t.group_cycles []
  |> List.sort (fun a b ->
         by_location (a.gr_instance, a.gr_group) (b.gr_instance, b.gr_group))

let if_rows t =
  Hashtbl.fold
    (fun (inst, id) acc rows ->
      let _, info = Hashtbl.find t.nodes (inst, id) in
      {
        ir_instance = inst;
        ir_component = info.ni_component;
        ir_path = info.ni_path;
        ir_taken = acc.if_taken;
        ir_untaken = acc.if_untaken;
      }
      :: rows)
    t.ifs []
  |> List.sort (fun a b ->
         by_location (a.ir_instance, a.ir_path) (b.ir_instance, b.ir_path))

let while_rows t =
  Hashtbl.fold
    (fun (inst, id) acc rows ->
      let _, info = Hashtbl.find t.nodes (inst, id) in
      let trips =
        List.sort compare
          (Hashtbl.fold (fun k v l -> (k, v) :: l) acc.wh_hist [])
      in
      {
        wr_instance = inst;
        wr_component = info.ni_component;
        wr_path = info.ni_path;
        wr_entered = acc.wh_entered;
        wr_trips = trips;
        wr_zero_trip = List.mem_assoc 0 trips;
      }
      :: rows)
    t.whiles []
  |> List.sort (fun a b ->
         by_location (a.wr_instance, a.wr_path) (b.wr_instance, b.wr_path))

let fsm_rows t =
  List.map
    (fun fw ->
      {
        fr_instance = fw.fw_instance;
        fr_component = fw.fw_component;
        fr_cell = fw.fw_cell;
        fr_possible = fw.fw_possible;
        fr_missed =
          List.filter
            (fun s -> not (Hashtbl.mem fw.fw_observed s))
            fw.fw_possible;
      })
    t.fsms
  |> List.sort (fun a b ->
         by_location (a.fr_instance, a.fr_cell) (b.fr_instance, b.fr_cell))

let while_body_ran w = List.exists (fun (trips, _) -> trips > 0) w.wr_trips

let toggle_counts t =
  let covered = ref 0 in
  Array.iter (fun b -> if b then incr covered) t.toggled;
  (!covered, Array.length t.toggled)

let untoggled t =
  let acc = ref [] in
  Array.iteri
    (fun i b ->
      if not b then acc := t.signals.(i).Sim.sig_path :: !acc)
    t.toggled;
  List.rev !acc

(* Per-component rollups. *)

type rollup = {
  ru_component : string;
  ru_groups : int * int;
  ru_if_arms : int * int;
  ru_whiles : int * int;
  ru_fsm_states : int * int;
}

let rollups t =
  let table : (string, int array) Hashtbl.t = Hashtbl.create 8 in
  (* [covered; total] per class: groups, if arms, whiles, fsm states *)
  let bump comp cls hit =
    let a =
      match Hashtbl.find_opt table comp with
      | Some a -> a
      | None ->
          let a = Array.make 8 0 in
          Hashtbl.replace table comp a;
          a
    in
    if hit then a.(2 * cls) <- a.(2 * cls) + 1;
    a.((2 * cls) + 1) <- a.((2 * cls) + 1) + 1
  in
  List.iter (fun g -> bump g.gr_component 0 (g.gr_cycles > 0)) (group_rows t);
  List.iter
    (fun i ->
      bump i.ir_component 1 (i.ir_taken > 0);
      bump i.ir_component 1 (i.ir_untaken > 0))
    (if_rows t);
  List.iter (fun w -> bump w.wr_component 2 (while_body_ran w)) (while_rows t);
  List.iter
    (fun f ->
      List.iter
        (fun s -> bump f.fr_component 3 (not (List.mem s f.fr_missed)))
        f.fr_possible)
    (fsm_rows t);
  Hashtbl.fold
    (fun comp a acc ->
      {
        ru_component = comp;
        ru_groups = (a.(0), a.(1));
        ru_if_arms = (a.(2), a.(3));
        ru_whiles = (a.(4), a.(5));
        ru_fsm_states = (a.(6), a.(7));
      }
      :: acc)
    table []
  |> List.sort (fun a b -> compare a.ru_component b.ru_component)

let pct (covered, total) =
  if total = 0 then 100. else 100. *. float_of_int covered /. float_of_int total

(* [(covered, total)] of the given rollup classes, over all components. *)
let summed t classes =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun (c, n) (c', n') -> (c + c', n + n'))
        acc (classes r))
    (0, 0) (rollups t)

(* Overall coverage counts group activations, both if arms, while bodies,
   and fsm states; port toggles are reported separately (constant-driven
   ports make a toggle total of 100% unreachable by construction). *)
let overall_pct t =
  pct
    (summed t (fun r ->
         [ r.ru_groups; r.ru_if_arms; r.ru_whiles; r.ru_fsm_states ]))

let group_pct t = pct (summed t (fun r -> [ r.ru_groups ]))

let cycles_observed t = t.cycles

let qualify inst name = if inst = "" then name else inst ^ "." ^ name

let uncovered t =
  let acc = ref [] in
  let add fmt = Printf.ksprintf (fun s -> acc := s :: !acc) fmt in
  List.iter
    (fun g ->
      if g.gr_cycles = 0 then
        add "group %s (component %s) never activated"
          (qualify g.gr_instance g.gr_group)
          g.gr_component)
    (group_rows t);
  List.iter
    (fun i ->
      let where =
        Printf.sprintf "if %s (component %s)"
          (qualify i.ir_instance i.ir_path)
          i.ir_component
      in
      if i.ir_taken = 0 then add "%s: then-branch never taken" where;
      if i.ir_untaken = 0 then add "%s: else-branch never taken" where)
    (if_rows t);
  List.iter
    (fun w ->
      if not (while_body_ran w) then
        add "while %s (component %s): body never executed"
          (qualify w.wr_instance w.wr_path)
          w.wr_component)
    (while_rows t);
  List.iter
    (fun f ->
      List.iter
        (fun s ->
          add "fsm %s (component %s): state %d never reached"
            (qualify f.fr_instance f.fr_cell)
            f.fr_component s)
        f.fr_missed)
    (fsm_rows t);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let ratio (covered, total) = Printf.sprintf "%d/%d" covered total

let render t =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "cycles observed: %d\n" t.cycles;
  pf "overall coverage: %.1f%% (groups %.1f%%)\n" (overall_pct t)
    (group_pct t);
  let groups = group_rows t in
  if groups <> [] then begin
    pf "\ngroup activation:\n";
    Tables.add_table buf
      ([ "group"; "component"; "cycles"; "covered" ]
      :: List.map
           (fun g ->
             [
               qualify g.gr_instance g.gr_group;
               g.gr_component;
               string_of_int g.gr_cycles;
               (if g.gr_cycles > 0 then "yes" else "NO");
             ])
           groups)
  end;
  let ifs = if_rows t in
  if ifs <> [] then begin
    pf "\nif branches:\n";
    Tables.add_table buf
      ([ "if"; "component"; "taken"; "not-taken"; "covered" ]
      :: List.map
           (fun i ->
             [
               qualify i.ir_instance i.ir_path;
               i.ir_component;
               string_of_int i.ir_taken;
               string_of_int i.ir_untaken;
               (if i.ir_taken > 0 && i.ir_untaken > 0 then "yes" else "NO");
             ])
           ifs)
  end;
  let whiles = while_rows t in
  if whiles <> [] then begin
    pf "\nwhile loops:\n";
    Tables.add_table buf
      ([ "while"; "component"; "activations"; "trip counts"; "zero-trip" ]
      :: List.map
           (fun w ->
             [
               qualify w.wr_instance w.wr_path;
               w.wr_component;
               string_of_int w.wr_entered;
               String.concat ", "
                 (List.map
                    (fun (trips, n) -> Printf.sprintf "%dx%d" trips n)
                    w.wr_trips);
               (if w.wr_zero_trip then "FLAGGED" else "no");
             ])
           whiles)
  end;
  let fsms = fsm_rows t in
  if fsms <> [] then begin
    pf "\nfsm states:\n";
    Tables.add_table buf
      ([ "fsm"; "component"; "states"; "missed" ]
      :: List.map
           (fun f ->
             [
               qualify f.fr_instance f.fr_cell;
               f.fr_component;
               ratio
                 ( List.length f.fr_possible - List.length f.fr_missed,
                   List.length f.fr_possible );
               (match f.fr_missed with
               | [] -> "-"
               | ss -> String.concat "," (List.map string_of_int ss));
             ])
           fsms)
  end;
  let covered, total = toggle_counts t in
  pf "\nport toggle activity: %d/%d signals changed value\n" covered total;
  let rus = rollups t in
  if rus <> [] then begin
    pf "\nper-component rollup:\n";
    Tables.add_table buf
      ([ "component"; "groups"; "if-arms"; "whiles"; "fsm-states" ]
      :: List.map
           (fun r ->
             [
               r.ru_component;
               ratio r.ru_groups;
               ratio r.ru_if_arms;
               ratio r.ru_whiles;
               ratio r.ru_fsm_states;
             ])
           rus)
  end;
  (match uncovered t with
  | [] -> pf "\nno uncovered items\n"
  | items ->
      pf "\nuncovered items:\n";
      List.iter (fun s -> pf "  %s\n" s) items);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json t =
  let pair (covered, total) =
    [ ("covered", Json.int covered); ("total", Json.int total) ]
  in
  let groups =
    List.map
      (fun g ->
        Json.obj
          [
            ("instance", Json.str g.gr_instance);
            ("component", Json.str g.gr_component);
            ("group", Json.str g.gr_group);
            ("active_cycles", Json.int g.gr_cycles);
            ("covered", Json.bool (g.gr_cycles > 0));
          ])
      (group_rows t)
  in
  let ifs =
    List.map
      (fun i ->
        Json.obj
          [
            ("instance", Json.str i.ir_instance);
            ("component", Json.str i.ir_component);
            ("path", Json.str i.ir_path);
            ("taken", Json.int i.ir_taken);
            ("not_taken", Json.int i.ir_untaken);
            ("covered", Json.bool (i.ir_taken > 0 && i.ir_untaken > 0));
          ])
      (if_rows t)
  in
  let whiles =
    List.map
      (fun w ->
        Json.obj
          [
            ("instance", Json.str w.wr_instance);
            ("component", Json.str w.wr_component);
            ("path", Json.str w.wr_path);
            ("activations", Json.int w.wr_entered);
            ( "trip_counts",
              Json.obj
                (List.map
                   (fun (trips, n) -> (string_of_int trips, Json.int n))
                   w.wr_trips) );
            ("zero_trip", Json.bool w.wr_zero_trip);
            ("covered", Json.bool (while_body_ran w));
          ])
      (while_rows t)
  in
  let fsms =
    List.map
      (fun f ->
        Json.obj
          [
            ("instance", Json.str f.fr_instance);
            ("component", Json.str f.fr_component);
            ("cell", Json.str f.fr_cell);
            ("possible_states", Json.arr (List.map Json.int f.fr_possible));
            ("missed_states", Json.arr (List.map Json.int f.fr_missed));
          ])
      (fsm_rows t)
  in
  let components =
    List.map
      (fun r ->
        Json.obj
          [
            ("component", Json.str r.ru_component);
            ("groups", Json.obj (pair r.ru_groups));
            ("if_arms", Json.obj (pair r.ru_if_arms));
            ("whiles", Json.obj (pair r.ru_whiles));
            ("fsm_states", Json.obj (pair r.ru_fsm_states));
          ])
      (rollups t)
  in
  Json.obj
    [
      ("cycles", Json.int t.cycles);
      ("overall_pct", Json.float (overall_pct t));
      ("group_pct", Json.float (group_pct t));
      ("groups", Json.arr groups);
      ("ifs", Json.arr ifs);
      ("whiles", Json.arr whiles);
      ("fsms", Json.arr fsms);
      ( "toggles",
        Json.obj
          (pair (toggle_counts t)
          @ [ ("untoggled", Json.arr (List.map Json.str (untoggled t))) ]) );
      ("components", Json.arr components);
      ("uncovered", Json.arr (List.map Json.str (uncovered t)));
    ]
