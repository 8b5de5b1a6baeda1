open Calyx
module Sim = Calyx_sim.Sim
module Json = Calyx_telemetry.Json

type group_stat = {
  gs_instance : string;
  gs_component : string;
  gs_group : string;
  gs_active_cycles : int;
  gs_activations : int;
}

type cell_stat = { cs_path : string; cs_active_cycles : int }

type group_acc = { mutable ga_active : int; mutable ga_activations : int }

type cell_watch = {
  cw_path : string;
  cw_indices : int list;  (* signal indices of go/write_en inputs *)
  mutable cw_active : int;
}

type t = {
  inst_comp : (string, string) Hashtbl.t;  (* instance path -> component *)
  groups : (string * string, group_acc) Hashtbl.t;
  cells : cell_watch list;  (* sorted by path *)
  mutable prev_active : (string * string) list;
  mutable cycles : int;
  mutable settle_total : int;
  mutable settle_max : int;
}

let cell_path instance cell =
  if instance = "" then cell else instance ^ "." ^ cell

let create sim =
  let inst_comp = Hashtbl.create 16 in
  List.iter
    (fun (path, comp) -> Hashtbl.replace inst_comp path comp)
    (Sim.instances sim);
  (* Every cell input named go or write_en is an activity strobe; a cell may
     have several watched inputs (none of the standard library's do, but the
     grouping is by cell path, so it would just OR them). *)
  let watches = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Sim.signal) ->
      match s.Sim.sig_kind with
      | Sim.Sig_cell (cell, ("go" | "write_en")) ->
          let path = cell_path s.Sim.sig_instance cell in
          Hashtbl.replace watches path
            (i :: (try Hashtbl.find watches path with Not_found -> []))
      | _ -> ())
    (Sim.signals sim);
  let cells =
    Hashtbl.fold
      (fun path idxs acc ->
        { cw_path = path; cw_indices = idxs; cw_active = 0 } :: acc)
      watches []
    |> List.sort (fun a b -> compare a.cw_path b.cw_path)
  in
  {
    inst_comp;
    groups = Hashtbl.create 16;
    cells;
    prev_active = [];
    cycles = 0;
    settle_total = 0;
    settle_max = 0;
  }

let sink t (ev : Sim.event) =
  t.cycles <- t.cycles + 1;
  t.settle_total <- t.settle_total + ev.Sim.ev_iters;
  if ev.Sim.ev_iters > t.settle_max then t.settle_max <- ev.Sim.ev_iters;
  List.iter
    (fun key ->
      let acc =
        match Hashtbl.find_opt t.groups key with
        | Some acc -> acc
        | None ->
            let acc = { ga_active = 0; ga_activations = 0 } in
            Hashtbl.replace t.groups key acc;
            acc
      in
      acc.ga_active <- acc.ga_active + 1;
      if not (List.mem key t.prev_active) then
        acc.ga_activations <- acc.ga_activations + 1)
    ev.Sim.ev_active;
  t.prev_active <- ev.Sim.ev_active;
  List.iter
    (fun cw ->
      if
        List.exists
          (fun i -> Bitvec.is_true ev.Sim.ev_values.(i))
          cw.cw_indices
      then cw.cw_active <- cw.cw_active + 1)
    t.cells

let total_cycles t = t.cycles
let settle_total t = t.settle_total
let settle_max t = t.settle_max

let group_stats t =
  Hashtbl.fold
    (fun (instance, group) acc stats ->
      {
        gs_instance = instance;
        gs_component =
          (try Hashtbl.find t.inst_comp instance with Not_found -> "?");
        gs_group = group;
        gs_active_cycles = acc.ga_active;
        gs_activations = acc.ga_activations;
      }
      :: stats)
    t.groups []
  |> List.sort (fun a b ->
         match compare a.gs_instance b.gs_instance with
         | 0 -> compare a.gs_group b.gs_group
         | c -> c)

let cell_stats t =
  List.filter_map
    (fun cw ->
      if cw.cw_active = 0 then None
      else Some { cs_path = cw.cw_path; cs_active_cycles = cw.cw_active })
    t.cells

type latency_row = {
  lr_stat : group_stat;
  lr_derived : int option;
  lr_annotated : int option;
  lr_expected : int option;
  lr_mismatch : bool;
}

(* A group whose done hole is driven by an unconditional constant presents
   done combinationally; any other group registers it and pays one extra
   cycle per activation before the interpreter observes done. *)
let combinational_done (g : Ir.group) =
  List.exists
    (fun (a : Ir.assignment) ->
      match (a.Ir.dst, a.Ir.guard, a.Ir.src) with
      | Ir.Hole (name, "done"), Ir.True, Ir.Lit v ->
          name = g.Ir.group_name && Bitvec.is_true v
      | _ -> false)
    g.Ir.assigns

let latency_rows ctx stats =
  (* One cell and group index per component, shared by its instances. *)
  let indexes = Hashtbl.create 8 in
  let index comp =
    match Hashtbl.find_opt indexes comp.Ir.comp_name with
    | Some t -> t
    | None ->
        let t = (Ir.cell_index comp, Ir.group_index comp) in
        Hashtbl.replace indexes comp.Ir.comp_name t;
        t
  in
  List.map
    (fun gs ->
      let info =
        match Ir.find_component_opt ctx gs.gs_component with
        | None -> None
        | Some comp -> (
            let cells, groups = index comp in
            match Hashtbl.find_opt groups gs.gs_group with
            | None -> None
            | Some g -> Some (comp, cells, g))
      in
      match info with
      | None ->
          {
            lr_stat = gs;
            lr_derived = None;
            lr_annotated = None;
            lr_expected = None;
            lr_mismatch = false;
          }
      | Some (comp, cells, g) ->
          let derived = Infer_latency.derived_group_latency ctx cells comp g in
          let annotated = Attrs.static g.Ir.group_attrs in
          let expected =
            Option.map
              (fun d -> if combinational_done g then d else d + 1)
              derived
          in
          let mismatch =
            match expected with
            | None -> false
            | Some e -> gs.gs_active_cycles <> e * gs.gs_activations
          in
          {
            lr_stat = gs;
            lr_derived = derived;
            lr_annotated = annotated;
            lr_expected = expected;
            lr_mismatch = mismatch;
          })
    stats

let latency_report ctx t = latency_rows ctx (group_stats t)
let mismatches ctx t = List.filter (fun r -> r.lr_mismatch) (latency_report ctx t)

let qualified gs =
  if gs.gs_instance = "" then gs.gs_group
  else gs.gs_instance ^ "." ^ gs.gs_group

let opt_str = function None -> "-" | Some n -> string_of_int n

let render ?ctx t =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "total cycles: %d\n" t.cycles;
  pf "settle iterations: %d total, %d max/cycle\n" t.settle_total
    t.settle_max;
  let stats = group_stats t in
  if stats <> [] then begin
    pf "\ngroups:\n";
    let rows =
      match ctx with
      | None ->
          List.map
            (fun gs ->
              [
                qualified gs;
                string_of_int gs.gs_active_cycles;
                string_of_int gs.gs_activations;
                Tables.pct gs.gs_active_cycles t.cycles;
              ])
            stats
          |> List.cons [ "group"; "cycles"; "runs"; "share" ]
      | Some ctx ->
          List.map
            (fun r ->
              [
                qualified r.lr_stat;
                string_of_int r.lr_stat.gs_active_cycles;
                string_of_int r.lr_stat.gs_activations;
                Tables.pct r.lr_stat.gs_active_cycles t.cycles;
                opt_str r.lr_derived;
                opt_str r.lr_annotated;
                (if r.lr_mismatch then "MISMATCH" else "ok");
              ])
            (latency_rows ctx stats)
          |> List.cons
               [ "group"; "cycles"; "runs"; "share"; "derived"; "static";
                 "latency" ]
    in
    Tables.add_table buf rows
  end;
  let cells = cell_stats t in
  if cells <> [] then begin
    pf "\ncell utilization:\n";
    let w =
      List.fold_left (fun w c -> max w (String.length c.cs_path)) 0 cells
    in
    List.iter
      (fun c ->
        pf "%-*s  %d cycles (%5.1f%%)\n" w c.cs_path c.cs_active_cycles
          (100. *. float_of_int c.cs_active_cycles
          /. float_of_int (max 1 t.cycles)))
      cells
  end;
  Buffer.contents buf

let opt_json = function None -> Json.null | Some n -> Json.int n

let to_json ?ctx t =
  let stats = group_stats t in
  let groups =
    match ctx with
    | None ->
        List.map
          (fun gs ->
            Json.obj
              [
                ("instance", Json.str gs.gs_instance);
                ("component", Json.str gs.gs_component);
                ("group", Json.str gs.gs_group);
                ("active_cycles", Json.int gs.gs_active_cycles);
                ("activations", Json.int gs.gs_activations);
              ])
          stats
    | Some ctx ->
        List.map
          (fun r ->
            Json.obj
              [
                ("instance", Json.str r.lr_stat.gs_instance);
                ("component", Json.str r.lr_stat.gs_component);
                ("group", Json.str r.lr_stat.gs_group);
                ("active_cycles", Json.int r.lr_stat.gs_active_cycles);
                ("activations", Json.int r.lr_stat.gs_activations);
                ("derived_latency", opt_json r.lr_derived);
                ("static_latency", opt_json r.lr_annotated);
                ("expected_cycles_per_run", opt_json r.lr_expected);
                ("latency_mismatch", Json.bool r.lr_mismatch);
              ])
          (latency_rows ctx stats)
  in
  let cells =
    List.map
      (fun c ->
        Json.obj
          [
            ("cell", Json.str c.cs_path);
            ("active_cycles", Json.int c.cs_active_cycles);
          ])
      (cell_stats t)
  in
  Json.obj
    [
      ("total_cycles", Json.int t.cycles);
      ("settle_iterations", Json.int t.settle_total);
      ("settle_iterations_max_per_cycle", Json.int t.settle_max);
      ("groups", Json.arr groups);
      ("cells", Json.arr cells);
    ]
