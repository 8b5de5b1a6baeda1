open Calyx
open Calyx.Ir

type mismatch = {
  path : string;
  kind : [ `Cycles | `Register | `Memory ];
  sim_value : string;
  rtl_value : string;
}

type report = {
  ok : bool;
  cycles_sim : int;
  cycles_rtl : int;
  mismatches : mismatch list;
  registers_checked : int;
  memories_checked : int;
  nets : int;
  procs : int;
  evals : int;
  sim_io : Calyx_sim.Testbench.io;
  rtl_io : Calyx_sim.Testbench.io;
}

let rtl_io v =
  {
    Calyx_sim.Testbench.read_register = Vinterp.read_register v;
    write_register = Vinterp.write_register v;
    read_memory = Vinterp.read_memory v;
    write_memory = Vinterp.write_memory v;
  }

let mem_to_string vs =
  String.concat ","
    (Array.to_list (Array.map (fun v -> Int64.to_string (Bitvec.to_int64 v)) vs))

(* One half of a validation: its result, or its exception with the rank
   of the step that raised it in the sequential order emit (0),
   Sim.create (1), Vinterp.load (2), load sim (3), load rtl (4), Sim.run
   (5), Vinterp.run (6). When both halves fail, the lower rank wins, as
   it would have in that order. *)
let half f =
  let at = ref 0 in
  match f at with
  | v -> Ok v
  | exception e -> Error (!at, e, Printexc.get_raw_backtrace ())

let rtl_half ?max_cycles ~load ctx at =
  let sv = Verilog.emit ctx in
  at := 2;
  let rtl = Vinterp.load ~top:ctx.entrypoint sv in
  let rtl_io = rtl_io rtl in
  at := 4;
  load rtl_io;
  at := 6;
  (rtl, rtl_io, Vinterp.run ?max_cycles rtl)

let calyx_half ?engine ?max_cycles ~load ctx at =
  at := 1;
  let sim = Calyx_sim.Sim.create ?engine ctx in
  let sim_io = Calyx_sim.Testbench.of_sim sim in
  at := 3;
  load sim_io;
  at := 5;
  (sim_io, Calyx_sim.Sim.run ?max_cycles sim)

let validate ?engine ?max_cycles
    ?(load = fun (_ : Calyx_sim.Testbench.io) -> ()) ?simulated ctx =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "validate" @@ fun () ->
  let rtl () = half (rtl_half ?max_cycles ~load ctx) in
  let rtl, calyx =
    match simulated with
    | Some sim ->
        let cycles = Calyx_sim.Sim.cycles_elapsed sim in
        (rtl (), Ok (Calyx_sim.Testbench.of_sim sim, cycles))
    | None ->
        (* The Calyx half runs on Pool.both's helper while this domain
           emits and runs the RTL. A program with groups or control fails
           here, before either simulation starts. *)
        Verilog.check_lowered ctx;
        let carry = Calyx_telemetry.Manifest.carry () in
        Calyx_pool.Pool.both rtl (fun () ->
            carry (fun () -> half (calyx_half ?engine ?max_cycles ~load ctx)))
  in
  let (rtl, rtl_io, cycles_rtl), (sim_io, cycles_sim) =
    match (rtl, calyx) with
    | Ok r, Ok c -> (r, c)
    | Error (i, e, bt), Error (j, _, _) when i < j ->
        Printexc.raise_with_backtrace e bt
    | _, Error (_, e, bt) | Error (_, e, bt), _ ->
        Printexc.raise_with_backtrace e bt
  in
  let regs, mems = Calyx_sim.Sim.state_cells ctx in
  let mismatches = ref [] in
  let add path kind sim_value rtl_value =
    mismatches := { path; kind; sim_value; rtl_value } :: !mismatches
  in
  if cycles_sim <> cycles_rtl then
    add "cycles" `Cycles (string_of_int cycles_sim) (string_of_int cycles_rtl);
  List.iter
    (fun path ->
      let s = sim_io.Calyx_sim.Testbench.read_register path in
      let r = rtl_io.Calyx_sim.Testbench.read_register path in
      if not (Bitvec.equal s r) then
        add path `Register (Bitvec.to_string s) (Bitvec.to_string r))
    regs;
  List.iter
    (fun path ->
      let s = sim_io.Calyx_sim.Testbench.read_memory path in
      let r = rtl_io.Calyx_sim.Testbench.read_memory path in
      if
        Array.length s <> Array.length r
        || not (Array.for_all2 Bitvec.equal s r)
      then add path `Memory (mem_to_string s) (mem_to_string r))
    mems;
  let nets, procs = Vinterp.stats rtl in
  if Calyx_telemetry.Runtime.on () then begin
    Calyx_telemetry.Trace.add_metric "mismatches"
      (float_of_int (List.length !mismatches));
    Calyx_telemetry.Trace.add_metric "cycles" (float_of_int cycles_sim)
  end;
  {
    ok = !mismatches = [];
    cycles_sim;
    cycles_rtl;
    mismatches = List.rev !mismatches;
    registers_checked = List.length regs;
    memories_checked = List.length mems;
    nets;
    procs;
    evals = Vinterp.evals rtl;
    sim_io;
    rtl_io;
  }

let pp_report fmt r =
  Format.fprintf fmt "sim %d cycles, rtl %d cycles; %d registers, %d memories compared (%d nets, %d processes)"
    r.cycles_sim r.cycles_rtl r.registers_checked r.memories_checked r.nets
    r.procs;
  if r.ok then Format.fprintf fmt "; exact agreement"
  else
    List.iter
      (fun m ->
        Format.fprintf fmt "@.  MISMATCH %s: sim=%s rtl=%s" m.path m.sim_value
          m.rtl_value)
      r.mismatches
