(** Translation validation: run a compiled program under both the
    cycle-accurate simulator ({!Calyx_sim.Sim}) and the RTL interpreter
    ({!Vinterp}) over the emitted SystemVerilog, on identical inputs, and
    require exact agreement on the cycle count and on every architectural
    state element — the final value of every [std_reg] and the final
    contents of every memory, enumerated recursively over the lowered
    design's cell hierarchy (FSM and schedule registers included, so the
    check covers the control path as well as the data path). *)

open Calyx

type mismatch = {
  path : string;  (** Dotted cell path, or ["cycles"]. *)
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
  nets : int;  (** Elaborated RTL nets. *)
  procs : int;  (** Elaborated RTL evaluation processes. *)
  evals : int;  (** RTL settle-process evaluations ({!Vinterp.evals}). *)
  sim_io : Calyx_sim.Testbench.io;  (** Post-run simulator state access. *)
  rtl_io : Calyx_sim.Testbench.io;  (** Post-run RTL state access. *)
}

val rtl_io : Vinterp.t -> Calyx_sim.Testbench.io
(** The RTL interpreter's poke/peek operations as a {!Calyx_sim.Testbench.io},
    so data loaders written against the simulator drive the RTL too. *)

val validate :
  ?engine:Calyx_sim.Sim.engine ->
  ?max_cycles:int ->
  ?load:(Calyx_sim.Testbench.io -> unit) ->
  ?simulated:Calyx_sim.Sim.t ->
  Ir.context ->
  report
(** Emit [ctx] (which must already be lowered — see {!Verilog.emit}) to
    SystemVerilog, elaborate it with {!Vinterp}, apply [load] to both
    backends (default: nothing), run both to completion, and compare the
    cycle counts and every cell of {!Calyx_sim.Sim.state_cells}.
    [simulated] is a simulator of [ctx] that the caller has already
    loaded and run to completion from creation: it stands in for the
    simulator side (its state, and {!Calyx_sim.Sim.cycles_elapsed} as its
    cycle count), so the program is not simulated twice; [load] then
    applies to the RTL only, and [engine] is unused.
    Raises whatever either backend raises ([Sim.Timeout], {!Vinterp.Unstable},
    ...) — a crash on one side is a validation failure the caller reports. *)

val pp_report : Format.formatter -> report -> unit
(** A short human-readable summary (cycle counts, state-element counts,
    and every mismatch). *)
