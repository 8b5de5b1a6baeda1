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

    Without [simulated], the simulator side ({!Calyx_sim.Sim.create},
    [load], {!Calyx_sim.Sim.run}) runs through {!Calyx_pool.Pool.both}
    while the calling domain emits, loads and runs the RTL: [load] may
    run on two domains at once, on two distinct ios, so it must not
    mutate state it shares between calls. Telemetry spans of the
    simulator side nest under this call's ["validate"] span as if it had
    run on the caller.
    [simulated] is a simulator of [ctx] that the caller has already
    loaded and run to completion from creation: it stands in for the
    simulator side (its state, and {!Calyx_sim.Sim.cycles_elapsed} as its
    cycle count), so the program is not simulated twice; [load] then
    applies to the RTL only, [engine] is unused, and nothing runs on
    another domain.

    Raises {!Verilog.Not_lowered} before anything runs when [ctx] still
    has groups or control. Otherwise raises whatever either backend
    raises ([Sim.Timeout], {!Vinterp.Unstable}, ...) — a crash on one
    side is a validation failure the caller reports. When both sides
    raise, the exception is the one the sequential order (emit,
    [Sim.create], [Vinterp.load], load the simulator, load the RTL,
    [Sim.run], [Vinterp.run]) would have raised first. *)

val pp_report : Format.formatter -> report -> unit
(** A short human-readable summary (cycle counts, state-element counts,
    and every mismatch). *)
