(** Design spans: what a simulation's control did, cycle by cycle.

    {!create} records two kinds, as the program provides them:

    - control spans, from the reference interpreter's control events
      ({!Calyx_sim.Sim.ctrl_event}): one per control-node activation,
      [seq]/[par]/[if]/[while]/[enable] each an interval [enter..exit] in
      cycles (inclusive at both ends — a node that starts and finishes at
      the same clock edge spans one cycle);
    - fsm spans, from the value runs of the generated [fsm] schedule
      registers ("fsm=3" for the interval the register held 3), one trace
      thread per register.

    A structured program has a control tree and no generated registers; a
    compiled one has no control tree (it emits no control events) and
    holds its schedule in [fsm] registers.

    {!events} gives the spans as {!Calyx_telemetry.Trace.Cycles} events
    for the toolchain's one Chrome exporter,
    {!Calyx_telemetry.Trace.chrome}: instances (or fsm registers) are
    named threads ([<entry>] for the entrypoint); 1 cycle = 1 µs. *)

open Calyx

type span = {
  sp_thread : string;
      (** Instance path for control spans ([""] = entrypoint); [instance.cell]
          for fsm spans. *)
  sp_name : string;  (** Label: ["seq"], ["enable g"], ["fsm=3"], … *)
  sp_path : string;  (** Control path within the component, or cell name. *)
  sp_node : int;  (** {!Ir.control_preorder} id; [-1] for fsm spans. *)
  sp_enter : int;
  sp_exit : int;  (** Inclusive; duration is [exit - enter + 1] cycles. *)
}

type t

val create : Ir.context -> Calyx_sim.Sim.t -> t
(** Attach a span collector to a simulation of [ctx] ([ctx] supplies node
    labels and paths, and its generated [fsm] registers). *)

val spans : t -> span list
(** All recorded spans. Spans still open at the last observed cycle (a
    timed-out run) are closed there, so partial traces stay loadable. *)

val events : t -> Calyx_telemetry.Trace.event list
(** The spans as Chrome trace events in the cycle domain (category
    ["control"] or ["fsm"]), in a deterministic order. *)
