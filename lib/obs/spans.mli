(** Control-tree span collection and Chrome trace_event export.

    {!create} listens to the reference interpreter's control events
    ({!Calyx_sim.Sim.ctrl_event}) and records one span per control-node
    activation: [seq]/[par]/[if]/[while]/[enable] each get an interval
    [enter..exit] in cycles (inclusive at both ends — a node that starts
    and finishes at the same clock edge spans one cycle).

    {!create_fsm} serves {e compiled} programs, which have no control tree:
    it derives spans from the value runs of the generated [fsm] schedule
    registers instead ("fsm=3" for the interval the register held 3), one
    trace thread per register.

    {!to_chrome} renders either kind as Chrome trace_event JSON — open
    {:https://ui.perfetto.dev} and drop the file in. The spans become
    {!Calyx_telemetry.Trace.Cycles} events of the toolchain's one exporter,
    {!Calyx_telemetry.Trace.chrome}: instances (or fsm registers) are named
    threads ([<entry>] for the entrypoint); 1 cycle = 1 µs. *)

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
(** Attach a control-span collector ([ctx] supplies node labels/paths). *)

val create_fsm : Ir.context -> Calyx_sim.Sim.t -> t
(** Attach an fsm-value span collector (for compiled programs). *)

val spans : t -> span list
(** All recorded spans. Spans still open at the last observed cycle (a
    timed-out run) are closed there, so partial traces stay loadable. *)

val to_chrome : t -> string
(** The spans as a Chrome trace_event JSON document ([traceEvents] array of
    ["X"] complete events plus process- and thread-name metadata),
    deterministically ordered. *)
