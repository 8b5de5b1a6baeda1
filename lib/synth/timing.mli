(** Delay-annotated static timing analysis — the physical-timing
    counterpart of {!Area}, closing the gap between the paper's
    cycle-count results and its Vivado-derived Fmax/wall-clock numbers.

    The model assigns every combinational arc a delay in {b picoseconds},
    width-aware and calibrated alongside {!Area}'s LUT6 constants (see the
    calibration table in DESIGN.md): carry-chain adders grow with
    [log2 width], DSP multipliers pay a block delay plus cascade stages,
    shifters pay a mux stage per shift bit, guarded assignments pay their
    mux tree and guard logic. Registers, memories' write ports and
    pipelined units cut paths; their outputs launch paths with a
    clock-to-Q offset and their inputs terminate paths with a setup time.

    The analysis flattens the instance hierarchy — a sub-component's
    internals are analyzed in place under its dotted instance prefix — so
    input-to-output dependencies are {e exact}: an input that only reaches
    a register does not leak a false combinational arc to the outputs
    (the conservative every-input-to-every-output assumption the first
    version of this module made).

    Structured (group- and control-carrying) components are analyzed as
    their merged netlist: group assignments join the continuous ones,
    group [go] holes launch paths (they are FSM-register-driven once
    compiled) and hole-to-hole done propagation stays combinational.
    This lets per-pass instrumentation report depth deltas mid-pipeline;
    the headline numbers are computed on the fully lowered netlist.

    Like the area model, delays are {b relative, not absolute}: the
    constants preserve the direction and rough magnitude of
    architecture-level comparisons (sharing deepens muxes, wider adders
    are slower, a DSP multiply dominates an add), not a signoff report. *)

open Calyx

type path = {
  p_start : string;  (** Launching port (dotted path from the entrypoint). *)
  p_end : string;  (** Capturing port. *)
  p_delay_ps : int;  (** Total delay including clock-to-Q and setup. *)
  p_levels : int;  (** Logic levels along this path. *)
  p_ports : string list;  (** Every port on the path, source to sink. *)
}

type report = {
  levels : int;  (** Logic levels on the deepest combinational path. *)
  critical : string list;
      (** The worst path's ports, source to sink (compatibility alias for
          [(List.hd paths).p_ports]). *)
  delay_ps : int;  (** Critical-path delay in picoseconds. *)
  fmax_mhz : float;  (** [1e6 / max delay_ps min_period_ps]. *)
  paths : path list;  (** The K worst paths, one per distinct endpoint,
                          worst first. *)
}

exception Combinational_loop of string
(** The design has a combinational cycle through the named port. *)

(** {1 Analysis} *)

val context_timing : ?paths:int -> Ir.context -> report
(** Full analysis of the entrypoint (lowered or structured); [paths]
    bounds the number of reported worst paths (default 5). *)

(** {1 Clock and wall-time derivation} *)

val min_period_ps : int
(** Fabric floor on the achievable clock period: an empty or purely
    sequential design still cannot clock faster than this. *)

val period_ps : report -> int
(** The estimated achievable clock period:
    [max delay_ps min_period_ps]. *)

val period_ns : report -> float
val fmax_of_ps : int -> float
(** Fmax in MHz for a period (or critical-path delay) in picoseconds,
    clamped to {!min_period_ps}. *)

val wall_ns : report -> cycles:int -> float
(** Estimated wall-clock time: [cycles * period_ns]. *)

val slack_ps : report -> period_ps:int -> int
(** [period_ps - delay_ps]: negative when the design cannot meet the
    target period. *)

(** {1 Attribution} *)

type attribution = {
  at_cell : string;  (** Dotted cell path (or group hole) on the path. *)
  at_groups : string list;
      (** Structured groups whose assignments touch the cell, qualified by
          instance path. *)
  at_control : string list;
      (** Control statements enabling those groups, as
          ["label @ path"] strings. *)
}

val attribute : Ir.context -> string list -> attribution list
(** Map a path's ports back to cells, the groups that drive them in the
    {e structured} program, and the control nodes that enable those
    groups. One entry per distinct cell, in path order; cells introduced
    by lowering (FSM registers, hole wires) report no groups. *)

(** {1 Rendering} *)

val render :
  ?attribute_ctx:Ir.context -> ?target_period_ps:int -> report -> string
(** Human-readable report: delay, Fmax, levels, the worst paths with
    per-cell attribution (when [attribute_ctx] supplies the structured
    program), and slack against [target_period_ps] when given. *)

val to_json :
  ?attribute_ctx:Ir.context -> ?target_period_ps:int -> report -> string
(** The same data as a JSON object (snake_case keys, one top-level
    object, following the {!Calyx.Diagnostics} JSON conventions). *)

(** {1 Introspection (for tests and cross-checks)} *)

val port_edges : Ir.context -> Ir.component -> (string * string) list
(** The flattened combinational port graph the analysis ran on, as
    [(src, dst)] dotted-path pairs — the same dependency structure the
    compiled simulation engine levelizes, exposed so tests can
    cross-check the two. *)

val delay_constants : (string * int) list
(** The calibration table, [(name, picoseconds)] — mirrored in
    DESIGN.md. *)
