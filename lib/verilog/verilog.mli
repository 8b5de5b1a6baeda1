(** The Lower pass backend: SystemVerilog emission (Section 4.2).

    Translates fully lowered Calyx (no groups, no control — run
    [Pipelines.compile] first) into synthesizable SystemVerilog: one module
    per component, one parameterized module per primitive used, wires for
    every cell port, and a ternary chain per driven port reflecting its
    guarded drivers. A clock is threaded through every stateful primitive
    and sub-component instance, mirroring the paper's code-generation step.

    [extern] components are emitted as black-box instantiations; the
    referenced source file is recorded in a comment header so a downstream
    flow can link it (Section 6.2). *)

open Calyx

exception Not_lowered of string
(** Raised when a component still has groups or control statements. *)

val check_lowered : Ir.context -> unit
(** Raise {!Not_lowered} for the first component {!emit} would reject for
    its groups or control, with the same message; do nothing when there
    is none. *)

val emit : Ir.context -> string
(** The whole program: primitive library followed by component modules (the
    entrypoint last). *)

val loc : string -> int
(** Non-empty line count of generated code (the Section 7.4 statistic). *)
