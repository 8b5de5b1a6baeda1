(** Structural validation of Calyx programs.

    Checks the invariants the rest of the compiler relies on: resolvable
    names, direction-correct and width-correct assignments, groups that
    drive their own [done] hole, control programs that reference existing
    groups, valid invoke bindings (inputs {e and} outputs), readable 1-bit
    conditions, no duplicate unconditional drivers within a group, and the
    [go: 1] input and [done: 1] output of the calling convention on every
    component with a body.

    Every check emits a coded {!Diagnostics.t} (codes [CX001]–[CX013], all
    [Error] severity); the string-based API below renders them for
    backwards compatibility. Semantic lints with [CX02x] codes live in
    {!Lint}. *)

exception Malformed of string list
(** All collected problems, one rendered diagnostic each. *)

val diagnostics : Ir.context -> Diagnostics.t list
(** All structural diagnostics of a program (empty when well-formed). *)

val component_diagnostics : Ir.context -> Ir.component -> Diagnostics.t list
(** Diagnostics of one component. *)

val check : Ir.context -> unit
(** Validate a whole program; raises {!Malformed} when anything is wrong. *)

val check_component : Ir.context -> Ir.component -> string list
(** Rendered problems found in one component (empty when well-formed). *)

val errors : Ir.context -> string list
(** Rendered problems in the program, without raising. *)
