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

(** {1 Re-checking a pass's output} *)

type recheck = {
  errors : string list;  (** Exactly {!errors} of the program. *)
  reused_assignments : int;
      (** Assignments whose clean verdict was kept without a re-check. *)
  rechecked_assignments : int;  (** Assignments checked again. *)
}

val recheck : ?before:Ir.context -> Ir.context -> recheck
(** [recheck ~before ctx] is {!errors} of [ctx], computed from what
    differs between [ctx] and [before], which must be well-formed ([errors
    before = []]; a pass's input that has passed {!check} or a re-check).
    A component keeps the clean verdicts of [before]'s parts when every
    component keeps its name, position, extern-ness and physically equal
    ([==]) [inputs] and [outputs], its input's cells start its own
    physically, and its input's groups' names start its own in order.
    Then only the groups whose [assigns] list is not [==] the input's
    group's of the same name, and the continuous assignments and the
    control program where those are not [==], are checked again; the
    duplicate-name, go/done and prototype checks run again when the cells
    or the groups are not [==]. A component that breaks the rule is
    checked in full, and so is everything when the signatures differ.
    When anything is wrong, the errors are those of the full {!errors}, in
    its order. Without [before], this is the full check. *)
