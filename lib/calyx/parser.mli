(** Recursive-descent parser for the Calyx surface syntax.

    Accepts the syntax produced by {!Printer} (and hand-written programs):
    components with [cells]/[wires]/[control] sections, groups with
    attributes, guarded assignments, the control operators
    [seq]/[par]/[if]/[while], and [extern] blocks for black-box RTL
    components (Section 6.2 of the paper). *)

exception Parse_error of string
(** Raised with a message that starts with the line and column of the
    token the parser stopped at ([line 3:14: expected ...]). *)

val parse_string : ?entrypoint:string -> string -> Ir.context
(** Parse a whole program. The entrypoint defaults to ["main"]; parsing does
    not require the entrypoint to exist (use {!Well_formed} for that). *)

val parse_file : ?entrypoint:string -> string -> Ir.context
(** Read and parse a file. *)
