(** Dead-cell removal.

    Deletes cells none of whose ports appear in any assignment or control
    condition. Cells carrying the ["external"] attribute (test-bench
    memories) are always kept. Run after {!Remove_groups}, where inlining
    can leave constant-folded logic behind, and usable at any earlier point
    as a cleanup. *)

val referenced : Ir.component -> string -> bool
(** [referenced comp] walks [comp] once and answers whether a cell name
    appears in some assignment (as destination, source or guard) or in a
    control statement ([if]/[while] condition ports, [invoke]). The pass
    keeps exactly these cells and the external ones; lint's CX024 warns on
    the rest. *)

val pass : Pass.t
