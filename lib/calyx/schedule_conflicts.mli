(** May-run-in-parallel analysis over the execution schedule (Section 5.1).

    Two groups conflict when the control program may activate them in the
    same cycle: they live under different children of some [par] block.
    Condition groups of [if]/[while] count as members of their subtree. *)

val subtree_groups : Ir.control -> Ir.String_set.t
(** Every group referenced in a control subtree (enables and [with]s). *)

val conflicts : Ir.control -> (string * string) list
(** All conflicting group pairs (each pair once, unordered). *)
