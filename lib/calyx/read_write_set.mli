(** Register read/write sets of groups (Section 5.2).

    Conservative over-approximation as the paper requires: the read set is
    the registers a group {e may} read; the must-write set is the registers
    it {e must} write (an unconditional [write_en = 1] drive).

    The per-group sets take the names of the component's [std_reg] cells,
    computed once by the caller. *)

val reads : Ir.String_set.t -> Ir.group -> Ir.String_set.t
(** Registers whose [out] port appears in a source or guard of the group. *)

val may_writes : Ir.String_set.t -> Ir.group -> Ir.String_set.t
(** Registers whose [in] or [write_en] port is driven by the group. *)

val must_writes : Ir.String_set.t -> Ir.group -> Ir.String_set.t
(** Registers whose [write_en] the group drives unconditionally with a
    non-zero constant. *)

(** {1 Cell-granularity sets}

    Used by the par data-race lint ({!Lint}): any cell — stateful or
    combinational — touched by a group, not just registers. *)

val cell_reads : Ir.group -> Ir.String_set.t
(** Cells one of whose ports appears in a source or guard of the group. *)

val cell_writes : Ir.group -> Ir.String_set.t
(** Cells one of whose ports is driven by the group. *)
