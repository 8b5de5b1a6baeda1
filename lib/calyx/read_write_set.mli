(** Register read/write sets of groups (Section 5.2).

    Conservative over-approximation as the paper requires: the read set is
    the registers a group {e may} read; the must-write set is the registers
    it {e must} write (an unconditional [write_en = 1] drive). Every
    must-write is also a may-write. *)

type 'r registers = {
  reads : 'r list;
      (** Registers whose [out] port appears in a source or guard of the
          group. *)
  must_writes : 'r list;
      (** Registers whose [write_en] the group drives unconditionally with
          a non-zero constant. *)
  may_writes : 'r list;
      (** Registers whose [in] or [write_en] port is driven by the group. *)
}
(** Each list may name a register more than once. *)

val registers : (string -> 'r option) -> Ir.group -> 'r registers
(** [registers reg group]: one walk over the group's assignments. [reg]
    maps a cell name to its register (an id, or the name itself), or to
    [None] for a cell that is not a register. *)

(** {1 Cell-granularity sets}

    Used by the par data-race lint ({!Lint}): any cell — stateful or
    combinational — touched by a group, not just registers. *)

val cell_reads : Ir.group -> Ir.String_set.t
(** Cells one of whose ports appears in a source or guard of the group. *)

val cell_writes : Ir.group -> Ir.String_set.t
(** Cells one of whose ports is driven by the group. *)
