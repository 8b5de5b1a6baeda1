(** Live-range analysis over parallel control flow (Section 5.2).

    A structured backward dataflow over the control tree. [par] blocks are
    handled in the spirit of Srinivasan–Wolfe parallel CFGs: each child is
    analyzed against the liveness leaving the whole block, and registers
    touched by sibling children additionally interfere with each other.
    [while] loops iterate to a fixpoint.

    The result is the interference relation the register-sharing pass
    colors: two registers conflict when one is defined (or live) at a point
    where the other is live, or when parallel branches touch both.

    Register sets are {!Intset}s over the register ids that the caller
    supplies, so they index the caller's own tables directly. Each group's
    read, must-write and touched sets are built once, in one walk over its
    assignments; the live sets then flow through the control tree as
    persistent tries, so each step costs the registers it adds or kills,
    not the size of the register file. *)

type result = {
  registers : string list;
      (** The component's [std_reg] cells, in declaration order. *)
  cliques : Intset.t list;
      (** Each set is pairwise-interfering and has two or more members;
          no two sets are equal. *)
}

val analyze : id:(string -> int) -> Ir.component -> result
(** [analyze ~id comp] analyzes a component's control program over its
    [std_reg] cells. [id] numbers the registers: it is called once per
    register, in declaration order, before any set is built, and must give
    distinct names distinct ids. Registers referenced by continuous
    assignments are treated as live everywhere: they join every clique
    and form one clique of their own. *)
