(** Live-range analysis over parallel control flow (Section 5.2).

    A structured backward dataflow over the control tree. [par] blocks are
    handled in the spirit of Srinivasan–Wolfe parallel CFGs: each child is
    analyzed against the liveness leaving the whole block, and registers
    touched by sibling children additionally interfere with each other.
    [while] loops iterate to a fixpoint.

    The result is the interference relation the register-sharing pass
    colors: two registers conflict when one is defined (or live) at a point
    where the other is live, or when parallel branches touch both.

    Register sets are {!Bitset}s over the register ids that the caller
    supplies, so they index the caller's own tables directly. *)

type result = {
  registers : string list;
      (** The component's [std_reg] cells, in declaration order. *)
  live_in : Bitset.t;
      (** Registers live on entry to the whole control program. *)
  conflict_cliques : Bitset.t list;
      (** Each set is pairwise-interfering; no two sets are equal. *)
}

val analyze : id:(string -> int) -> Ir.component -> result
(** [analyze ~id comp] analyzes a component's control program over its
    [std_reg] cells. [id] numbers the registers: it is called once per
    register, in declaration order, before any set is built, and must give
    distinct names distinct ids. Registers referenced by continuous
    assignments are treated as live everywhere: they join every clique
    and form one clique of their own. *)
