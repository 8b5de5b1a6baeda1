(** Random well-formed, race-free, terminating Calyx programs, as a
    shrinkable generator.

    Programs are described by a {!spec} — a small control-shape term — and
    materialized by {!build}. Every register reference in a spec is an
    abstract index resolved modulo the set of registers legally readable at
    that point (registers whose writer has definitely completed), so {e
    every} spec builds a well-formed program: shrinking can drop or
    simplify any subterm and the result still compiles, runs, and
    terminates. This is what lets differential failures (sim-vs-sim and
    sim-vs-RTL) be reported as minimized counterexample programs.

    Construction invariants (the same as the original fuzzer's, see
    test_random.ml): each action writes a {e fresh} register, so every
    register has exactly one writer group and [par] arms never race;
    conditions read only completed registers; [while] loops count a private
    counter up to a small bound, so all programs terminate. *)

type operand = O_reg of int | O_const of int

type source =
  | S_const of int  (** A literal. *)
  | S_reg of int  (** A readable register (index mod availability). *)
  | S_sum of operand * int  (** operand + literal, through an adder. *)

type spec =
  | Act of source  (** One group writing a fresh register. *)
  | Seqs of spec list
  | Pars of spec list
  | Ifs of { lhs : int; rhs : int; t : spec; f : spec option }
      (** if (readable[lhs] < rhs). *)
  | Whiles of int * spec  (** Loop a private counter up to the bound. *)

val width : int
(** Bit width of every generated register and operator (8). *)

val generate : Random.State.t -> spec
(** Draw a random spec (control depth up to 3, like the original
    generator). *)

val build : spec -> Ir.context
(** Materialize the program. Deterministic in the spec. *)

val program_of_seed : int -> Ir.context
(** [build (generate (Random.State.make [| seed |]))] — the one-call
    interface used by fixed-seed sweeps and the CLI fuzzer. *)

val spec_of_seed : int -> spec

val shrink : spec -> spec list
(** Strictly smaller candidate specs, most aggressive first: whole
    subtrees, then one-child drops, then in-place child shrinks. All
    candidates build well-formed programs. *)

val minimize : fails:(spec -> bool) -> spec -> spec
(** Greedy shrinking: repeatedly replace the spec by the first {!shrink}
    candidate that still [fails], until none does. The result is a local
    minimum; [fails] is never called on the input itself. The one
    shrinking loop behind every counterexample the toolchain writes. *)

val size : spec -> int
(** Number of spec nodes (the measure {!shrink} decreases). *)

val to_string : spec -> string
(** A compact s-expression rendering for failure messages. *)
