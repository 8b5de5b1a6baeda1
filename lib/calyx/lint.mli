(** Control-flow-sensitive semantic lints.

    Where {!Well_formed} checks structural invariants (codes [CX001]–
    [CX013]), this module checks semantic safety properties the paper
    leaves implicit, reporting {!Diagnostics.t} values with [CX02x] codes:

    - {b CX020 par data race} (error): groups enabled under distinct arms
      of a [par] may run in the same cycle ({!Schedule_conflicts}); if both
      write one cell, or one drives a combinational cell whose output the
      other reads ({!Read_write_set}), the result is schedule-dependent —
      undefined behaviour the paper's register-sharing analysis assumes
      away without verifying. Reading a {e stateful} cell another arm
      writes is fine: its outputs hold last cycle's value (the systolic
      shift idiom).
    - {b CX021 combinational cycle} (error): a port depends combinationally
      on itself through assignments and combinational primitives, so the
      simulator's fixpoint evaluation cannot settle.
    - {b CX022 overlapping guarded drivers} (warning): a port has several
      drivers whose guards are not provably mutually exclusive (syntactic
      [g] vs [!g], distinct equality comparisons on one port, complementary
      comparisons), including drivers split across a group and continuous
      assignments. Upgrades {!Well_formed}'s unconditional-only CX008.
    - {b CX023 dead group} (warning): a group no control path can reach.
    - {b CX024 dead cell} (warning): a cell never referenced by any
      assignment or control statement.
    - {b CX025 latency contract violation} (error): a ["static"] attribute
      disagrees with the latency {!Infer_latency}/{!Static_timing} derive,
      so latency-sensitive compilation would produce wrong hardware.

    CX020, CX021 and CX025 are the errors; {!check} runs only these.
    CX022–CX024 are warnings only: {!diagnostics} and
    {!component_diagnostics} (behind [calyx check]) run every rule. *)

exception Rejected of Diagnostics.t list
(** Raised by {!check}: the error-severity lint diagnostics. *)

val component_diagnostics : Ir.context -> Ir.component -> Diagnostics.t list
(** All lint diagnostics of one component. *)

val diagnostics : Ir.context -> Diagnostics.t list
(** All lint diagnostics of a program (extern components are skipped).
    The program should already be well-formed; unresolvable references are
    ignored here, not reported twice. *)

val check : Ir.context -> unit
(** Run the error rules; raises {!Rejected} with their diagnostics when
    there are any. The warning rules never raise, so they are not run.
    Run by {!Pipelines.compile} before optimization unless the [lint]
    config flag is off. *)

val exclusive : Ir.component -> Ir.guard -> Ir.guard -> bool
(** [exclusive comp] prepares [comp]'s guard expansion once and answers
    whether two of its guards are provably mutually exclusive: the proof
    CX022 runs on a pair of drivers. *)
