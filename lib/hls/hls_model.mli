(** An idealized static-scheduling HLS cost model — the commercial-HLS
    comparator of the paper's evaluation (Vivado HLS substitute).

    The model executes a Dahlia program under its source semantics
    ({!Dahlia.Eval}, so data-dependent trip counts are exact) while
    charging cycles according to a standard HLS schedule:

    - combinational operators chain freely within a cycle;
    - block-RAM reads take one cycle; each logical memory has two ports
      (multiplied by its banking/partitioning factor);
    - pipelined multipliers take 3 cycles, dividers and square roots 16;
    - {b innermost} loops are automatically pipelined with initiation
      interval [II = max(port pressure, loop-carried recurrence)];
    - outer loops run sequentially with one cycle of control overhead per
      iteration; fully unrolled loops run their copies concurrently,
      bounded by memory-port pressure;
    - unordered composition schedules concurrently (an HLS scheduler
      parallelizes independent statements in a basic block).

    Area is estimated with the same primitive cost table as the Calyx area
    model ({!Calyx_synth.Area}) over the program's operators (with unroll
    multiplicity), memories, loop control, and pipeline registers — without
    Calyx's group-multiplexing overhead, reflecting a mature scheduler's
    binding. Absolute numbers are not meaningful; relative comparisons
    against the Calyx backend are (see DESIGN.md). *)

type report = {
  cycles : int;
  area : Calyx_synth.Area.usage;
}

val run : Dahlia.Ast.prog -> inputs:(string * int list) list -> report
(** Type-checks, executes, and prices the program. Memories without
    supplied inputs start zeroed ({!Dahlia.Eval.env}). *)

val run_source : string -> inputs:(string * int list) list -> report

val matmul_source : n:int -> string
(** The Figure-7 comparator: a straightforward matrix-multiply kernel whose
    two outer loops are fully unrolled (the paper's Vivado HLS baseline for
    the systolic arrays); memories are unpartitioned. *)
