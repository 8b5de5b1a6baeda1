(** The systolic array generator (Section 6.1, Figures 5 and 6).

    Generates an output-stationary systolic array as a Calyx program: a
    [rows]×[cols] grid of processing elements computing
    [C = A·B] for [A : rows×depth] and [B : depth×cols]. Data moves
    left-to-right and top-to-bottom through per-PE input registers while
    PEs on the active anti-diagonals compute, following the wave schedule
    of Figure 6; results are drained into an output memory afterwards.

    The generator is PE-parametric: any component with the
    [(top, left, go) -> (out, done)] signature can serve as the processing
    element; {!matmul_pe} is the multiply–accumulate PE used in the paper's
    evaluation. No ["static"] attributes are emitted — the paper's point is
    that {!Calyx.Infer_latency} recovers all of them (Section 6.1,
    "Inferring latencies"). *)

open Calyx

type dims = {
  rows : int;
  cols : int;
  depth : int;  (** The shared dimension [K]. *)
  width : int;  (** Data width in bits. *)
}

val matmul_pe : width:int -> Ir.component
(** The multiply–accumulate PE: [acc += left * top] per activation, using
    the 4-cycle pipelined multiplier. Named ["mac_pe"]. *)

val sad_pe : width:int -> Ir.component
(** A sum-of-absolute-differences PE ([acc += |left - top|], one cycle per
    activation), demonstrating PE-parametricity. Named ["sad_pe"]. *)

val generate : ?pe:Ir.component -> dims -> Ir.context
(** The full program; the entrypoint is ["main"]. [pe] defaults to
    {!matmul_pe} at the array's width.
    @raise Invalid_argument naming the dimensions when [rows], [cols] or
    [depth] is below 1. *)

(** {1 Test bench}

    The array's inputs and its reference check, written once here for
    every caller: the farm's systolic jobs, [calyx systolic --run], the
    benches, the tests and the examples. Matrices are [int array array]s:
    [a] is [rows]×[depth], [b] is [depth]×[cols]. *)

val load : dims -> a:int array array -> b:int array array -> Calyx_sim.Testbench.io -> unit
(** Write row [r] of [a] into [left_memory r] and column [c] of [b] into
    [top_memory c], at the array's width. *)

val result : dims -> Calyx_sim.Testbench.io -> int array array
(** The [rows]×[cols] product the array left in {!out_memory}. *)

val product : dims -> int array array -> int array array -> int array array
(** The software matmul [a·b], each entry wrapped at the data width as
    the array's accumulators wrap. *)

val sample : dims -> int array array * int array array
(** The deterministic input pair the farm and the benches run:
    [a.(r).(k) = ((3r + k) mod 9) + 1] and
    [b.(k).(c) = ((5k + c) mod 7) + 1]. *)

val testbench : dims -> a:int array array -> b:int array array -> Calyx_sim.Testbench.t
(** {!load} [a] and [b]; the check compares {!result} with {!product},
    one message [product mismatch at C[r][c]: got <> want] per wrong
    entry, in row-major order. *)

(** {1 External memory names} *)

val left_memory : int -> string
(** [left_memory r] holds row [r] of A ([depth] elements). *)

val top_memory : int -> string
(** [top_memory c] holds column [c] of B. *)

val out_memory : string
(** The [rows]×[cols] result memory (row-major). *)

val steps : dims -> int
(** Number of wave steps in the schedule. *)
