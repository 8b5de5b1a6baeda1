(** Uniform execution harness for the PolyBench kernels.

    Used by both the test suite and the evaluation benches: builds a
    kernel's Calyx program, compiles it under a pass configuration,
    simulates it with its deterministic inputs, checks every output memory
    against the golden reference, and reports cycle count and the area
    model's usage. *)

type result = {
  cycles : int;
  correct : bool;
  mismatches : string list;  (** Names of output memories that differ. *)
  area : Calyx_synth.Area.usage;  (** Of the fully lowered design. *)
  timing : Calyx_synth.Timing.report;  (** STA of the same design. *)
  wall_ns : float;  (** [cycles * estimated clock period]. *)
}

val program : Kernels.kernel -> unrolled:bool -> Dahlia.Ast.prog
(** Parse the (possibly unrolled) source. Raises [Invalid_argument] when
    [unrolled] is requested but the kernel has no unrolled variant. *)

val build : Kernels.kernel -> unrolled:bool -> Calyx.Ir.context
(** The structured Calyx program (before the compilation pipeline). *)

val execute :
  ?engine:Calyx_sim.Sim.engine ->
  Kernels.kernel ->
  Dahlia.Ast.prog ->
  Calyx.Ir.context ->
  int * string list
(** Simulate an already-compiled [ctx]: load the kernel's inputs, run to
    completion, verify outputs. Returns the cycle count and the names of
    mismatching output memories. Lets benches time simulation alone. *)

val load_inputs : Kernels.kernel -> Dahlia.Ast.prog -> Calyx_sim.Testbench.io -> unit
(** Load the kernel's deterministic inputs through the bank-aware loader.
    Exposed (with {!verify}) so benches can phase-split {!execute}: time
    instantiation and simulation separately, verify untimed. *)

val verify : Kernels.kernel -> Dahlia.Ast.prog -> Calyx_sim.Testbench.io -> string list
(** Check every output memory against the golden reference; returns the
    names of those that differ. *)

val run :
  ?config:Calyx.Pipelines.config ->
  ?engine:Calyx_sim.Sim.engine ->
  Kernels.kernel ->
  unrolled:bool ->
  result
(** Compile (default: all optimizations), simulate, verify. [engine]
    selects the simulator's evaluation engine (default
    {!Calyx_sim.Sim.default_engine}). *)

val run_interp :
  ?engine:Calyx_sim.Sim.engine -> Kernels.kernel -> unrolled:bool -> result
(** Execute with the reference interpreter instead of compiling (area is
    measured on the structured program). *)

(** {1 Translation validation} *)

type rtl_result = {
  report : Calyx_verilog.Validate.report;
      (** RTL-vs-simulator agreement on cycles and all architectural state. *)
  mismatches_sim : string list;
      (** Output memories where the simulator disagrees with the golden
          reference. *)
  mismatches_rtl : string list;
      (** Output memories where the RTL interpreter disagrees with the
          golden reference. *)
}

val run_rtl :
  ?config:Calyx.Pipelines.config ->
  ?engine:Calyx_sim.Sim.engine ->
  Kernels.kernel ->
  unrolled:bool ->
  rtl_result
(** Compile the kernel, then run the emitted SystemVerilog under the RTL
    interpreter and the lowered design under the simulator on identical
    inputs (via the shared bank-aware loader), comparing both against each
    other and against the kernel's golden reference. *)

val rtl_ok : rtl_result -> bool
(** Exact RTL/simulator agreement {e and} both match the reference. *)
