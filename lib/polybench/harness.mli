(** Uniform execution harness for the PolyBench kernels.

    Used by the test suite, the evaluation benches and the farm: builds a
    kernel's Calyx program, compiles it under a pass configuration, and
    runs it against the kernel's {!testbench} — its deterministic inputs,
    and every declared memory checked against the source's semantics
    ({!Dahlia.Eval}) — then reports cycle count and the area model's
    usage. *)

type result = {
  cycles : int;
  correct : bool;
  mismatches : string list;
      (** The test bench's messages, one per memory that differs. *)
  area : Calyx_synth.Area.usage;  (** Of the fully lowered design. *)
  timing : Calyx_synth.Timing.report;  (** STA of the same design. *)
  wall_ns : float;  (** [cycles * estimated clock period]. *)
}

val program : Kernels.kernel -> unrolled:bool -> Dahlia.Ast.prog
(** Parse the (possibly unrolled) source. Raises [Invalid_argument] when
    [unrolled] is requested but the kernel has no unrolled variant. *)

val build : Kernels.kernel -> unrolled:bool -> Calyx.Ir.context
(** The structured Calyx program (before the compilation pipeline). *)

val load_inputs : Kernels.kernel -> Dahlia.Ast.prog -> Calyx_sim.Testbench.io -> unit
(** Load the kernel's deterministic inputs through the bank-aware loader. *)

val verify : Kernels.kernel -> Dahlia.Ast.prog -> Calyx_sim.Testbench.io -> string list
(** Check every declared memory, scratch memories included, against
    {!Dahlia.Eval.run} of [prog] on the kernel's inputs; returns the names
    of those that differ. *)

val testbench : Kernels.kernel -> Dahlia.Ast.prog -> Calyx_sim.Testbench.t
(** The kernel's test bench, written once for the farm, the benches and
    the tests: {!load_inputs}, and a check that renders each name
    {!verify} returns as [golden mismatch in memory NAME]. [prog] is the
    parsed source ({!program}), which the loader needs for the memories'
    banking. *)

val run :
  ?config:Calyx.Pipelines.config ->
  ?engine:Calyx_sim.Sim.engine ->
  Kernels.kernel ->
  unrolled:bool ->
  result
(** Compile (default: all optimizations), then run the {!testbench}
    ({!Calyx_sim.Testbench.run}). [engine]
    selects the simulator's evaluation engine (default
    {!Calyx_sim.Sim.default_engine}). *)
