(** One unit of farm work: compile → simulate → (per its {!check})
    validate or run the engine differential → time one design, producing
    a fully serializable {!outcome}.

    A job is pure data: its {!key_source} is the exact text the cache
    hashes, and {!run} is deterministic in the job — the determinism
    stress suite relies on [run] producing byte-identical serialized
    outcomes regardless of which domain executes it, in which order, or
    whether telemetry is enabled. *)

type source =
  | Text of { name : string; dahlia : bool; text : string }
      (** An in-memory Calyx ([dahlia = false]) or Dahlia source. *)
  | Polybench of { kernel : string; unrolled : bool }
      (** A PolyBench kernel, run under its test bench
          ([Polybench.Harness.testbench]): its inputs, and every output
          checked against the golden reference. *)
  | Systolic of { rows : int; cols : int; depth : int }
      (** A generated 32-bit systolic array, run under
          [Systolic.testbench] on [Systolic.sample]'s matrices: the
          product is checked against the software matmul. *)
  | Fuzz of { seed : int }  (** [Fuzz_gen.program_of_seed]. *)

(** What a job checks beyond its own golden reference. *)
type check =
  | Simulate  (** Compile, simulate under the job's engine, time. *)
  | Validate
      (** Also run RTL translation validation on the emitted
          SystemVerilog. *)
  | Engines
      (** Also run the engine differential ({!Calyx_sim.Sim.disagreement})
          on the structured program and on its lowered form, with the
          job's inputs loaded; a disagreement becomes a diagnostic. *)

val checks : (string * check) list
(** Every check with its command-line name. *)

type t = {
  source : source;
  config : Calyx.Pipelines.config;
  engine : Calyx_sim.Sim.engine;
  check : check;
}

val make :
  ?config:Calyx.Pipelines.config ->
  ?engine:Calyx_sim.Sim.engine ->
  ?check:check ->
  source ->
  t
(** Defaults: [Pipelines.default_config], {!Calyx_sim.Sim.default_engine},
    [Simulate]. The engine is resolved here, not left optional: it is
    part of the job's cache key. *)

val of_file :
  ?config:Calyx.Pipelines.config ->
  ?engine:Calyx_sim.Sim.engine ->
  ?check:check ->
  string ->
  t
(** Read a [.futil]/[.dahlia]/[.fuse] source file into a [Text] job (the
    frontend is chosen by suffix). The file is read once, here — the
    job's cache key addresses the content at submission time. *)

val label : t -> string
val engine_name : t -> string

val key_source : t -> string
(** The exact text hashed into the cache key: the check ([+sim],
    [+validate] or [+engines]) and a frontend-tagged rendering of the
    source (file text, kernel source + input data, generator parameters,
    fuzz spec). Any change to it must change the key. *)

(** {1 Outcomes} *)

type validation = {
  v_ok : bool;
  v_cycles_rtl : int;
  v_registers_checked : int;
  v_memories_checked : int;
  v_mismatches : string list;
}

type outcome = {
  o_label : string;
  o_engine : string;
  o_ok : bool;
      (** No diagnostics, and (if run) validation and the engine
          differential agreed. *)
  o_cycles : int;
  o_registers : (string * string) list;
      (** Every [std_reg]'s final value, in {!Calyx_sim.Sim.state_cells}
          order, as [Bitvec.to_string]. *)
  o_memories : (string * string list) list;  (** Final memory contents. *)
  o_diagnostics : string list;
      (** Compile/lint/simulation failures, golden-reference mismatches
          and engine disagreements; [[]] when the job succeeded. *)
  o_validate : validation option;
  o_delay_ps : int;
  o_fmax_mhz : float;
  o_luts : int;
  o_register_bits : int;
  o_dsps : int;
  o_brams : int;
}

val run : t -> outcome
(** Execute the job. Never raises: compile-time diagnostics, simulation
    errors, and golden mismatches are captured in [o_diagnostics]. *)

val describe_error : exn -> string option
(** The one-line diagnostic of an exception the toolchain raises (the
    text a failed job records, and [calyx]'s for every error it does not
    format itself); [None] for any other exception. *)

val outcome_to_json : outcome -> string
(** Canonical single-line JSON — the cache payload and the byte string
    the determinism suite compares. [outcome_of_json] inverts it exactly:
    serializing a decoded outcome reproduces the input bytes. *)

val outcome_of_json : Calyx_telemetry.Json.value -> outcome option
