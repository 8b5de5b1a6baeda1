(** Backend-neutral test benches.

    A {!io} bundles the four poke/peek operations every execution backend
    offers — the cycle-accurate simulator ({!Sim}) and the RTL interpreter
    over the emitted SystemVerilog ([Calyx_verilog.Vinterp]) — so that test
    benches, data loaders, and the translation-validation harness can be
    written once and run against either backend. Cells are addressed by the
    same dotted hierarchical paths as {!Sim}'s test-bench access
    (e.g. ["pe00.acc"]).

    A design is a program plus its test bench ({!t}): the inputs to load
    before the run and the check of the final state against a software
    reference. Each frontend writes its own once, next to the generator
    or kernel it belongs to ([Systolic.testbench],
    [Polybench.Harness.testbench]); the farm, the CLI, the benches, the
    tests and the examples all run that one. *)

open Calyx

type io = {
  read_register : string -> Bitvec.t;
  write_register : string -> Bitvec.t -> unit;
  read_memory : string -> Bitvec.t array;
  write_memory : string -> Bitvec.t array -> unit;
}

val of_sim : Sim.t -> io
(** The simulator's test-bench operations, bundled. *)

val write_memory_ints : io -> string -> width:int -> int list -> unit
(** Convenience: load integers at the given element width. *)

val read_memory_ints : io -> string -> int list

(** {1 Test benches} *)

type t = {
  load : io -> unit;  (** Write the design's inputs before the run. *)
  check : io -> string list;
      (** Compare the final state with the software reference: one
          message per mismatch, [[]] when the answer is right. *)
}

val run : ?engine:Sim.engine -> t -> Ir.context -> int * string list
(** Create the simulator on [ctx] (under [engine], default
    {!Sim.default_engine}), load, run to completion, and check. Returns
    the cycle count and the check's messages. *)
