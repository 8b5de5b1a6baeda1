(** The Calyx standard primitive library (interface metadata).

    Primitives are the leaf cells of Calyx designs: registers, adders,
    comparators, memories, pipelined multipliers, and so on. This module
    describes their {e interfaces} — port names, widths (as a function of the
    instantiation parameters), statefulness, shareability, and fixed latency.
    Behavioural models live in the simulator ([Calyx_sim.Prim_state]); area
    costs live in the synthesis model ([Calyx_synth.Area]). *)

type direction = In | Out

type prim_port = {
  pp_name : string;
  pp_width : int;
  pp_dir : direction;
}
(** One port of an instantiated primitive. *)

type info = {
  prim_name : string;  (** e.g. ["std_add"]. *)
  param_names : string list;  (** e.g. [["WIDTH"]], for documentation. *)
  stateful : bool;
      (** True for primitives with internal state (registers, memories,
          pipelined units): these are never shared by resource sharing. *)
  shareable : bool;  (** Default value of the ["share"] attribute. *)
  latency : int option;
      (** Fixed latency in cycles for go/done primitives, [Some 1] for
          registers and memories; [None] for combinational primitives and for
          data-dependent ones (e.g. [std_sqrt]). *)
  combinational : bool;
      (** True when all outputs are pure functions of current inputs. *)
  make_ports : int list -> prim_port list;
      (** Instantiate the port list for concrete parameters. Raises
          [Invalid_argument] when the parameter count is wrong. *)
}

exception Unknown_primitive of string

val find : string -> info option
(** Look up a primitive by name. *)

val info : string -> info
(** Like {!find} but raises {!Unknown_primitive}. *)

val ports : string -> int list -> prim_port list
(** [ports name params] instantiates the port list; raises
    {!Unknown_primitive} or [Invalid_argument]. *)

val port_width : string -> int list -> string -> int option
(** [port_width name params port] is the width of [port], if it exists. *)

val comb_arcs : string -> int list -> (string * string) list
(** [comb_arcs name params] lists the [(input, output)] port pairs of a
    primitive through which a value passes within one cycle, inputs in
    port order. A combinational primitive connects every input to every
    output. Of the stateful ones only a memory has arcs, from each address
    port to [read_data] (its asynchronous read); a register's or a
    pipelined unit's outputs change only at a clock edge. This is the one
    list the lints, the timing model and the simulator read. Raises like
    {!ports}. *)

val all : info list
(** Every primitive, for documentation and exhaustive testing. *)

val mult_latency : int
(** Latency of [std_mult_pipe] (4 cycles, per the paper's Section 6.2). *)

val div_latency : int
(** Latency of [std_div_pipe]. *)
