(** The Calyx standard primitive library: one table of what each
    primitive is.

    Primitives are the leaf cells of Calyx designs: registers, adders,
    comparators, memories, pipelined multipliers, and so on. Each entry
    gives a primitive's port names and widths (as a function of the
    instantiation parameters), its {!kind}, its {!cost} class,
    shareability and fixed latency. Every layer reads these facts from
    here: the lints, the passes, the simulator's list of state cells,
    the emitter, and the area, timing and sharing cost models, which each
    map a {!cost} class to their own numbers. Only the behaviours are
    kept per name: the simulator's models ([Calyx_sim.Prim_state.create])
    and the emitted SystemVerilog modules
    ([Calyx_verilog.Verilog]'s primitive library). *)

type direction = In | Out

type prim_port = {
  pp_name : string;
  pp_width : int;
  pp_dir : direction;
}
(** One port of an instantiated primitive. *)

(** What a primitive is, as every layer distinguishes it. Only
    [Combinational] primitives have outputs that are pure functions of
    this cycle's inputs; the other three hold state, are clocked in the
    emitted RTL and are never shared by resource sharing. *)
type kind =
  | Register  (** [std_reg]: written when [write_en] is high. *)
  | Memory
      (** [std_mem_d1], [std_mem_d2]: an asynchronous read through the
          address ports, a clocked write. *)
  | Pipelined
      (** A go/done unit: [std_mult_pipe], [std_div_pipe], [std_sqrt]. *)
  | Combinational

(** The group a primitive's cost belongs to. The area, timing and
    sharing models each give every class their own numbers and match on
    it with no default, so a new class must be priced in each. *)
type cost =
  | Free  (** const, wire, slice, pad: no logic. *)
  | Adder  (** add, sub. *)
  | Ordered_compare  (** lt, gt, le, ge. *)
  | Equality  (** eq, neq. *)
  | Bitwise  (** and, or, xor, not. *)
  | Shift  (** lsh, rsh. *)
  | Multiplier  (** the combinational [std_mult]. *)
  | Flip_flops  (** a register. *)
  | Ram  (** a memory, sized by {!words}. *)
  | Mult_pipe
  | Div_pipe
  | Sqrt_pipe
      (** The three pipelined units, one class each: their areas differ. *)

type info = {
  prim_name : string;  (** e.g. ["std_add"]. *)
  param_names : string list;  (** e.g. [["WIDTH"]], for documentation. *)
  kind : kind;
  cost : cost;
  shareable : bool;  (** Default value of the ["share"] attribute. *)
  latency : int option;
      (** Fixed latency in cycles for go/done primitives, [Some 1] for
          registers and memories; [None] for combinational primitives and for
          data-dependent ones (e.g. [std_sqrt]). *)
  make_ports : int list -> prim_port list;
      (** Instantiate the port list for concrete parameters. Raises
          [Invalid_argument] when the parameter count is wrong, a port
          would be outside 1..{!Bitvec.max_width} bits, or a slice would
          widen or a pad narrow. *)
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

val words : string -> int list -> int
(** [words name params] is the number of words a memory of these
    parameters holds (the product of its dimension sizes); 1 for any
    other primitive. Raises {!Unknown_primitive}. *)

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
