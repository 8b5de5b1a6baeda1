(** A cycle-accurate interpreter for the SystemVerilog subset {!Verilog}
    emits — the execution half of the translation-validation story.

    The emitted RTL is parsed by a small recursive-descent front end that
    accepts exactly what the emitter writes:
    - module headers with [#(parameter P = e, ...)] defaults and
      [input]/[output logic [msb:0] name] ports;
    - [logic [msb:0] name;] declarations, one name each, and memory
      arrays [logic [msb:0] name [msb:0];];
    - continuous [assign name = e;];
    - [always_ff @(posedge clk)] blocks of [begin]/[end], [if]/[else] and
      non-blocking [<=] writes to nets and array elements;
    - instances with named parameter and port bindings;
    - expressions over sized and unsized literals, ['1], names, constant
      part-selects [name[msb:lsb]], array elements [name[e]], [~], [!],
      the binary operators [| ^ & == != < > <= >= << >> + - * / %],
      [?:], concatenation, replication and [$sqrt].

    Anything else is a {!Parse_error} with a line number, or an
    {!Elab_error} (an index of a name that is no array, for one). The
    design is elaborated into one flat net table — parameters bound,
    constant expressions folded, each module worked out once per parameter
    binding and instantiated at an offset in the net table, nets addressed
    by their dotted hierarchical path — and then simulated with the same
    per-cycle discipline as {!Calyx_sim.Sim}: continuous assignments
    settle to a fixpoint, then all [always_ff] blocks execute with
    non-blocking semantics — right-hand sides read pre-edge values, all
    updates commit atomically.

    Simulation is activity-driven, on the compiled engine's scheduler
    ({!Calyx_sim.Sched}). The settle processes are its nodes and its slots
    are the nets plus one slot per memory array. A settle runs only the
    processes with a changed input, in dependency-level order; a cyclic
    component iterates on a worklist under a divergence budget that raises
    {!Unstable}. A commit runs only the [always_ff] blocks with a changed
    input or target since their last run: any other block would rewrite the
    values its targets already hold. Every change — by a process, a commit
    write, {!set_input}, {!write_register} or {!write_memory} — marks the
    readers of what changed, so a cycle costs the work of what can have
    changed, not of the whole design. Results are those of evaluating every
    process on every cycle.

    A same-width net-to-net copy — an [assign a = b;], an input port bound
    to a net, an output port connected to one — is an alias, not a
    process: the readers of the target listen on the source, and a change
    of the source is copied into the target within the same settle. A
    change made outside a settle (a commit write or a poke) reaches the
    aliases of what changed when the next settle starts, so between
    cycles an alias target reads what a copy process would hold: the
    value of the last settle. A copy that would close a loop of aliases
    stays a process.

    Values are native ints: nets, array elements and staged writes of up
    to 62 bits hold their value directly, and expressions evaluate without
    allocating. 63- and 64-bit nets and arrays keep [int64] values, and an
    operand that can exceed 62 bits (by a static bound on its value) is
    evaluated through [Int64] wherever its whole value matters —
    comparisons, [/], [%], [>>], indices, conditions and [$sqrt]. Results
    are exact at every width from 1 to 64 bits.

    Expression evaluation uses self-determined widths: every net and sized
    literal carries its declared width, binary operators extend to the
    wider operand, comparisons produce one bit, concatenation and
    replication sum widths, and assignment truncates or zero-extends to the
    target. Unsized literals and ['1] evaluate at 64 bits, matching
    {!Calyx.Bitvec.max_width}. All state is two-valued and starts at zero,
    like the simulator. [$sqrt] is interpreted as the integer square root
    ({!Calyx_sim.Prim_state.isqrt}), the same function the simulator's
    [std_sqrt] model computes. *)

exception Parse_error of string
(** The source is outside the supported subset (with a line number). *)

exception Elab_error of string
(** Elaboration failed: unknown module, unbound name, index of a name that
    is no array, non-constant range,
    multiple drivers on one net or memory (two continuous drivers, or two
    [always_ff] blocks writing it), or similar. *)

exception Unstable of { cycle : int; message : string }
(** The combinational settle did not converge within the iteration budget
    (same discipline as {!Calyx_sim.Sim.Unstable}). *)

exception Timeout of { budget : int }
(** {!run} exceeded its cycle budget without observing [done]. *)

type t
(** An elaborated design plus its simulation state. *)

val load : top:string -> string -> t
(** [load ~top source] parses [source] and elaborates module [top] (the
    design's entrypoint, instantiated at the empty hierarchical path).
    Each member of a combinational cycle may evaluate at most 1000 times
    in one settle before {!Unstable} is raised. It runs in an
    [rtl-load] span with children [rtl-parse], [rtl-elaborate] and
    [rtl-schedule]; with telemetry on, [rtl-load] carries the source's
    [bytes] and the design's [nets] and [procs] ({!stats}). *)

(** {1 The [go]/[done] test-bench convention} *)

val run : ?max_cycles:int -> t -> int
(** Drive the top-level [go] input high and simulate until the design
    presents [done]; returns the latency in cycles, the done cycle
    included — the exact counting convention of {!Calyx_sim.Sim.run}.
    [max_cycles] defaults to 5,000,000. With telemetry on, the [rtl-sim]
    span carries the run's [cycles], settle [evals], [always_ff] blocks
    run ([ff_blocks]; a block whose inputs and targets did not change is
    skipped) and the writes those blocks [staged]. *)

val cycle : t -> unit
(** Advance one clock: settle, then commit every [always_ff] block. *)

val cycles_elapsed : t -> int

val evals : t -> int
(** Settle-process evaluations since {!load}: the measure of how much of
    the design the activity-driven settle actually ran. Deterministic in
    the design and its inputs. *)

val set_input : t -> string -> Calyx.Bitvec.t -> unit
(** Set a top-level input port (held until changed). *)

val read_output : t -> string -> Calyx.Bitvec.t
(** A top-level output, as of the last settle. *)

(** {1 Poke/peek by hierarchical path}

    Registers and memories are addressed by the same dotted cell paths as
    {!Calyx_sim.Sim}: register [r] in the entry component is ["r"], and its
    value lives in the elaborated net ["r.out"]; a memory cell [m]'s
    contents are the array ["m.mem"] of its instance. *)

val read_register : t -> string -> Calyx.Bitvec.t
val write_register : t -> string -> Calyx.Bitvec.t -> unit
val read_memory : t -> string -> Calyx.Bitvec.t array
val write_memory : t -> string -> Calyx.Bitvec.t array -> unit

(** {1 Introspection} *)

val stats : t -> int * int
(** [(nets, processes)] of the elaborated design: flattened net count and
    the number of evaluation processes (continuous assigns and port
    bindings that are not aliases, and [always_ff] blocks). *)
