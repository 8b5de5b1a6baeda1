(** Cycle-accurate simulation of Calyx programs.

    One simulator serves two roles from the paper's evaluation workflow:

    - a {b reference interpreter} for structured programs (groups + control),
      executing the control-tree semantics directly — the functional oracle
      used to validate the compiler; and
    - a {b flat simulator} (the Verilator substitute) for fully compiled
      programs whose behaviour lives entirely in continuous guarded
      assignments driven through the [go]/[done] calling convention.

    Both roles share the per-cycle model: the combinational network settles
    over the active assignments and primitive outputs, then a clock-edge
    commit updates all stateful primitives. Components instantiated as cells
    are simulated hierarchically; a structured sub-component starts its
    control program when its [go] input rises and presents [done] for one
    cycle when it finishes.

    Every component is planned once per {!create}: its ports numbered as
    slots, its assignments resolved over them, its groups numbered once
    in declaration order. Every instance of it is one record with its own
    values, primitives, children and control state; both evaluation
    {b engines} read the two. An instance's values are native ints
    ({!Slot}: an [int] per slot of up to 62 bits, an [int64] per wider
    one); {!Calyx.Bitvec} is the type only at this interface's edges and
    in the fixpoint engine's arithmetic. The engines implement the
    settle:

    - [`Fixpoint] — the reference engine: dense Jacobi iteration
      re-evaluating every assignment and primitive until the full
      environment stops changing, computing on [Bitvec] through one
      width-aware conversion of the slots. The semantic oracle.
    - [`Compiled] (the default) — a static slot-dependency graph is built
      per component at construction time, condensed into strongly
      connected components and levelized ({!Sched}), with guards
      partially evaluated and constant assignments folded; each instance
      stages it ahead of time over its own state (primitive port names
      resolved to slots). Each settle runs only the {e dirty} nodes, level by
      level, with a worklist for the (rare) cyclic remainder, and the
      clock edge re-marks exactly the primitives whose committed state
      changed, so a settled cycle costs O(nodes touched) instead of
      O(iterations x all slots). It computes on native ints only, so it
      runs designs whose slots are all at most 62 bits wide; {!create}
      runs any other design on [`Fixpoint]. The engine lives in
      [Compiled]; see {!compiled_plan} for its graph as text.

    The engines are observably equivalent: same cycle counts, same
    {!Conflict}/{!Unstable} errors at the same cycle, same event streams
    (differentially fuzz-tested against each other). *)

open Calyx

type t

type engine = [ `Fixpoint | `Compiled ]

val engines : (string * engine) list
(** Every engine with its name, as used on the command line, in trace
    tags, run manifests and cache keys. *)

val engine_name : engine -> string
(** The engine's name in {!engines}. *)

val default_engine : engine
(** [`Compiled]: what {!create} builds when no engine is given. Every
    other optional [?engine] in the toolchain passes through to {!create}
    untouched; only callers that must name the engine before simulating
    (a farm job's cache key, a run manifest's engine stamp) read this
    value. *)

val state_cells : Ir.context -> string list * string list
(** [(registers, memories)]: the dotted paths of every [std_reg] and
    every memory cell reachable from the entrypoint, child component
    instances included, in declaration order (depth first). *)

val disagreement : ?load:(t -> unit) -> Ir.context -> string option
(** The engine differential: run [ctx] under every engine in {!engines}
    (each built fresh, [load] applied before the run, 400 000-cycle
    budget) and return the first pairwise disagreement, or [None]. A
    design wider than {!Slot.narrow} bits runs on [`Fixpoint] under
    every engine ({!create}), so it always agrees. The
    engines must agree on cycle count, the final value of every register
    and memory in {!state_cells}, and the ordered control-event stream —
    or, on the error paths, raise the same {!Conflict}/{!Unstable}/
    {!Timeout} at the same cycle with the same message. *)

exception Timeout of { budget : int; snapshot : string }
(** Raised by {!run} when the design does not finish within the cycle
    budget. Carries the budget and a {!status} snapshot taken at the
    moment of the timeout (currently-active groups and what their done
    holes are waiting on, sub-component control/FSM states, and the
    entrypoint's [done] wiring), so a hang is debuggable from the error
    alone. *)

exception Conflict of { cycle : int; message : string; snapshot : string }
(** Two active assignments drove the same port with different values in the
    same cycle — undefined behaviour per the paper, reported as an error.
    Carries the 0-based cycle at which the conflict occurred and a
    {!status} snapshot taken at that moment, like {!Timeout}. *)

exception Unstable of { cycle : int; message : string; snapshot : string }
(** The combinational fixpoint did not converge (combinational cycle).
    Carries the cycle number and a {!status} snapshot, like {!Conflict}. *)

val create :
  ?externs:(string * (unit -> Prim_state.t)) list ->
  ?engine:engine ->
  Ir.context ->
  t
(** Instantiate the entrypoint component of a program. Raises
    [Ir.Ir_error] on a port that does not resolve and on an assignment
    whose source and destination widths differ (which the checker
    reports as CX006). [externs] supplies
    behavioural models for [extern] black-box components by component name
    (the simulation-side analogue of linking the referenced [.sv] file,
    Section 6.2); a fresh state is made per instance. [engine] selects the
    evaluation engine (default {!default_engine}), with one exception:
    a design with any port wider than {!Slot.narrow} (62) bits, in any
    component reachable from the entrypoint, runs on [`Fixpoint] whatever
    is asked. The settle work per cycle is bounded before {!Unstable} is
    raised: 1000 fixpoint iterations under [`Fixpoint], 1000 worklist
    passes per cyclic-component member under [`Compiled]. *)

val engine : t -> engine
(** The evaluation engine this simulation runs on: the one {!create} was
    asked for, or [`Fixpoint] for a design with a port wider than
    {!Slot.narrow} bits. *)

val compiled_plan : t -> string option
(** The [`Compiled] engine's graph of every instance, as text: one line
    per node (with its partial-evaluation annotations), grouped by
    level, cyclic components marked; instances of one component share
    one rendering. A
    rendering of the graph a settle runs on, not an execution order:
    within a level, dirty nodes run in the order they were marked.
    [None] unless {!engine} is [`Compiled]. Snapshot-tested so codegen
    changes show up as reviewable diffs. *)

val run : ?max_cycles:int -> t -> int
(** Drive [go] high and simulate until the design signals [done]; returns
    the latency in cycles (the done cycle included). [max_cycles] defaults
    to 5,000,000. Runs in a ["sim"] telemetry span whose args, with
    telemetry on, are the [engine], the [cycles], the [evals] (the run's
    [ev_iters] of its cycles summed) and, under [`Compiled], [latched]: the
    primitives latched over every clock edge of the instance tree. *)

val cycle : t -> unit
(** Advance a single clock cycle (for fine-grained tests). *)

val done_seen : t -> bool
(** Whether the design has signalled completion. *)

val cycles_elapsed : t -> int
(** Clock edges since creation (every {!cycle} call, including those made
    by {!run}). *)

val status : t -> string
(** A multi-line human-readable snapshot of the current simulation state:
    per structured instance its control state and active groups (with the
    assignment each group's done hole is waiting on); per flat instance
    the entrypoint's [done] wiring and FSM register values. Used by
    {!Timeout} and available to test benches. *)

(** {1 Observation (the event-sink interface)}

    The observability layer ([calyx_obs]: VCD tracing, profiling) attaches
    through a single optional sink. When no sink is installed the per-cycle
    overhead is one [option] match; when one is, the simulator publishes an
    {!event} per cycle after the combinational fixpoint settles and before
    state commits — the values "on the wires" during that cycle.

    Signals and instances are addressed by dotted hierarchical paths from
    the entrypoint: the root instance's path is [""], a cell [c] inside
    child instance [d] is ["d.c"], its port [p] is ["d.c.p"], and group
    holes appear as ["g.go"]/["g.done"] (group and cell names share a
    namespace, so paths are unambiguous). *)

(** Which port a signal is (within its instance). *)
type signal_kind =
  | Sig_this of string  (** A signature port of the instance. *)
  | Sig_hole of string * string  (** [(group, "go"/"done")]. *)
  | Sig_cell of string * string  (** [(cell, port)]. *)

type signal = {
  sig_path : string;  (** Full dotted path, e.g. ["pe00.acc.write_en"]. *)
  sig_width : int;
  sig_instance : string;  (** Owning instance path ([""] = root). *)
  sig_kind : signal_kind;
}

type event = {
  ev_cycle : int;  (** 0-based cycle number. *)
  ev_values : Bitvec.t array;  (** Indexed like {!signals}. *)
  ev_active : (string * string) list;
      (** Active groups this cycle as [(instance path, group name)]. *)
  ev_iters : int;
      (** Evaluation work spent settling this cycle, summed over the
          instance hierarchy: fixpoint iterations under the [`Fixpoint]
          engine, graph nodes touched under [`Compiled]. A measure of
          combinational activity either way, but not comparable across
          engines. *)
}

type sink = event -> unit

val signals : t -> signal array
(** Every interned port in the design, hierarchically flattened; the
    index order matches [ev_values]. *)

val instances : t -> (string * string) list
(** All instances as [(path, component name)]; the root is [("", entry)]. *)

val add_sink : t -> sink -> unit
(** Attach a per-cycle observer {e in addition to} any already installed;
    sinks run in attachment order. This is how independent observers (a
    VCD tracer, a profiler, a coverage collector) share one simulation. *)

(** {1 Control events (span tracing)}

    The reference interpreter also publishes the lifecycle of every control
    statement it executes: {!Ctrl_enter} when a statement becomes active,
    {!Ctrl_exit} at the last cycle it is active (both inclusive, so a
    statement's span covers [enter..exit] and lasts [exit - enter + 1]
    cycles), and [Ctrl_branch b] each time an [if] resolves its condition
    (the taken branch) or a [while] evaluates its condition (one [true] per
    iteration, then one [false]). A [while] statement stays open across
    iterations: one span per activation.

    Statements are identified by the id {!Ir.control_preorder} assigns them
    within their component; [ce_instance] locates the component instance by
    its dotted path (the root is [""]). Flat (fully compiled) programs have
    no control tree and emit no control events — their schedule lives in
    FSM registers, which the coverage layer reads via the ordinary value
    sink instead. *)

type ctrl_phase = Ctrl_enter | Ctrl_exit | Ctrl_branch of bool

type ctrl_event = {
  ce_cycle : int;
  ce_instance : string;  (** Instance path of the enclosing component. *)
  ce_node : int;  (** {!Ir.control_preorder} id within that component. *)
  ce_phase : ctrl_phase;
}

type ctrl_sink = ctrl_event -> unit

val add_ctrl_sink : t -> ctrl_sink -> unit
(** Attach a control-event observer in addition to any already installed. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Set a top-level input port value (held until changed), truncated or
    zero-extended to the port's width. *)

val read_output : t -> string -> Bitvec.t
(** The value of a top-level output port after the last {!cycle}. *)

(** {1 Test-bench access}

    Cells are addressed by dotted hierarchical paths from the entrypoint,
    e.g. ["pe00.acc"] for register [acc] inside cell [pe00]. A
    {!Prim_state.Sim_error} raised by an access (a width or length
    mismatch, a cell of the wrong kind) starts with the path. *)

val read_register : t -> string -> Bitvec.t
val write_register : t -> string -> Bitvec.t -> unit
val read_memory : t -> string -> Bitvec.t array
val write_memory : t -> string -> Bitvec.t array -> unit

val write_memory_ints : t -> string -> width:int -> int list -> unit
(** Convenience: load integers at the given element width. *)

val read_memory_ints : t -> string -> int list

val external_memories : t -> string list
(** Names of top-level cells marked with the ["external"] attribute —
    the design's test-bench interface. *)
