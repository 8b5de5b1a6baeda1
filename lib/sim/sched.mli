(** Static evaluation schedule over a slot-dependency graph.

    The graph the compiled simulation engine runs on: nodes (assignments,
    primitives, child components, group go holes) declare which value slots
    they read and write; {!build} condenses the induced dependency graph into
    strongly connected components and levelizes the condensation. {!run}
    then evaluates only dirty nodes in level order — acyclic nodes at most
    once per settle, members of a cyclic component on a worklist until they
    stop re-marking each other.

    The scheduler is value-agnostic: the caller's [eval] callback does the
    computation and calls {!mark_slot} whenever it changes a slot, which
    enqueues that slot's readers. Dirt persists across {!run} calls, so the
    clock-edge commit can invalidate exactly the nodes whose inputs changed
    (a register that latched, a child whose control advanced) and the next
    cycle's settle costs O(nodes touched) rather than
    O(iterations x all slots).

    The graph's topology ({!topo}) is immutable and may be shared by many
    evaluation states ({!t}): the simulator builds one topology per
    component and one state per instance. *)

type topo
(** The condensed, levelized graph. *)

type t
(** One evaluation state over a {!topo}: its dirty set and blocked
    flags. *)

val build : slots:int -> nodes:(int list * int list * int list) array -> topo
(** [build ~slots ~nodes] where [nodes.(k) = (reads, source_reads, writes)]
    lists the slot ids node [k] reads and writes; slot ids must be
    [< slots]. A source read is a slot the node reads only while it drives
    its outputs (an assignment's source, as opposed to its guard). A change
    to it does not wake the node while the node is blocked (see
    {!blocked}). Source reads are edges like any other for components and
    levels. *)

type edges = read:(int -> unit) -> source:(int -> unit) -> write:(int -> unit) -> unit
(** One node's slots, as calls: [read] for each slot it reads, [source]
    for each source read, [write] for each slot it writes, each kind in
    order. *)

val build_with : slots:int -> nodes:int -> (int -> edges) -> topo
(** {!build} of [nodes] nodes whose slots node [k]'s [edges] reports:
    the same graph, without a list per node. It is asked several times
    per node and must answer the same each time. *)

val create : topo -> t
(** A fresh state over the topology: nothing dirty, nothing blocked. *)

val mark_node : t -> int -> unit
(** Enqueue a node for re-evaluation (idempotent while already queued). *)

val mark_slot : t -> int -> unit
(** Enqueue every reader of a slot — the caller's change-propagation hook —
    except source readers that are blocked. *)

val blocked : t -> bool array
(** Node -> whether its last evaluation left it not driving, written by
    the caller's [eval] (the array itself, so the hot path makes no
    call). Nodes start unblocked. Skipping a blocked node's source reads
    is exact as long as its outputs then do not depend on them, and
    anything that can make it drive again is one of its other reads or
    marks it with {!mark_node}. *)

val mark_all : t -> unit

exception Diverged
(** A cyclic component exceeded its evaluation budget — the graph
    analogue of a combinational fixpoint that does not converge. *)

val run : t -> eval:(int -> unit) -> max_passes:int -> int
(** Evaluate dirty nodes in level order until none remain; returns the
    number of [eval] calls made. A cyclic component may evaluate each of
    its members at most [max_passes] times (mirroring the reference
    engine's iteration cap) before {!Diverged} is raised. *)

(** {1 Introspection (for tests and stats)} *)

val topology : t -> topo

val node_count : topo -> int

val level : topo -> int -> int
(** The topological level of a node's component; every node reading a slot
    this node writes sits at a strictly higher level (unless they share a
    cyclic component). *)

val cyclic : topo -> int -> bool
(** Whether the node belongs to a genuinely cyclic component (the worklist
    remainder) rather than the levelized DAG. *)

val scc : topo -> int -> int
(** The id of the strongly connected component the node belongs to. Ids
    are assigned in reverse topological order (every edge of the
    condensation goes to a strictly smaller id), so two nodes are
    mutually dependent iff their ids are equal. Used by the compiled
    engine to list the members of each cyclic component together when it
    renders its plan. *)
