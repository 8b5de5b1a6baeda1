(** The compiled simulation engine.

    Per component, the engine plans a slot-dependency graph ({!Sched}):
    one node per primitive, child instance, group [go] hole and
    assignment, condensed into strongly connected components and
    levelized, with guards partially evaluated and constant assignments
    folded. Per instance, the engine stages one closure over the
    instance's state per primitive (its port names resolved to slots),
    child and [go] hole, and evaluates assignment nodes straight from the
    shared plan. Values live in the native ints of the instance's
    {!Slot.env}: the engine runs only designs whose slots are all at most
    {!Slot.narrow} bits wide ({!Sim.create} runs any other on the
    fixpoint engine), so a settle makes no width test and allocates
    nothing. A settle runs {!Sched.run}: it
    evaluates only the dirty nodes, level by level, each level in the
    order its nodes were marked, with a worklist for the members of cyclic
    components; an assignment whose last evaluation did not drive is not
    woken by a change to its source alone. The clock edge latches only
    the primitives whose edge inputs changed, that were poked, or whose
    edge is not idempotent, then re-marks the primitives whose latched
    state changed and every child instance.

    The engine's state is private to this module: an instance reaches it
    only through the {!Instance.compiled} closures {!compile} returns. *)

type plan
(** What every instance of one component shares: the graph's topology,
    the writers of each slot, the staged guards and how each assignment
    drives. Immutable once built. *)

val plan : Instance.plan -> plan
(** Plan a component, once per simulator build. *)

val compile : plan -> Instance.instance -> Instance.compiled
(** Build the engine for one instance of the planned component, whose
    children are already compiled. Its plan text is the component's
    graph, one line per node with the partial-evaluation annotations,
    grouped by level with cyclic components marked: the format of the
    [.plan] goldens. It is rendered once per component, on first
    request. *)
