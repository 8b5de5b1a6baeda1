(** The compiled simulation engine.

    Per instance, the engine builds a slot-dependency graph ({!Sched}):
    one node per primitive, child instance, group [go] hole and
    assignment, condensed into strongly connected components and
    levelized. Each node is compiled ahead of time into one specialized
    closure: guards are partially evaluated, constant assignments folded,
    primitive port names resolved to slots. A settle runs {!Sched.run}: it
    evaluates only the dirty nodes, level by level, each level in the
    order its nodes were marked, with a worklist for the members of cyclic
    components; an assignment whose last evaluation did not drive is not
    woken by a change to its source alone. The clock edge latches only
    the primitives whose edge inputs changed, that were poked, or whose
    edge is not idempotent, then re-marks the primitives whose latched
    state changed and every child instance.

    The engine's state is private to this module: an instance reaches it
    only through the {!Instance.compiled} closures {!compile} returns. *)

val compile : Instance.instance -> Instance.compiled
(** Build the engine for one instance whose children are already
    compiled. Its plan is the instance's graph as text, one line per
    node with the partial-evaluation annotations, grouped by level with
    cyclic components marked: the format of the [.plan] goldens. *)
