(** AOT level plan for the compiled simulation engine.

    The compiled engine takes the levelized, SCC-condensed slot graph
    ({!Sched}) of each instance and freezes it into a {e level plan}: a
    static sequence of steps, one specialized closure per node, executed
    straight-line every settle. Acyclic nodes of a level become a
    {!constructor:Straight} step (each closure runs exactly once per
    settle, in static order); every genuinely cyclic component becomes its
    own {!constructor:Iterate} step (its members are swept repeatedly
    until a sweep changes nothing — the fallback for combinational cycles,
    with the same divergence budget as the fixpoint engine).

    The plan itself is value-agnostic — node ids are the caller's; the
    simulator builds the closures. {!render} prints the plan with
    caller-supplied labels so codegen changes show up as reviewable
    golden-file diffs. *)

type step =
  | Straight of int array
      (** Acyclic nodes of one level, in ascending node order. *)
  | Iterate of int array
      (** Members of one cyclic component, swept to a local fixpoint. *)

type plan = {
  p_nodes : int;  (** Total node count. *)
  p_levels : int;  (** Number of levels (0 for an empty graph). *)
  p_cyclic : int;  (** Number of cyclic components. *)
  p_steps : (int * step) array;  (** [(level, step)] in execution order. *)
}

val plan : Sched.t -> plan
(** Freeze a built schedule into a plan. Within a level, the acyclic
    nodes come first as one [Straight] step, followed by the level's
    cyclic components (ordered by smallest member id), so execution
    order respects every cross-component dependency. *)

val render : label:(int -> string) -> plan -> string
(** Pretty-print the plan, one line per node via [label], grouped by
    level with cyclic components marked — the golden-snapshot format. *)
