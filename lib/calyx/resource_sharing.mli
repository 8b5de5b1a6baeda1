(** Resource sharing (Section 5.1).

    Reuses combinational components across temporally disjoint computations.
    Shareable cells (the ["share"] attribute, or shareable-by-default
    primitives like adders and comparators) conflict when they are used in
    the same group or in groups that may run in parallel (the schedule
    conflict graph); greedy coloring then maps each cell to a
    representative of the same prototype, and all groups are rewritten.
    Stateful cells are never shared — register sharing (Section 5.2) needs
    liveness information and lives in {!Register_sharing}. *)

val pass : Pass.t

val heuristic_pass : Pass.t
(** Like {!pass}, but only shares cells whose logic outweighs the inserted
    multiplexers ({!cost_guided}) — the cost-model direction the paper's
    Section 9 proposes for target-specific tuning. *)

val cost_guided : Ir.prototype -> bool
(** True when sharing a cell of this prototype is estimated profitable. *)

val sharing_map :
  ?profitable:(Ir.prototype -> bool) ->
  Ir.context -> Ir.component -> string Ir.String_map.t
(** The cell-to-representative map the pass would apply (exposed for tests
    and the ablation harness). A cell the map omits keeps its name; the
    map is empty for a component with no groups and [Empty] control. *)

val apply_map : Ir.component -> string Ir.String_map.t -> Ir.component
(** Rename cells throughout a component (assignments and control condition
    ports); also used by {!Register_sharing}. *)
