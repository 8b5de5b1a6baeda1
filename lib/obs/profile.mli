(** The runtime profiler — a {!Calyx_sim.Sim.sink} that accumulates
    per-group active-cycle counts, per-cell utilization, and settle
    iteration counts, and attributes measured group cycles against
    the latencies {!Calyx.Infer_latency} derives.

    Groups and instances are addressed as in {!Calyx_sim.Sim}: instance
    paths are dotted cell names from the entrypoint ([""] for the root).

    {2 The latency contract}

    For a dynamic (latency-insensitive) schedule, a group whose done hole
    is a constant is active for exactly its derived latency per activation;
    a group with a registered done pays one extra done-observation cycle.
    {!latency_report} compares each group's measured active cycles against
    [activations * expected] and flags disagreements — the runtime
    counterpart of the CX025 static lint. Activations are counted as rising
    edges of activity, so back-to-back enables of the {e same} group (e.g.
    [seq { g; g }]) fuse into one activation and can report a spurious
    mismatch; distinct groups (the universal frontend idiom) are exact. *)

open Calyx

type t

val create : Calyx_sim.Sim.t -> t
(** A fresh profiler for this simulation instance (it snapshots the
    signal/instance tables, so create it after the design is built). *)

val sink : t -> Calyx_sim.Sim.event -> unit
(** Feed one cycle; install with [Sim.add_sink sim (Profile.sink p)],
    which composes with any other attached observer. *)

(** {1 Accumulated data} *)

type group_stat = {
  gs_instance : string;  (** Instance path ([""] = entrypoint). *)
  gs_component : string;  (** The component defining the group. *)
  gs_group : string;
  gs_active_cycles : int;
  gs_activations : int;  (** Rising edges of activity. *)
}

type cell_stat = {
  cs_path : string;  (** Hierarchical cell path, e.g. ["pe00.mul"]. *)
  cs_active_cycles : int;
      (** Cycles in which the cell's [go] or [write_en] input was high. *)
}

val total_cycles : t -> int
(** Cycles observed — equals {!Calyx_sim.Sim.run}'s return value when the
    profiler was attached before the run. *)

val group_stats : t -> group_stat list
(** Sorted by instance path, then group name. For a purely sequential
    schedule the active cycles sum to {!total_cycles}; [par] arms overlap
    and may sum to more. *)

val cell_stats : t -> cell_stat list
(** Only cells with a [go] or [write_en] input appear (combinational cells
    have no meaningful activity bit); sorted by path. *)

val settle_total : t -> int
(** Settle work ({!Calyx_sim.Sim.event}'s [ev_iters]: fixpoint iterations
    under the fixpoint engine, graph nodes touched under the compiled
    engine) summed over all observed cycles and the whole instance
    hierarchy. *)

val settle_max : t -> int
(** The worst single cycle. *)

(** {1 Latency attribution} *)

val combinational_done : Ir.group -> bool
(** Whether the group's done hole is driven by an unconditional non-zero
    constant — such a group presents done combinationally and takes exactly
    its derived latency; any other group registers done and pays one extra
    observation cycle per activation. The coverage layer's critical-path
    cross-check uses the same convention. *)

type latency_row = {
  lr_stat : group_stat;
  lr_derived : int option;
      (** {!Infer_latency.derived_group_latency} for this group. *)
  lr_annotated : int option;  (** The group's ["static"] attribute. *)
  lr_expected : int option;
      (** Expected active cycles per activation under the dynamic
          schedule (derived latency, plus one unless the done hole is
          constant). *)
  lr_mismatch : bool;
      (** Measured cycles disagree with [activations * expected]. Always
          false when no latency was derived. *)
}

val latency_report : Ir.context -> t -> latency_row list
(** [ctx] must be the {e structured} program the simulation ran (groups
    intact). Groups whose component or definition cannot be found in [ctx]
    (e.g. after lowering) are reported with no expectation. *)

val mismatches : Ir.context -> t -> latency_row list
(** The rows of {!latency_report} with [lr_mismatch] set. *)

(** {1 Rendering} *)

val render : ?ctx:Ir.context -> t -> string
(** The human-readable report: totals, settle statistics, the per-group
    table (with latency attribution when [ctx] is given), and cell
    utilization. *)

val to_json : ?ctx:Ir.context -> t -> string
(** The same data as a JSON object (following the {!Calyx.Diagnostics}
    JSON conventions: one top-level object, snake_case keys). *)
