(** The pass framework: named context-to-context transformations.

    Each compiler pass is a value of type {!t}. {!run} optionally re-checks
    well-formedness after the transformation (on by default), which turns
    pass bugs into early, attributable failures.

    Every invocation opens a telemetry span (category ["pass"]) and bumps
    the process-wide [calyx_pass_invocations_total] counter. That span is
    the pass's one record of time and size: its metrics are the output's
    {!counts}, which [Calyx_obs.Pass_stats] renders. With telemetry off
    nothing is measured: one branch via [Calyx_telemetry.Runtime.on]. *)

type t = {
  name : string;
  description : string;
  transform : Ir.context -> Ir.context;
}

val make : name:string -> description:string -> (Ir.context -> Ir.context) -> t

(** {1 Instrumentation} *)

type counts = {
  components : int;
  cells : int;
  groups : int;
  assignments : int;  (** Continuous plus grouped, over all components. *)
  control_nodes : int;  (** {!Ir.control_size}, summed. *)
}
(** The IR-size metrics a pass span carries. *)

val measure : Ir.context -> counts

val record_counts : Ir.context -> unit
(** With telemetry on, attach {!measure} of the context to the innermost
    open span, one metric per {!counts} field, named after it. *)

val span_counts : Calyx_telemetry.Trace.span -> counts option
(** The counts {!record_counts} attached to a span, if it has them. *)

(** {1 Running passes} *)

val run : ?validate:bool -> t -> Ir.context -> Ir.context
(** Apply one pass; with [validate] (default true), raises
    [Well_formed.Malformed] annotated with the pass name if the output is
    malformed. The pass runs in a telemetry span named after it; the
    re-validation, in a ["revalidate"] span nested inside that one. *)

val run_all : ?validate:bool -> t list -> Ir.context -> Ir.context

val per_component : (Ir.context -> Ir.component -> Ir.component) -> Ir.context -> Ir.context
(** Lift a per-component rewrite over every non-extern component. The
    function receives the original (pre-pass) context for lookups. *)
