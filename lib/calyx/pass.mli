(** The pass framework: named context-to-context transformations.

    Each compiler pass is a value of type {!t}. {!run} optionally re-checks
    well-formedness after the transformation (on by default), which turns
    pass bugs into early, attributable failures; it also optionally reports
    an {!observation} per pass (wall-clock time and IR size before/after),
    the raw material of [calyx compile --pass-stats].

    Every invocation additionally opens a telemetry span (category
    ["pass"]) and bumps the process-wide [calyx_pass_invocations_total]
    counter — both free when telemetry is disabled (one branch via
    [Calyx_telemetry.Runtime.on]). *)

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
(** The IR-size metrics recorded around every observed pass. *)

val measure : Ir.context -> counts

type observation = {
  obs_pass : string;
  obs_description : string;
  obs_seconds : float;
      (** Wall-clock seconds of the transformation itself (validation
          excluded). *)
  obs_before : counts;
  obs_after : counts;
  obs_ctx_before : Ir.context;
      (** The contexts themselves (immutable, so sharing them is free):
          observers that need more than size counts — e.g. per-pass timing
          analysis — re-measure these. *)
  obs_ctx_after : Ir.context;
}

(** {1 Running passes} *)

val run :
  ?validate:bool -> ?observe:(observation -> unit) -> t -> Ir.context ->
  Ir.context
(** Apply one pass; with [validate] (default true), raises
    [Well_formed.Malformed] annotated with the pass name if the output is
    malformed. The pass runs in a telemetry span named after it; the
    re-validation, in a ["revalidate"] span nested inside that one. [observe] (off by default — the uninstrumented path measures
    nothing) receives one {!observation} after the pass completes. *)

val run_all :
  ?validate:bool -> ?observe:(observation -> unit) -> t list -> Ir.context ->
  Ir.context
(** Observations arrive in pass order; consecutive observations chain
    ([obs_after] of one equals [obs_before] of the next). *)

val per_component : (Ir.context -> Ir.component -> Ir.component) -> Ir.context -> Ir.context
(** Lift a per-component rewrite over every non-extern component. The
    function receives the original (pre-pass) context for lookups. *)
