(** The process-wide telemetry switch.

    All collection — spans and their args ({!Trace}), manifest events
    ({!Manifest}) — is gated on this one flag. When it is
    off (the default), every instrumented site in the toolchain reduces to
    a single [ref] read, which is what makes the "no-op sink compiled in
    by default" zero-cost claim testable (the bench [telemetry]
    experiment). *)

val on : unit -> bool
(** Whether telemetry is being collected. *)

val enable : unit -> unit
val disable : unit -> unit

val with_enabled : (unit -> 'a) -> 'a
(** Run [f] with telemetry enabled, restoring the previous state after
    (also on exceptions). *)
