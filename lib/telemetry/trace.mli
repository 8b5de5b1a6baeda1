(** Hierarchical pipeline spans with wall-time and GC attribution.

    One trace context covers a full toolchain run: parse, check/lint, each
    optimization pass, control compilation, emission, simulation (either
    engine), translation validation, and timing analysis each open a span
    via {!with_span}. A span records wall time from the shared {!Clock}
    and, per [Gc.quick_stat], the minor and major words allocated inside
    it and the major-heap size delta. Nesting is tracked with an explicit
    stack, so a pass span is a child of the compile span that ran it.

    With telemetry disabled ({!Runtime.on} [= false]) [with_span] calls
    its thunk directly — one branch of overhead. Completed spans are
    buffered only when {!set_keep} asked for them (Chrome export) or while
    {!collect} runs; they are always passed to the {!set_on_close} hook,
    which {!Manifest} uses to stream per-stage JSONL events. {!chrome} is
    the toolchain's one Chrome trace renderer, for these spans and for
    the simulated-cycle spans of [Calyx_obs.Spans]. *)

type arg = F of float | S of string

type span = {
  sp_id : int;
  sp_parent : int;  (** id of the enclosing span, [-1] for roots. *)
  sp_depth : int;
  sp_name : string;
  sp_cat : string;  (** ["stage"], ["pass"], or a site-specific label. *)
  sp_start_ns : float;
  mutable sp_end_ns : float;
  mutable sp_minor_words : float;
  mutable sp_major_words : float;
  mutable sp_heap_delta_words : int;
  mutable sp_args : (string * arg) list;
  sp_seq : int;  (** Global open order. *)
  mutable sp_seq_close : int;  (** Global close order. *)
}

val with_span :
  ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a new span. The span is closed (and reported)
    even when the thunk raises; the exception is recorded as an ["error"]
    arg and re-raised. *)

val add_metric : string -> float -> unit
(** Attach a numeric result (cycle count, LUTs, ...) to the innermost open
    span. No-op when telemetry is off or no span is open. *)

val add_tag : string -> string -> unit
(** Attach a string attribute (engine name, file, ...) likewise. *)

val seconds : span -> float
val args : span -> (string * arg) list
val find_arg : span -> string -> arg option

val metrics : span -> (string * float) list
(** The numeric args only. *)

val set_keep : bool -> unit
(** Whether completed spans are buffered for {!spans}/{!to_chrome}
    (default false — steady-state span emission stays O(1) memory). *)

val spans : unit -> span list
(** Buffered completed spans in open order. *)

val set_on_close : (span -> unit) -> unit
val clear_on_close : unit -> unit

val reset : unit -> unit
(** Drop buffered and open spans and restart ids (tests, golden gen). *)

val collect : (unit -> 'a) -> 'a * span list
(** [collect f] runs [f] with telemetry on and returns its result and the
    spans that closed meanwhile, in open order. {!Runtime.on} and
    {!set_keep} are restored afterwards, also when [f] raises (the
    exception is re-raised). [f]'s spans stay in the buffer only if they
    would have without the call: telemetry on and buffering. *)

(** {1 Chrome trace_event export} *)

type domain =
  | Wall  (** Wall-clock microseconds: process 1. *)
  | Cycles  (** Simulated cycles, 1 cycle = 1 µs: process 2. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_track : string;  (** Thread within the process; [""] is unnamed. *)
  ev_domain : domain;
  ev_start : float;
  ev_dur : float;
  ev_args : (string * arg) list;
}

val chrome : event list -> string
(** Chrome [trace_event] JSON (open it at ui.perfetto.dev): process and
    named-thread metadata, then one ["X"] event per event, by track, then
    start, longest first (ties keep the input order). *)

val to_chrome : ?scrub:bool -> unit -> string
(** The buffered spans as {!Wall} events on one unnamed track. [scrub]
    substitutes sequence numbers for timestamps and drops GC/error args:
    byte-stable output for golden tests. *)
