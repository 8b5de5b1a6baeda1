(** Per-pass statistics of a compile ([calyx compile --pass-stats], the
    [profile] report), rendered from its telemetry spans: each pass span
    carries its output's {!Calyx.Pass.counts} and the ["compile"] span the
    input's, so a pass's before-counts are the previous span's.

    {[
      let ctx, stats = Pass_stats.compile ~config ctx in
      prerr_string (Pass_stats.render stats)
    ]} *)

open Calyx

type row = {
  pass : string;
  description : string;
  seconds : float;  (** {!self_seconds} of the pass span. *)
  before : Pass.counts;
  after : Pass.counts;
  timing_before : (int * float) option;
      (** Delay (ps) and Fmax (MHz) of the pass's input; [None] when its
          merged netlist cannot be timed. *)
  timing_after : (int * float) option;
}

type t = row list
(** One row per pass, in execution order. *)

val compile : ?config:Pipelines.config -> Ir.context -> Ir.context * t
(** [Pipelines.compile] under {!Calyx_telemetry.Trace.collect}, plus one
    static timing analysis of each program {!replay} rebuilds. *)

val self_seconds :
  Calyx_telemetry.Trace.span list -> Calyx_telemetry.Trace.span -> float
(** A pass span's duration minus its ["revalidate"] child's (found in the
    list): the pass's own time. *)

val replay : Pipelines.config -> Ir.context -> (Ir.context -> 'a) -> 'a list
(** [f] of the input and of each pass's output, folding the passes'
    transforms once; one intermediate program is alive at a time. *)

val render : t -> string
(** The human table: per pass, milliseconds,
    [before->after (+/-delta)] for cells, groups, assignments, and control
    nodes, plus critical-path depth (ps) and Fmax (MHz) deltas from the
    static timing analysis ("-" where a program cannot be timed). *)

val to_json : t -> string
(** [{"passes": [...], "total_seconds": ...}] following the
    {!Calyx.Diagnostics} JSON conventions; each pass additionally carries
    [delay_ps_before/after] and [fmax_mhz_before/after] (null when the
    intermediate netlist cannot be timed). *)
