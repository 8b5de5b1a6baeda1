(** Per-run JSONL manifests ([--telemetry FILE]): one event per toolchain
    stage, carrying the cache-key identity of the run — source hash, pass
    pipeline id, engine — and the stage's wall/GC cost plus its numeric
    results. This is the record a content-addressed compile/sim cache and
    the planned [calyx serve] queue will key on, and the input format of
    [calyx report]. *)

type event = {
  mf_stage : string;  (** ["parse"], ["compile"], a pass name, ["sim"], ... *)
  mf_cat : string;  (** ["stage"] or ["pass"] for span-derived events. *)
  mf_source : string;  (** Input label: file name, kernel, design. *)
  mf_source_hash : string;  (** {!hash} of the source text. *)
  mf_pipeline : string;  (** Pass pipeline id (see [Pipelines.id]). *)
  mf_engine : string;  (** Simulation engine, [""] when not applicable. *)
  mf_seconds : float;
  mf_minor_words : float;
  mf_major_words : float;
  mf_heap_delta_words : int;
  mf_data : (string * float) list;
      (** Stage results: cycles, delay_ps, fmax_mhz, resource counts... *)
}

val hash : string -> string
(** FNV-1a 64 of a string, as 16 hex digits — stable across processes and
    platforms, unlike [Hashtbl.hash]. *)

val set_run :
  ?source:string -> ?source_hash:string -> ?pipeline:string ->
  ?engine:string -> unit -> unit
(** Update the process-wide run context stamped onto subsequent events.
    Fields not passed keep their current value. *)

val run_source : unit -> string

val carry : unit -> (unit -> 'a) -> 'a
(** {!Trace.carry} for the whole telemetry context: [carry ()] captures
    the calling domain's open spans and a copy of its run context, and
    the result runs a thunk on another domain under both, so the events
    of spans closing there are nested and stamped as the caller's
    would be. *)

(** {1 JSON round-trip} *)

val to_json : event -> string
(** One event as a single-line JSON object. *)

val read_file : string -> event list
(** Parse a JSONL manifest; blank lines are skipped. A malformed line
    raises {!Json.Parse_error} located at ["FILE:LINE: "]. *)

(** {1 Writing} *)

type writer

val open_file : string -> writer
val emit : writer -> event -> unit
(** Append one line and flush (manifests survive a crashed run). *)

val events_written : writer -> int
val close : writer -> unit

val record :
  ?cat:string -> ?engine:string -> ?seconds:float ->
  ?data:(string * float) list -> writer -> string -> unit
(** Emit an ad-hoc event under the current run context (for sites that are
    not span-shaped). *)

(** {1 The Trace bridge} *)

val install : writer -> unit
(** Subscribe to {!Trace.set_on_close}: every completed span of category
    ["stage"] or ["pass"] is appended to the manifest as it closes,
    stamped with the current run context. *)

val uninstall : unit -> unit
