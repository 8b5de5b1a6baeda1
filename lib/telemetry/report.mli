(** Aggregation behind [calyx report]: fold a corpus of JSONL run
    manifests into per-source, per-stage rollups (invocation counts, wall
    time, GC words, summed stage metrics), and compare two bench results
    files for compile-time regressions. *)

type rollup = {
  r_source : string;
  r_stage : string;
  r_cat : string;
  r_count : int;
  r_seconds : float;
  r_minor_words : float;
  r_major_words : float;
  r_data : (string * float) list;
}

val aggregate : Manifest.event list -> rollup list
(** Group by (source, stage) in first-seen order, summing wall time, GC
    words, and every numeric data field. *)

val totals_by_source : rollup list -> (string * (float * float)) list
(** Per-source [(seconds, minor words)] totals over the ["stage"] rows
    (pass rows nest inside the compile stage and would double-count). *)

val render : rollup list -> string
val to_json : rollup list -> string

(** {1 Compile-time regression vs a baseline} *)

type perf_delta = {
  p_name : string;
  p_base_ns : float;
  p_cur_ns : float;
  p_ratio : float;  (** current / baseline. *)
  p_normalized : float;  (** [p_ratio] divided by the machine factor. *)
  p_regressed : bool;
}

val compare_perf :
  threshold:float -> baseline:Json.value -> current:Json.value ->
  perf_delta list * float
(** Pair the perf rows of two bench results files. The returned machine
    factor is the geomean of all current/baseline ratios; a row is
    regressed when its own ratio exceeds the factor by more than
    [threshold] — i.e. it slowed down relative to the toolchain as a
    whole, which is robust to the baseline having been recorded on a
    different machine. *)

val render_perf : threshold:float -> perf_delta list * float -> string
val regressions : perf_delta list -> perf_delta list
