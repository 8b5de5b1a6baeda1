(** Aggregation behind [calyx report]: fold a corpus of JSONL run
    manifests into per-source, per-stage rollups (invocation counts, wall
    time, GC words, summed stage metrics), and gate a bench results file
    against a baseline. *)

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

(** {1 The gate: a bench results file vs a baseline}

    Two rules over one parsed pair of [BENCH_results.json] files. Every
    deterministic numeric or boolean leaf of each experiment's [summary]
    and [rows] may move at most 5% (booleans
    count as 0/1; a zero baseline fails on any change). Wall-clock leaves
    (keys ending in [_s] or [_x], and [ns_per_run]) and the whole [perf]
    experiment are not compared that way: the [perf] rows are gated by
    machine factor instead (see {!compare_perf}). *)

type leaf = {
  l_experiment : string;
  l_label : string;
      (** ["summary.KEY"] or ["rows[ID].KEY"], where ID is the row's
          [kernel], then [n] (as ["n=N"]), then [design], then its index. *)
  l_base : float option;  (** [None]: not in the baseline (a new leaf). *)
  l_cur : float;
}

val leaf_failed : leaf -> bool

type perf_delta = {
  p_name : string;
  p_base_ns : float;
  p_cur_ns : float;
  p_ratio : float;  (** current / baseline. *)
  p_normalized : float;  (** [p_ratio] divided by the machine factor. *)
  p_regressed : bool;
}

val compare_perf :
  baseline:Json.value -> current:Json.value -> perf_delta list * float
(** Pair the perf rows of two bench results files. The returned machine
    factor is the geomean of all current/baseline ratios; a row is
    regressed when its own ratio exceeds the factor by more than 25%
    — i.e. it slowed down relative to the toolchain as
    a whole, which is robust to the baseline having been recorded on a
    different machine. *)

type gate = {
  g_leaves : leaf list;  (** Every deterministic leaf of the current file. *)
  g_skipped : string list;  (** Experiments missing from the baseline. *)
  g_perf : perf_delta list;
  g_factor : float;  (** The perf rows' machine factor. *)
}

val gate : baseline:Json.value -> current:Json.value -> gate

val failed : gate -> bool
(** A leaf past its tolerance or a regressed perf row. *)

val render_gate : gate -> string
(** The changed and new leaves, skipped experiments, and every perf row,
    with counts. *)
