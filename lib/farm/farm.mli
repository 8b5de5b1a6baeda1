(** The compile/sim farm: shard a batch of {!Job}s across a
    {!Calyx_pool.Pool} of OCaml 5 domains, short-circuiting each job
    through the content-addressed {!Cache}.

    Results come back in submission order with per-job wall time and
    cache provenance; parallel execution and cache hits are both required
    to be byte-identical to a sequential cold run (the determinism stress
    suite in [test_farm.ml] enforces this). *)

type result = {
  job : Job.t;
  outcome : Job.outcome;
  cached : bool;  (** Served from the cache (integrity-verified). *)
  seconds : float;  (** Wall time of this job on its worker domain. *)
}

type summary = {
  results : result list;  (** In submission order. *)
  jobs : int;  (** Worker-domain count actually used. *)
  wall_s : float;  (** End-to-end batch wall time. *)
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  cache_dir : string option;  (** [None] when caching was disabled. *)
}

val run : ?jobs:int -> ?cache:Cache.t -> Job.t list -> summary
(** Execute the batch. [jobs] defaults to
    {!Calyx_pool.Pool.default_jobs} (clamped to at least 1); omit [cache] to force every job cold. For each job the
    worker looks up the cache key (source text + pass-pipeline id +
    engine + tool version); a verified hit is decoded instead of run, a
    decode failure evicts the blob and falls back to a cold run, and cold
    outcomes are stored back. The summary's cache counts are this
    batch's deltas of {!Cache.stats}, read on the calling domain after
    the join. *)

val hit_rate : summary -> float
(** Hits over cache lookups, in percent; [0.] when nothing was looked
    up. *)

(** {1 Counterexamples} *)

type counterexample = {
  seed : int;  (** The failed [Fuzz] job's seed. *)
  spec : Calyx.Fuzz_gen.spec;  (** The minimized program spec. *)
  failure : string;  (** Why the minimized program fails. *)
}

val shrink : result -> counterexample option
(** For a failed [Fuzz] job, minimize its program with
    {!Calyx.Fuzz_gen.minimize}. A candidate fails when the same job
    (config, engine and check) on a [Text] source holding the printed
    candidate fails; candidates run through {!Job.run} on the calling
    domain and never touch the cache. [None] for every other result. *)

val counterexample_file : counterexample -> string
(** The counterexample file: [// seed:], [// spec:] and [//]-commented
    failure lines, then the minimized program. *)

val render : summary -> string
(** The human-readable table: one row per job (label, engine, cache
    provenance, ok, cycles, fmax, wall time) plus a totals footer. *)

val to_json : summary -> string
(** The [--json] form: the full outcome of every job plus the batch and
    cache counters. *)
