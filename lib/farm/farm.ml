module Tele = Calyx_telemetry

type result = {
  job : Job.t;
  outcome : Job.outcome;
  cached : bool;
  seconds : float;
}

type summary = {
  results : result list;
  jobs : int;
  wall_s : float;
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  cache_dir : string option;
}

(* Farm metrics, registered once at module initialization (the registry is
   idempotent and mutex-guarded, so this is domain-safe too). *)
let m_jobs = Tele.Metrics.counter ~help:"Jobs executed by the farm" "calyx_farm_jobs_total"

let m_hits =
  Tele.Metrics.counter ~help:"Farm cache hits" "calyx_farm_cache_hits_total"

let m_misses =
  Tele.Metrics.counter ~help:"Farm cache misses" "calyx_farm_cache_misses_total"

let m_stores =
  Tele.Metrics.counter ~help:"Farm cache blobs written"
    "calyx_farm_cache_stores_total"

let m_evictions =
  Tele.Metrics.counter ~help:"Farm cache blobs evicted as corrupt"
    "calyx_farm_cache_evictions_total"

let job_key job =
  Cache.key ~source:(Job.key_source job)
    ~pipeline:(Calyx.Pipelines.id job.Job.config)
    ~engine:(Job.engine_name job)

(* One worker step: serve the job from the cache when possible, otherwise
   run it cold and store the canonical serialization back. A blob that
   verifies at the cache layer but no longer decodes as an outcome
   (schema drift across repo versions) is evicted and re-run — never
   fatal, never served. *)
let execute cache job =
  let t0 = Unix.gettimeofday () in
  let finish cached outcome =
    { job; outcome; cached; seconds = Unix.gettimeofday () -. t0 }
  in
  let cold () =
    let outcome = Job.run job in
    Option.iter
      (fun c ->
        Cache.store c ~key:(job_key job) (Job.outcome_to_json outcome))
      cache;
    finish false outcome
  in
  match cache with
  | None -> cold ()
  | Some c -> (
      let key = job_key job in
      match Cache.find c ~key with
      | None -> cold ()
      | Some payload -> (
          match Tele.Json.parse payload with
          | exception Tele.Json.Parse_error _ ->
              Cache.evict c ~key;
              cold ()
          | v -> (
              match Job.outcome_of_json v with
              | Some outcome -> finish true outcome
              | None ->
                  Cache.evict c ~key;
                  cold ())))

let run ?jobs ?cache batch =
  let jobs =
    max 1
      (match jobs with Some j -> j | None -> Calyx_pool.Pool.default_jobs ())
  in
  let t0 = Unix.gettimeofday () in
  let before =
    match cache with
    | Some c -> Cache.stats c
    | None -> { Cache.hits = 0; misses = 0; stores = 0; evictions = 0 }
  in
  let results = Calyx_pool.Pool.map ~jobs (execute cache) batch in
  let wall_s = Unix.gettimeofday () -. t0 in
  let after =
    match cache with
    | Some c -> Cache.stats c
    | None -> before
  in
  let hits = after.hits - before.hits
  and misses = after.misses - before.misses
  and stores = after.stores - before.stores
  and evictions = after.evictions - before.evictions in
  Tele.Metrics.inc ~by:(float_of_int (List.length batch)) m_jobs;
  Tele.Metrics.inc ~by:(float_of_int hits) m_hits;
  Tele.Metrics.inc ~by:(float_of_int misses) m_misses;
  Tele.Metrics.inc ~by:(float_of_int stores) m_stores;
  Tele.Metrics.inc ~by:(float_of_int evictions) m_evictions;
  {
    results;
    jobs;
    wall_s;
    hits;
    misses;
    stores;
    evictions;
    cache_dir = Option.map Cache.dir cache;
  }

let hit_rate s =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0. else 100. *. float_of_int s.hits /. float_of_int lookups

(* ------------------------------------------------------------------ *)
(* Counterexamples                                                     *)
(* ------------------------------------------------------------------ *)

type counterexample = {
  seed : int;
  spec : Calyx.Fuzz_gen.spec;
  failure : string;
}

let failure_of (o : Job.outcome) =
  String.concat "; "
    (o.o_diagnostics
    @ match o.o_validate with Some v -> v.v_mismatches | None -> [])

let shrink r =
  match r.job.Job.source with
  | Job.Fuzz { seed } when not r.outcome.Job.o_ok ->
      let last = ref r.outcome in
      let fails spec =
        let text = Calyx.Printer.to_string (Calyx.Fuzz_gen.build spec) in
        let o =
          Job.run
            {
              r.job with
              source = Job.Text { name = Job.label r.job; dahlia = false; text };
            }
        in
        if not o.o_ok then last := o;
        not o.o_ok
      in
      let spec =
        Calyx.Fuzz_gen.minimize ~fails (Calyx.Fuzz_gen.spec_of_seed seed)
      in
      let failure =
        (match r.job.check with
        | Job.Engines -> "engine disagreement: "
        | Simulate | Validate -> "failure: ")
        ^ failure_of !last
      in
      Some { seed; spec; failure }
  | _ -> None

let counterexample_file c =
  let comment s =
    String.concat "\n"
      (List.map (fun l -> "// " ^ l) (String.split_on_char '\n' s))
  in
  Printf.sprintf "// seed: %d\n// spec: %s\n%s\n%s" c.seed
    (Calyx.Fuzz_gen.to_string c.spec)
    (comment c.failure)
    (Calyx.Printer.to_string (Calyx.Fuzz_gen.build c.spec))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let render s =
  let buf = Buffer.create 1024 in
  let label_w =
    List.fold_left
      (fun w r -> max w (String.length r.outcome.Job.o_label))
      5 s.results
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s  %-9s  %-6s  %-4s  %8s  %9s  %8s\n" label_w "job"
       "engine" "cache" "ok" "cycles" "fmax_mhz" "wall_s");
  List.iter
    (fun r ->
      let o = r.outcome in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %-9s  %-6s  %-4s  %8d  %9.1f  %8.3f\n" label_w
           o.Job.o_label o.Job.o_engine
           (if r.cached then "hit" else "miss")
           (if o.Job.o_ok then "ok" else "FAIL")
           o.Job.o_cycles o.Job.o_fmax_mhz r.seconds);
      List.iter
        (fun d -> Buffer.add_string buf (Printf.sprintf "  ! %s\n" d))
        o.Job.o_diagnostics;
      match o.Job.o_validate with
      | Some v when not v.Job.v_ok ->
          List.iter
            (fun m ->
              Buffer.add_string buf (Printf.sprintf "  ! validate: %s\n" m))
            v.Job.v_mismatches
      | _ -> ())
    s.results;
  let failed =
    List.length (List.filter (fun r -> not r.outcome.Job.o_ok) s.results)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "%d job(s), %d worker(s), %.3fs wall%s; %d failed\n"
       (List.length s.results) s.jobs s.wall_s
       (match s.cache_dir with
       | None -> ", cache disabled"
       | Some dir ->
           Printf.sprintf "; cache %s: %d hit(s), %d miss(es), %d store(s), %d eviction(s) (%.0f%% hit rate)"
             dir s.hits s.misses s.stores s.evictions (hit_rate s))
       failed);
  Buffer.contents buf

module Json = Tele.Json

let to_json s =
  Json.obj
    [
      ( "results",
        Json.arr
          (List.map
             (fun r ->
               Json.obj
                 [
                   ("cached", Json.bool r.cached);
                   ("seconds", Json.float r.seconds);
                   ("outcome", Job.outcome_to_json r.outcome);
                 ])
             s.results) );
      ("jobs", Json.int s.jobs);
      ("wall_s", Json.float s.wall_s);
      ("hits", Json.int s.hits);
      ("misses", Json.int s.misses);
      ("stores", Json.int s.stores);
      ("evictions", Json.int s.evictions);
      ("hit_rate_pct", Json.float (hit_rate s));
      ( "cache_dir",
        match s.cache_dir with None -> Json.null | Some d -> Json.str d );
    ]
