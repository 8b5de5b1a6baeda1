(* The compile/sim farm: determinism under parallelism and caching.

   The farm's contract is byte-identity: a batch must serialize to
   exactly the same outcome records whether it ran on one domain, on
   many, or was served from the content-addressed cache — across both
   simulation engines, and with telemetry enabled. The stress suite here
   runs the full example + PolyBench corpus through all three modes and
   compares the canonical JSON byte-for-byte; the QCheck properties
   check the cache key (any source mutation re-keys), the hit path
   (identical source → verified hit), and the integrity hash (a
   corrupted blob is evicted and recomputed cold, never served and never
   fatal). Also here: the worker pool's ordering/failure semantics and
   the manifest writer's atomic-line guarantee under concurrent
   domains. *)

module Farm = Calyx_farm.Farm
module Job = Calyx_farm.Job
module Cache = Calyx_farm.Cache
module Pool = Calyx_pool.Pool
module T = Calyx_telemetry

let example file =
  List.find Sys.file_exists
    [ "../examples/sources/" ^ file; "examples/sources/" ^ file ]

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  end

let with_temp_dir prefix f =
  let d = temp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let scrub () =
  T.Runtime.disable ();
  T.Trace.set_keep false;
  T.Trace.reset ();
  T.Trace.clear_on_close ()

let outcome_bytes (s : Farm.summary) =
  List.map (fun r -> Job.outcome_to_json r.Farm.outcome) s.Farm.results

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_order () =
  let items = List.init 100 Fun.id in
  let expect = List.map (fun x -> x * 2) items in
  Alcotest.(check (list int))
    "sequential" expect
    (Pool.map ~jobs:1 (fun x -> x * 2) items);
  Alcotest.(check (list int))
    "parallel keeps input order" expect
    (Pool.map ~jobs:4 (fun x -> x * 2) items);
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:4 Fun.id [])

let test_pool_failure () =
  Alcotest.check_raises "exception re-raised on the caller"
    (Failure "boom")
    (fun () ->
      ignore
        (Pool.map ~jobs:4
           (fun x -> if x = 13 then failwith "boom" else x)
           (List.init 40 Fun.id)))

let cores = Domain.recommended_domain_count ()
let self () = (Domain.self () :> int)

let test_both_order () =
  Alcotest.(check (pair int string))
    "results in order" (1, "two")
    (Pool.both (fun () -> 1) (fun () -> "two"));
  let f_on, g_on = Pool.both self self in
  Alcotest.(check int) "f runs on the caller" (self ()) f_on;
  Alcotest.(check bool)
    "g runs on another domain exactly when there are cores to spare"
    (cores > 1) (g_on <> f_on)

let test_both_failure () =
  Alcotest.check_raises "f's exception" (Failure "f") (fun () ->
      ignore (Pool.both (fun () -> failwith "f") (fun () -> 2)));
  Alcotest.check_raises "g's exception" (Failure "g") (fun () ->
      ignore (Pool.both (fun () -> 1) (fun () -> failwith "g")));
  Alcotest.check_raises "f's wins when both raise" (Failure "f") (fun () ->
      ignore (Pool.both (fun () -> failwith "f") (fun () -> failwith "g")));
  (* A failed join leaves the helper free for the next call. *)
  let f_on, g_on = Pool.both self self in
  Alcotest.(check bool) "helper reused" (cores > 1) (g_on <> f_on)

let test_both_nested () =
  let (), (g_on, (inner_f, inner_g)) =
    Pool.both (fun () -> Unix.sleepf 0.01) (fun () ->
        (self (), Pool.both self self))
  in
  Alcotest.(check int) "inner f on the domain that called it" g_on inner_f;
  Alcotest.(check int) "inner g runs sequentially there too" g_on inner_g

(* The helper is reused while calls keep coming, leaves when a map
   starts, and exits after half a second without a call; the next call
   spawns a new domain (ids are never reused). *)
let test_both_idle () =
  let _, first = Pool.both ignore self in
  let _, again = Pool.both ignore self in
  Alcotest.(check int) "reused by the next call" first again;
  ignore (Pool.map ~jobs:2 Fun.id [ 1; 2 ]);
  let _, after_map = Pool.both ignore self in
  Alcotest.(check bool) "a map retires it" (cores > 1) (after_map <> first);
  Unix.sleepf 1.0;
  let _, later = Pool.both ignore self in
  Alcotest.(check bool) "respawned after idling" (cores > 1) (later <> after_map)

(* Every [both] inside a full-width map falls back to the caller: at any
   moment, no more distinct domains compute than there are cores. *)
let test_both_in_map () =
  let lock = Mutex.create () in
  let computing = Hashtbl.create 8 and peak = ref 0 in
  let compute () =
    let id = self () in
    Mutex.lock lock;
    Hashtbl.replace computing id ();
    peak := max !peak (Hashtbl.length computing);
    Mutex.unlock lock;
    Unix.sleepf 0.002;
    Mutex.lock lock;
    Hashtbl.remove computing id;
    Mutex.unlock lock;
    id
  in
  let ids =
    Pool.map ~jobs:cores
      (fun _ -> Pool.both compute compute)
      (List.init (4 * cores) Fun.id)
  in
  List.iter
    (fun (f_on, g_on) ->
      Alcotest.(check int) "both inside a map runs on one domain" f_on g_on)
    ids;
  Alcotest.(check bool)
    (Printf.sprintf "at most %d domains computing (saw %d)" cores !peak)
    true (!peak <= cores)

(* ------------------------------------------------------------------ *)
(* Determinism stress: jobs 1 vs jobs N vs cached-warm, all engines    *)
(* ------------------------------------------------------------------ *)

(* The full corpus: every example source, every PolyBench kernel, a
   systolic array, and a few fuzz programs. Rebuilt per mode so no run
   can share in-memory state with another. *)
let corpus ~engine () =
  List.map
    (fun f -> Job.of_file ~engine (example f))
    [ "counter.futil"; "invoke.futil"; "dotprod.dahlia"; "histogram.dahlia" ]
  @ List.map
      (fun (k : Polybench.Kernels.kernel) ->
        Job.make ~engine (Job.Polybench { kernel = k.name; unrolled = false }))
      Polybench.Kernels.all
  @ [ Job.make ~engine (Job.Systolic { rows = 2; cols = 2; depth = 2 }) ]
  @ List.map (fun s -> Job.make ~engine (Job.Fuzz { seed = s })) [ 1; 2; 3 ]

let check_determinism engine () =
  let jobs () = corpus ~engine () in
  let n = List.length (jobs ()) in
  let seq = Farm.run ~jobs:1 (jobs ()) in
  Alcotest.(check int) "corpus all ran" n (List.length seq.Farm.results);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        ("job ok: " ^ r.Farm.outcome.Job.o_label)
        true r.Farm.outcome.Job.o_ok)
    seq.Farm.results;
  let par = Farm.run ~jobs:4 (jobs ()) in
  Alcotest.(check (list string))
    "jobs=4 byte-identical to jobs=1" (outcome_bytes seq) (outcome_bytes par);
  with_temp_dir "farm_det" @@ fun dir ->
  let cold = Farm.run ~jobs:4 ~cache:(Cache.open_dir dir) (jobs ()) in
  let warm = Farm.run ~jobs:4 ~cache:(Cache.open_dir dir) (jobs ()) in
  Alcotest.(check (list string))
    "cold cached run byte-identical" (outcome_bytes seq) (outcome_bytes cold);
  Alcotest.(check (list string))
    "warm run byte-identical" (outcome_bytes seq) (outcome_bytes warm);
  Alcotest.(check int) "cold run stored everything" n cold.Farm.stores;
  Alcotest.(check int) "warm run all hits" n warm.Farm.hits;
  Alcotest.(check int) "warm run no misses" 0 warm.Farm.misses

(* Telemetry must not perturb results: the same batch with spans,
   manifest context, and metrics all live is byte-identical to the
   baseline — from worker domains too (per-domain span stacks). *)
let test_telemetry_neutral () =
  let jobs () =
    List.map
      (fun (k : Polybench.Kernels.kernel) ->
        Job.make ~engine:`Compiled
          (Job.Polybench { kernel = k.name; unrolled = false }))
      [ Polybench.Kernels.find "gemm"; Polybench.Kernels.find "atax" ]
    @ List.map
        (fun s -> Job.make ~engine:`Compiled (Job.Fuzz { seed = s }))
        [ 4; 5 ]
  in
  let baseline = outcome_bytes (Farm.run ~jobs:1 (jobs ())) in
  Fun.protect ~finally:scrub (fun () ->
      T.Runtime.enable ();
      T.Trace.set_keep true;
      let traced = outcome_bytes (Farm.run ~jobs:4 (jobs ())) in
      Alcotest.(check (list string))
        "telemetry-enabled parallel run byte-identical" baseline traced;
      Alcotest.(check bool)
        "farm spans were recorded" true
        (List.exists (fun sp -> sp.T.Trace.sp_cat = "farm") (T.Trace.spans ())))

(* Validation-carrying outcomes must round-trip and stay deterministic
   through the cache too (their payload includes the RTL report). *)
let test_validate_outcomes_cached () =
  with_temp_dir "farm_val" @@ fun dir ->
  let jobs () =
    [
      Job.make ~engine:`Compiled ~check:Validate
        (Job.Polybench { kernel = "trisolv"; unrolled = false });
      Job.make ~engine:`Compiled ~check:Validate (Job.Fuzz { seed = 6 });
    ]
  in
  let cold = Farm.run ~jobs:1 ~cache:(Cache.open_dir dir) (jobs ()) in
  let warm = Farm.run ~jobs:1 ~cache:(Cache.open_dir dir) (jobs ()) in
  Alcotest.(check (list string))
    "validated outcomes byte-identical warm" (outcome_bytes cold)
    (outcome_bytes warm);
  List.iter
    (fun r ->
      match r.Farm.outcome.Job.o_validate with
      | Some v -> Alcotest.(check bool) "rtl agrees" true v.Job.v_ok
      | None -> Alcotest.fail "validation report missing from outcome")
    warm.Farm.results;
  (* And the check participates in the key: simulate, validate and
     engines on the same source are three entries, never a wrong hit. *)
  let key check =
    let j = Job.make ~engine:`Compiled ~check (Job.Fuzz { seed = 6 }) in
    Cache.key ~source:(Job.key_source j)
      ~pipeline:(Calyx.Pipelines.id j.Job.config)
      ~engine:(Job.engine_name j)
  in
  Alcotest.(check int)
    "three checks, three keys" 3
    (List.length
       (List.sort_uniq compare
          (List.map (fun (_, c) -> key c) Job.checks)));
  let plain =
    Farm.run ~jobs:1
      ~cache:(Cache.open_dir dir)
      [ Job.make ~engine:`Compiled (Job.Fuzz { seed = 6 }) ]
  in
  (match plain.Farm.results with
  | [ r ] ->
      Alcotest.(check bool) "non-validated job missed" false r.Farm.cached;
      Alcotest.(check bool)
        "non-validated outcome has no report" true
        (r.Farm.outcome.Job.o_validate = None)
  | _ -> Alcotest.fail "expected one result");
  Alcotest.(check int) "cold stored both" 2 cold.Farm.stores

(* Engines jobs run the fixpoint-vs-compiled differential on the
   structured and the lowered program, inputs loaded; the engines agree on
   the fuzz corpus and on a PolyBench kernel, and a passing job has
   nothing to shrink. *)
let test_engines_jobs () =
  let jobs =
    Job.make ~check:Engines (Job.Polybench { kernel = "gemm"; unrolled = false })
    :: List.map
         (fun s -> Job.make ~check:Engines (Job.Fuzz { seed = s }))
         (List.init 8 Fun.id)
  in
  let s = Farm.run ~jobs:2 jobs in
  List.iter
    (fun r ->
      let o = r.Farm.outcome in
      if not o.Job.o_ok then
        Alcotest.failf "%s: %s" o.Job.o_label
          (String.concat "; " o.Job.o_diagnostics);
      Alcotest.(check bool)
        (o.Job.o_label ^ " has no counterexample")
        true
        (Farm.shrink r = None))
    s.Farm.results;
  (* The differential adds no payload: an engines outcome is the
     simulate outcome. *)
  let plain = Farm.run ~jobs:1 [ Job.make (Job.Fuzz { seed = 3 }) ] in
  let engines =
    List.find (fun r -> r.Farm.outcome.Job.o_label = "fuzz-3") s.Farm.results
  in
  Alcotest.(check (list string))
    "engines outcome = simulate outcome" (outcome_bytes plain)
    [ Job.outcome_to_json engines.Farm.outcome ]

let test_outcome_roundtrip () =
  let job =
    Job.make ~engine:`Compiled ~check:Validate (Job.Fuzz { seed = 42 })
  in
  let o = Job.run job in
  let bytes = Job.outcome_to_json o in
  match Job.outcome_of_json (T.Json.parse bytes) with
  | None -> Alcotest.fail "outcome did not decode"
  | Some o' ->
      Alcotest.(check string)
        "decode/encode reproduces the bytes" bytes (Job.outcome_to_json o')

(* ------------------------------------------------------------------ *)
(* Cache-correctness properties (Fuzz_seed-derived programs)           *)
(* ------------------------------------------------------------------ *)

let pipeline_id = Calyx.Pipelines.id Calyx.Pipelines.default_config

(* Mutate one width in the printed program — the fuzzer's registers are
   all 8 bits wide, so this rewrites the first register declaration.
   Falls back to a group-comment edit for the (empty) programs without
   one; either way the source text differs. *)
let mutate text =
  let needle = "(8)" in
  let rec find i =
    if i + String.length needle > String.length text then None
    else if String.sub text i (String.length needle) = needle then Some i
    else find (i + 1)
  in
  match find 0 with
  | Some i ->
      String.sub text 0 i ^ "(16)"
      ^ String.sub text (i + String.length needle)
          (String.length text - i - String.length needle)
  | None -> text ^ "\n// mutated"

let prop_mutation_rekeys =
  QCheck.Test.make ~name:"source mutation changes the cache key (miss)"
    ~count:30
    (Fuzz_seed.seed_arb "farm-rekey")
    (fun seed ->
      let text =
        Calyx.Printer.to_string (Calyx.Fuzz_gen.program_of_seed seed)
      in
      let key t =
        Cache.key ~source:("+sim\ncalyx:" ^ t) ~pipeline:pipeline_id
          ~engine:"compiled"
      in
      let k, k' = (key text, key (mutate text)) in
      with_temp_dir "farm_rekey" @@ fun dir ->
      let c = Cache.open_dir dir in
      Cache.store c ~key:k "payload";
      k <> k'
      && Cache.find c ~key:k' = None
      && Cache.find c ~key:k = Some "payload"
      && (Cache.stats c).Cache.misses = 1
      && (Cache.stats c).Cache.hits = 1)

let prop_identical_source_hits =
  QCheck.Test.make ~name:"identical source re-parse is a verified hit"
    ~count:15
    (Fuzz_seed.seed_arb "farm-hit")
    (fun seed ->
      with_temp_dir "farm_hit" @@ fun dir ->
      (* Two fresh job values from the same seed: equal content, no
         sharing — the hit must come from the key, not from memory. *)
      let job () = [ Job.make ~engine:`Compiled (Job.Fuzz { seed }) ] in
      let a = Farm.run ~jobs:1 ~cache:(Cache.open_dir dir) (job ()) in
      let b = Farm.run ~jobs:1 ~cache:(Cache.open_dir dir) (job ()) in
      match (a.Farm.results, b.Farm.results) with
      | [ ra ], [ rb ] ->
          (not ra.Farm.cached) && rb.Farm.cached
          && Job.outcome_to_json ra.Farm.outcome
             = Job.outcome_to_json rb.Farm.outcome
      | _ -> false)

let prop_corrupt_blob_rejected =
  QCheck.Test.make
    ~name:"corrupt blob fails the integrity check; farm recomputes cold"
    ~count:15
    (Fuzz_seed.seed_arb "farm-corrupt")
    (fun seed ->
      with_temp_dir "farm_corrupt" @@ fun dir ->
      let job () = [ Job.make ~engine:`Compiled (Job.Fuzz { seed }) ] in
      let a = Farm.run ~jobs:1 ~cache:(Cache.open_dir dir) (job ()) in
      (* Flip one byte in the middle of every stored blob: depending on
         where it lands this breaks the JSON, the key echo, or the
         payload integrity hash — all must be rejected on read. *)
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          let i = String.length text / 2 in
          let flipped =
            String.mapi
              (fun j ch -> if j = i then Char.chr (Char.code ch lxor 1) else ch)
              text
          in
          let oc = open_out_bin path in
          output_string oc flipped;
          close_out oc)
        (Sys.readdir dir);
      let b = Farm.run ~jobs:1 ~cache:(Cache.open_dir dir) (job ()) in
      match (a.Farm.results, b.Farm.results) with
      | [ ra ], [ rb ] ->
          (not rb.Farm.cached)
          && b.Farm.evictions >= 1
          && b.Farm.stores = 1
          && Job.outcome_to_json ra.Farm.outcome
             = Job.outcome_to_json rb.Farm.outcome
      | _ -> false)

(* A blob that passes the integrity check but does not decode as an
   outcome (schema drift across versions): evicted above the cache
   layer, recomputed cold, never fatal. *)
let test_schema_drift_evicted () =
  with_temp_dir "farm_drift" @@ fun dir ->
  let job = Job.make ~engine:`Compiled (Job.Fuzz { seed = 9 }) in
  let key =
    Cache.key ~source:(Job.key_source job)
      ~pipeline:(Calyx.Pipelines.id job.Job.config)
      ~engine:(Job.engine_name job)
  in
  let c = Cache.open_dir dir in
  Cache.store c ~key "{\"not\":\"an outcome\"}";
  let s = Farm.run ~jobs:1 ~cache:c [ job ] in
  match s.Farm.results with
  | [ r ] ->
      Alcotest.(check bool) "not served from cache" false r.Farm.cached;
      Alcotest.(check bool) "job still succeeded" true r.Farm.outcome.Job.o_ok;
      Alcotest.(check int) "stale blob evicted" 1 s.Farm.evictions;
      Alcotest.(check int) "fresh blob stored" 2 (Cache.stats c).Cache.stores
  | _ -> Alcotest.fail "expected one result"

(* The engine is a key component: the same source under the two
   evaluation engines occupies two distinct cache slots, so a result
   computed by one engine is never served as another's. The outcomes
   themselves must still agree (the engines are observably equal), which
   is exactly why the key — not the bytes — must separate them. *)
let test_engine_key_separation () =
  let job engine = Job.make ~engine (Job.Fuzz { seed = 11 }) in
  let key engine =
    let j = job engine in
    Cache.key ~source:(Job.key_source j)
      ~pipeline:(Calyx.Pipelines.id j.Job.config)
      ~engine:(Job.engine_name j)
  in
  Alcotest.(check bool)
    "two engines, two keys" true
    (key `Fixpoint <> key `Compiled);
  with_temp_dir "farm_engines" @@ fun dir ->
  let run engine = Farm.run ~jobs:1 ~cache:(Cache.open_dir dir) [ job engine ] in
  let f1 = run `Fixpoint in
  let c1 = run `Compiled in
  Alcotest.(check int) "compiled run misses the fixpoint entry" 0 c1.Farm.hits;
  Alcotest.(check int) "compiled outcome stored separately" 1 c1.Farm.stores;
  let c2 = run `Compiled in
  Alcotest.(check int) "compiled warm run hits" 1 c2.Farm.hits;
  Alcotest.(check (list string))
    "warm compiled outcome byte-identical" (outcome_bytes c1)
    (outcome_bytes c2);
  (* The engine field itself differs by design; everything observable —
     cycle count, final registers and memories — must agree. *)
  let observable (s : Farm.summary) =
    List.map
      (fun r ->
        let o = r.Farm.outcome in
        (o.Job.o_ok, o.Job.o_cycles, o.Job.o_registers, o.Job.o_memories))
      s.Farm.results
  in
  Alcotest.(check bool)
    "engines observably agree" true
    (observable f1 = observable c1)

(* A job made without an engine is keyed under the default engine's name,
   so it shares that engine's cache slot: an entry stored by an explicit
   default-engine job serves it byte-identically. *)
let test_default_engine_key () =
  let implicit () = Job.make (Job.Fuzz { seed = 12 }) in
  let explicit () =
    Job.make ~engine:Calyx_sim.Sim.default_engine (Job.Fuzz { seed = 12 })
  in
  Alcotest.(check bool)
    "resolved to the default" true
    ((implicit ()).Job.engine = Calyx_sim.Sim.default_engine);
  Alcotest.(check string)
    "keyed under the default's name"
    (Calyx_sim.Sim.engine_name Calyx_sim.Sim.default_engine)
    (Job.engine_name (implicit ()));
  with_temp_dir "farm_default" @@ fun dir ->
  let run j = Farm.run ~jobs:1 ~cache:(Cache.open_dir dir) [ j () ] in
  let e = run explicit in
  let i = run implicit in
  Alcotest.(check int) "explicit run stored" 1 e.Farm.stores;
  Alcotest.(check int) "implicit run hits" 1 i.Farm.hits;
  Alcotest.(check (list string))
    "served outcome byte-identical" (outcome_bytes e) (outcome_bytes i)

(* Tool version is a key component: a cache written by a different
   toolchain version never serves entries to this one. *)
let test_tool_version_in_key () =
  let k1 = Cache.key ~source:"s" ~pipeline:"p" ~engine:"e" in
  Alcotest.(check bool)
    "key depends on all components" true
    (k1 <> Cache.key ~source:"s2" ~pipeline:"p" ~engine:"e"
    && k1 <> Cache.key ~source:"s" ~pipeline:"p2" ~engine:"e"
    && k1 <> Cache.key ~source:"s" ~pipeline:"p" ~engine:"e2");
  (* Length-prefixing: shifting a byte across a component boundary must
     not collide. *)
  Alcotest.(check bool)
    "component boundaries cannot collide" true
    (Cache.key ~source:"ab" ~pipeline:"c" ~engine:""
    <> Cache.key ~source:"a" ~pipeline:"bc" ~engine:"")

(* Several processes sharing one cache directory store the same key at
   once (the CI farm jobs, or two concurrent [calyx farm] runs). Each
   writer is this test binary re-executed in [cache-writer] mode: OCaml 5
   refuses [Unix.fork] once domains have been spawned, which the pool
   tests above already did. *)
let writers = 4

let stores_per_writer = 200

let cache_writer dir key payload =
  let c = Cache.open_dir dir in
  for _ = 1 to stores_per_writer do
    Cache.store c ~key payload
  done

let test_cache_process_writers () =
  with_temp_dir "farm_procs" @@ fun dir ->
  let key = Cache.key ~source:"shared" ~pipeline:"p" ~engine:"e" in
  let payload = String.concat "," (List.init 2000 string_of_int) in
  let pids =
    List.init writers (fun _ ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "cache-writer"; dir; key; payload |]
          Unix.stdin Unix.stdout Unix.stderr)
  in
  (* Reap every writer before judging any, so none outlives the
     directory. *)
  List.map (fun pid -> snd (Unix.waitpid [] pid)) pids
  |> List.iter (function
       | Unix.WEXITED 0 -> ()
       | Unix.WEXITED n -> Alcotest.failf "writer exited %d" n
       | _ -> Alcotest.fail "writer killed");
  Alcotest.(check (array string))
    "one blob, no stray temp files"
    [| key ^ ".json" |]
    (Sys.readdir dir);
  let c = Cache.open_dir dir in
  Alcotest.(check (option string))
    "verified hit" (Some payload) (Cache.find c ~key);
  Alcotest.(check int) "counted as a hit" 1 (Cache.stats c).Cache.hits

(* ------------------------------------------------------------------ *)
(* Manifest writer: atomic lines under concurrent domains              *)
(* ------------------------------------------------------------------ *)

let test_manifest_concurrent_writes () =
  let path = Filename.temp_file "farm_manifest" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = T.Manifest.open_file path in
      let domains = 4 and per_domain = 250 in
      let workers =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per_domain - 1 do
                  T.Manifest.record ~cat:"stage"
                    ~data:[ ("value", float_of_int ((d * per_domain) + i)) ]
                    w
                    (Printf.sprintf "stage-%d-%d" d i)
                done))
      in
      List.iter Domain.join workers;
      T.Manifest.close w;
      (* Every line parses and every event survived: a torn or interleaved
         line would either fail the JSON parser or drop an event. *)
      let events = T.Manifest.read_file path in
      Alcotest.(check int)
        "no interleaved or torn lines" (domains * per_domain)
        (List.length events);
      let seen = Hashtbl.create 1024 in
      List.iter (fun e -> Hashtbl.replace seen e.T.Manifest.mf_stage ()) events;
      Alcotest.(check int)
        "every event distinct" (domains * per_domain) (Hashtbl.length seen))

(* ------------------------------------------------------------------ *)

let () =
  match Sys.argv with
  | [| _; "cache-writer"; dir; key; payload |] -> cache_writer dir key payload
  | _ ->
      scrub ();
      Alcotest.run "farm"
        [
          ( "pool",
            [
              Alcotest.test_case "order preserved" `Quick test_pool_order;
              Alcotest.test_case "failure propagation" `Quick test_pool_failure;
              Alcotest.test_case "both: results in order" `Quick
                test_both_order;
              Alcotest.test_case "both: failure precedence" `Quick
                test_both_failure;
              Alcotest.test_case "both: nested call runs sequentially" `Quick
                test_both_nested;
              Alcotest.test_case "both: inside a map, no extra domain" `Quick
                test_both_in_map;
              Alcotest.test_case "both: the helper leaves when idle" `Quick
                test_both_idle;
            ] );
          ( "determinism",
            [
              Alcotest.test_case "fixpoint engine, full corpus" `Slow
                (check_determinism `Fixpoint);
              Alcotest.test_case "compiled engine, full corpus" `Slow
                (check_determinism `Compiled);
              Alcotest.test_case "telemetry neutrality" `Quick
                test_telemetry_neutral;
              Alcotest.test_case "validated outcomes cached" `Quick
                test_validate_outcomes_cached;
              Alcotest.test_case "engines jobs agree" `Quick test_engines_jobs;
              Alcotest.test_case "outcome JSON round-trip" `Quick
                test_outcome_roundtrip;
            ] );
          ( "cache",
            [
              QCheck_alcotest.to_alcotest prop_mutation_rekeys;
              QCheck_alcotest.to_alcotest prop_identical_source_hits;
              QCheck_alcotest.to_alcotest prop_corrupt_blob_rejected;
              Alcotest.test_case "schema drift evicted" `Quick
                test_schema_drift_evicted;
              Alcotest.test_case "engine key separation" `Quick
                test_engine_key_separation;
              Alcotest.test_case "default engine key" `Quick
                test_default_engine_key;
              Alcotest.test_case "key anatomy" `Quick test_tool_version_in_key;
              Alcotest.test_case "concurrent process writers" `Quick
                test_cache_process_writers;
            ] );
          ( "manifest",
            [
              Alcotest.test_case "concurrent writers, atomic lines" `Quick
                test_manifest_concurrent_writes;
            ] );
        ]
