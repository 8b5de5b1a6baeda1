(* The two workloads, and the farm pass the traced polybench run adds.
   Each workload is a closed loop: one client submits the next design
   only after the previous one has finished. See README.md for why each
   was chosen, which layers it stresses, and why the farm is not a
   workload of its own. *)

module R = Record
module Job = Calyx_farm.Job
module Farm = Calyx_farm.Farm
module Cache = Calyx_farm.Cache
module Kernels = Polybench.Kernels

type instance = {
  designs : int;  (** Designs through the full path per round. *)
  round : unit -> string list;
      (** Run one round, adding its values to {!Record.values}; returns
          the failures, one message each. *)
}

type t = { name : string; setup : seed:int -> instance }

(* Directory for farm caches and the trace file; the root .gitignore keeps
   it out of the repository. *)
let out_dir = Filename.concat "perfbench" "_out"

(* Each design is bracketed by reference samples; the mean of the two is
   its [design_ref.<name>], the machine's speed while it ran. *)
let run_designs ~validate designs () =
  let before = ref (Calib.sample ()) in
  List.concat_map
    (fun (d : Design.t) ->
      let r = Design.run ~validate d in
      let after = Calib.sample () in
      R.set ("design_ref." ^ d.name) ((!before +. after) /. 2.);
      before := after;
      List.map (fun f -> d.name ^ ": " ^ f) r.failures)
    designs

(* Run the first design once, untimed, so code paths and the heap are warm
   before the first timed round. *)
let warm_up ~validate designs =
  ignore (Design.run ~validate (List.hd designs));
  Hashtbl.reset R.values

(* ------------------------------------------------------------------ *)
(* The farm pass                                                       *)
(* ------------------------------------------------------------------ *)

let fuzz_jobs = 200

(* Warm passes per round: one warm pass takes milliseconds, so several are
   timed and their median reported. *)
let warm_passes = 10

(* One core is left to the rest of the machine (the pool counts the
   calling domain as a worker). With every core busy, time the hypervisor
   steals from any one of them stalls the whole batch at the runtime's
   stop-the-world points: on a 2-core VM, cold throughput with 2 workers
   varied 290..550 designs/s between runs minutes apart. *)
let farm_jobs = max 1 (Calyx_pool.Pool.default_jobs () - 1)

let examples_dir = Filename.concat "examples" "sources"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let mkdir_p dir =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.dirname dir; dir ]

let job_key job =
  Cache.key ~source:(Job.key_source job)
    ~pipeline:(Calyx.Pipelines.id job.Job.config)
    ~engine:(Job.engine_name job)

(* CI's farm corpus run cold into a fresh cache, then warm from it. Returns
   the pass: it adds the farm, pool and cache metrics to the round and
   returns its failures. *)
let farm_pass ~seed =
  let make = Job.make ~engine:Design.engine in
  let examples =
    List.sort compare (Array.to_list (Sys.readdir examples_dir))
    |> List.map (fun f -> Job.of_file ~engine:Design.engine (Filename.concat examples_dir f))
  in
  (* Fuzz seeds from the workload seed. A seed whose spec repeats an
     earlier one is redrawn, so every job has its own cache key and the
     cold pass can be required to miss on every job. *)
  let rng = Random.State.make [| seed |] in
  let seen = Hashtbl.create 256 and duplicates = ref 0 in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let job = make (Job.Fuzz { seed = Random.State.bits rng }) in
      let key = Job.key_source job in
      if Hashtbl.mem seen key then begin
        incr duplicates;
        draw acc k
      end
      else begin
        Hashtbl.add seen key ();
        draw (job :: acc) (k - 1)
      end
  in
  let batch =
    examples
    @ List.map
        (fun (k : Kernels.kernel) ->
          make (Job.Polybench { kernel = k.name; unrolled = false }))
        Kernels.all
    @ [ make (Job.Systolic { rows = 2; cols = 2; depth = 2 }) ]
    @ draw [] fuzz_jobs
  in
  let n = List.length batch in
  let keys = List.map job_key batch in
  let jobs = farm_jobs in
  mkdir_p out_dir;
  let passes = ref 0 in
  let fresh_cache () =
    incr passes;
    let dir =
      Filename.concat out_dir
        (Printf.sprintf "cache-%d-%d" (Unix.getpid ()) !passes)
    in
    remove_tree dir;
    (dir, Cache.open_dir dir)
  in
  (* Untimed warm-up: the first kernel job, cold, in a throwaway cache. *)
  (let dir, cache = fresh_cache () in
   ignore (Farm.run ~jobs ~cache [ List.nth batch (List.length examples) ]);
   remove_tree dir);
  fun () ->
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    let dir, cache = fresh_cache () in
    let timed_run span =
      let t0 = R.now () in
      let s = R.span span (fun () -> Farm.run ~jobs ~cache batch) in
      (R.now () -. t0, s)
    in
    let busy (s : Farm.summary) =
      List.fold_left (fun acc (r : Farm.result) -> acc +. r.seconds) 0. s.results
    in
    let cold_s, cold = timed_run "farm.run" in
    if cold.hits <> 0 || cold.misses <> n || cold.stores <> n then
      fail "cold pass: %d hits, %d misses, %d stores for %d jobs" cold.hits
        cold.misses cold.stores n;
    List.iter
      (fun (r : Farm.result) ->
        if not r.outcome.o_ok then
          fail "%s: %s" r.outcome.o_label (String.concat "; " r.outcome.o_diagnostics))
      cold.results;
    let outcomes (s : Farm.summary) =
      List.map (fun (r : Farm.result) -> Job.outcome_to_json r.outcome) s.results
    in
    let cold_json = outcomes cold in
    let bytes =
      List.fold_left
        (fun acc key -> acc + (Unix.stat (Cache.path cache ~key)).st_size)
        0 keys
    in
    let warm = List.init warm_passes (fun _ -> timed_run "farm.warm") in
    List.iter
      (fun (_, (w : Farm.summary)) ->
        if w.hits <> n || w.misses <> 0 || w.stores <> 0 then
          fail "warm pass: %d hits, %d misses, %d stores for %d jobs" w.hits
            w.misses w.stores n;
        if outcomes w <> cold_json then fail "warm outcomes differ from cold")
      warm;
    remove_tree dir;
    let first_warm = snd (List.hd warm) in
    let warm_wall = R.median (List.map fst warm) in
    let warm_busy = R.median (List.map (fun (_, w) -> busy w) warm) in
    let nf = float_of_int n and jf = float_of_int jobs in
    R.set "farm.designs_per_s" (nf /. cold_s);
    R.set "warm_designs_per_s" (nf /. warm_wall);
    R.set "farm.job_busy_s" (busy cold);
    R.set "pool.efficiency" (busy cold /. (cold_s *. jf));
    R.set "farm.warm_job_s" warm_busy;
    R.set "farm.warm_hit_share" (warm_busy /. (warm_wall *. jf));
    R.set "farm.cache.hits" (float_of_int (cold.hits + first_warm.hits));
    R.set "farm.cache.misses" (float_of_int (cold.misses + first_warm.misses));
    R.set "farm.cache.stores" (float_of_int (cold.stores + first_warm.stores));
    R.set "farm.cache.evictions"
      (float_of_int (cold.evictions + first_warm.evictions));
    R.set "farm.cache.hit_ratio"
      (float_of_int first_warm.hits
      /. float_of_int (max 1 (first_warm.hits + first_warm.misses)));
    R.set "farm.cache.bytes" (float_of_int bytes);
    R.set "farm.duplicate_jobs" (float_of_int !duplicates);
    List.rev !failures

(* ------------------------------------------------------------------ *)
(* systolic-compile                                                    *)
(* ------------------------------------------------------------------ *)

(* Sizes stop at 10: the generator names PEs [pe_%d%d], so pe_1_10 and
   pe_11_0 collide above 10x10. *)
let systolic_sizes = [ 4; 6; 8; 10 ]

let systolic_compile ~seed =
  let rng = Random.State.make [| seed |] in
  let matrix n =
    Array.init n (fun _ -> Array.init n (fun _ -> Random.State.int rng 256))
  in
  let designs =
    List.map
      (fun n ->
        let a = matrix n in
        Design.systolic ~a ~b:(matrix n))
      systolic_sizes
  in
  warm_up ~validate:false designs;
  { designs = List.length designs; round = run_designs ~validate:false designs }

(* ------------------------------------------------------------------ *)
(* polybench-validate                                                  *)
(* ------------------------------------------------------------------ *)

(* Every kernel on fresh inputs from the seed, in the range of the
   kernels' own data (1..19), shared by its unrolled variant. The traced
   rounds also run the farm pass, as work the untraced rounds do not do. *)
let polybench_validate ~seed =
  let rng = Random.State.make [| seed |] in
  let designs =
    List.concat_map
      (fun (k : Kernels.kernel) ->
        let inputs =
          List.map
            (fun (name, values) ->
              (name, List.map (fun _ -> 1 + Random.State.int rng 19) values))
            k.inputs
        in
        Design.polybench k ~unrolled:false ~inputs
        ::
        (if k.unrolled = None then []
         else [ Design.polybench k ~unrolled:true ~inputs ]))
      Kernels.all
  in
  warm_up ~validate:true designs;
  let farm = farm_pass ~seed in
  let round () =
    let failures = run_designs ~validate:true designs () in
    if !R.tracing then failures @ R.span "bench.farm" farm else failures
  in
  { designs = List.length designs; round }

let all =
  [
    { name = "systolic-compile"; setup = systolic_compile };
    { name = "polybench-validate"; setup = polybench_validate };
  ]
