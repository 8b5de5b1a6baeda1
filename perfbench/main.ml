(* perfbench: the repository benchmark. Usage:

     main.exe --workload NAME --seed N --seconds S --trace 0|1
       [--commit SHA] [--source-digest HEX]

   Sets up the workload several times (the median is [setup_s]), then runs
   rounds of it for about S seconds. With --trace 0 it prints the
   end-to-end metrics; with --trace 1 each round runs once untraced and
   once traced, and it prints the per-layer metrics. The last line of
   standard output is the JSON result. *)

module R = Record
module Json = Calyx_telemetry.Json

let setup_repeats = 9
let min_rounds = 3

(* End-to-end metrics, from untraced rounds. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("norm_designs_per_s", "1/s");
    ("peak_rss_mb", "MB");
    ("sim_cycles", "cycles");
    ("luts", "LUTs");
    ("fmax_mhz", "MHz");
  ]

(* Per-layer metrics from the traced rounds, and from the untraced rounds
   of the same run the whole-path numbers that only some workloads have
   and the throughput before normalization, which follows the machine's
   drift. Layers a workload does not reach read 0. *)
let from_untraced =
  [
    ("designs_per_s", "1/s");
    ("compile_s", "s");
    ("sim_s", "s");
    ("validate_s", "s");
    ("sv_loc", "lines");
    ("failed_ratio", "fraction");
  ]

let passes =
  List.map (fun (p : Calyx.Pass.t) -> p.name)
    (Calyx.Pipelines.passes Design.config)

let from_traced =
  [
    ("calyx.parser_s", "s");
    ("calyx.parser.bytes", "bytes");
    ("calyx.well_formed_s", "s");
    ("calyx.lint_s", "s");
  ]
  @ List.map (fun p -> ("pass." ^ p ^ "_s", "s")) passes
  @ [
      ("pass.revalidate_s", "s");
      ("ir.cells_in", "count");
      ("ir.groups_in", "count");
      ("ir.assignments_in", "count");
      ("ir.control_nodes_in", "count");
      ("ir.cells_out", "count");
      ("ir.assignments_out", "count");
      ("pass.resource-sharing.cells_removed", "count");
      ("pass.register-sharing.cells_removed", "count");
      ("pass.dead-cell-removal.cells_removed", "count");
      ("dahlia.parser_s", "s");
      ("dahlia.to_calyx_s", "s");
      ("verilog.emit_s", "s");
      ("sim.create_s", "s");
      ("sim.run_s", "s");
      ("sim.cycles_per_s", "cycles/s");
      ("testbench.io_s", "s");
      ("verilog.validate_s", "s");
      ("vinterp.load_s", "s");
      ("vinterp.run_s", "s");
      ("synth.timing_s", "s");
      ("synth.area_s", "s");
      ("farm.run_s", "s");
      ("farm.designs_per_s", "1/s");
      ("warm_designs_per_s", "1/s");
      ("farm.job_busy_s", "s");
      ("pool.efficiency", "fraction");
      ("farm.cache.hits", "count");
      ("farm.cache.misses", "count");
      ("farm.cache.stores", "count");
      ("farm.cache.evictions", "count");
      ("farm.cache.hit_ratio", "fraction");
      ("farm.cache.bytes", "bytes");
      ("farm.warm_job_s", "s");
      ("farm.warm_hit_share", "fraction");
      ("farm.duplicate_jobs", "count");
      ("trace.pass_share", "fraction");
      ("trace.validate_share", "fraction");
      ("trace.overhead_s", "s");
    ]

(* Values that depend only on the inputs: they must not change between
   the rounds of one run. *)
let deterministic name =
  List.mem name [ "sim_cycles"; "luts"; "fmax_mhz"; "sv_loc"; "calyx.parser.bytes" ]
  || String.starts_with ~prefix:"ir." name
  || String.ends_with ~suffix:".cells_removed" name
  || (String.starts_with ~prefix:"farm.cache." name && name <> "farm.cache.hit_ratio")
  || name = "farm.duplicate_jobs"

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

type round = {
  values : (string, float) Hashtbl.t;
  failures : string list;
}

let get r name = Option.value ~default:0. (Hashtbl.find_opt r.values name)

let run_round ~trace (inst : Workloads.instance) =
  Hashtbl.reset R.values;
  incr R.round_no;
  R.tracing := trace;
  let t0 = R.now () in
  let failures =
    Fun.protect ~finally:(fun () -> R.tracing := false) inst.round
  in
  let host = R.now () -. t0 -. if trace then R.end_round () else 0. in
  let v = R.values in
  let get name = Option.value ~default:0. (Hashtbl.find_opt v name) in
  let designs = float_of_int inst.designs in
  R.set "host_s" host;
  Printf.eprintf "round %d%s: %.4f s\n%!" !R.round_no (if trace then " traced" else "") host;
  R.set "failed_ratio" (float_of_int (List.length failures) /. designs);
  R.set "fmax_mhz"
    (if get "fmax.designs" > 0. then exp (get "fmax.log_sum" /. get "fmax.designs")
     else 0.);
  if trace then begin
    if get "sim.run_s" > 0. then R.set "sim.cycles_per_s" (get "sim_cycles" /. get "sim.run_s");
    let pass_time =
      Hashtbl.fold
        (fun name t acc ->
          if String.starts_with ~prefix:"pass." name && String.ends_with ~suffix:"_s" name
          then acc +. t
          else acc)
        v 0.
    in
    R.set "trace.pass_share"
      ((pass_time +. get "calyx.lint_s" +. get "calyx.well_formed_s") /. get "path_s");
    R.set "trace.validate_share" (get "verilog.validate_s" /. get "path_s")
  end;
  { values = Hashtbl.copy v; failures }

let design_names rounds =
  let prefix = "design_s." in
  let n = String.length prefix in
  Hashtbl.fold
    (fun k _ acc ->
      if String.starts_with ~prefix k then String.sub k n (String.length k - n) :: acc
      else acc)
    (List.hd rounds).values []

(* Designs over the sum of each design's median time over rounds: a burst
   of machine noise during a few rounds hardly moves it. With [~norm], each
   time is first scaled by [Calib.nominal_s] over the reference samples
   around it, which takes out the drift of the machine's speed. *)
let designs_per_s ~norm rounds (inst : Workloads.instance) =
  let time r d =
    let t = get r ("design_s." ^ d) in
    if norm then t *. Calib.nominal_s /. get r ("design_ref." ^ d) else t
  in
  float_of_int inst.designs
  /. List.fold_left
       (fun acc d -> acc +. R.median (List.map (fun r -> time r d) rounds))
       0. (design_names rounds)

(* Median reference sample over the rounds: how fast the machine ran. *)
let ref_sample_s rounds =
  R.median
    (List.concat_map
       (fun r -> List.map (fun d -> get r ("design_ref." ^ d)) (design_names rounds))
       rounds)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of this process, from Linux's /proc. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        let line = input_line ic in
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else scan ()
      in
      scan ())

(* The highest percentile with at least ten samples above it, if any. *)
let well_sampled xs =
  let n = List.length xs in
  if n < 20 then None
  else Some (100 * (n - 10) / n, List.nth (List.sort compare xs) (n - 11))

let print_metric ~samples (name, unit) value =
  let tail =
    match well_sampled samples with
    | Some (p, v) -> Printf.sprintf "; p%d %.6g" p v
    | None -> ""
  in
  Printf.printf "  %-40s %14.6g %-8s (median of %d%s)\n" name value unit
    (List.length samples) tail

let context ~workload ~seed ~seconds ~trace ~jobs ~rounds ~commit ~digest ~ref_s =
  Json.obj
    [
      ("workload", Json.str workload);
      ("seed", Json.int seed);
      ("seconds", Json.float seconds);
      ("trace", Json.int trace);
      ("rounds", Json.int rounds);
      ("ref_sample_s", Json.float ref_s);
      ("ref_nominal_s", Json.float Calib.nominal_s);
      ("nproc", Json.int (Domain.recommended_domain_count ()));
      ("farm_jobs", Json.int jobs);
      ("engine", Json.str "compiled");
      ("ocaml", Json.str Sys.ocaml_version);
      ("tool_version", Json.str Calyx_farm.Cache.tool_version);
      ("commit", Json.str commit);
      ("source_digest", Json.str digest);
    ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let commit = ref "unknown" and digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--commit", Arg.Set_string commit, "SHA");
      ("--source-digest", Arg.Set_string digest, "HEX");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  let setups =
    List.init setup_repeats (fun _ ->
        let t0 = R.now () in
        let inst = w.setup ~seed:!seed in
        let dt = R.now () -. t0 in
        Printf.eprintf "setup: %.4f s\n%!" dt;
        (dt, inst))
  in
  let inst = snd (List.nth setups (setup_repeats - 1)) in
  (* Closed loop: start another round only while it is expected to end
     within the budget. *)
  let t0 = R.now () in
  let rec loop acc n =
    let r =
      if traced then begin
        (* Alternate which goes first, so order effects cancel out of
           trace.overhead_s. *)
        let first = run_round ~trace:(n mod 2 = 1) inst in
        let second = run_round ~trace:(n mod 2 = 0) inst in
        let untraced, t = if n mod 2 = 1 then (second, first) else (first, second) in
        Hashtbl.replace t.values "trace.overhead_s" (get t "host_s" -. get untraced "host_s");
        (untraced, t)
      end
      else
        let r = run_round ~trace:false inst in
        (r, r)
    in
    let acc = r :: acc and n = n + 1 in
    let elapsed = R.now () -. t0 in
    if n < min_rounds || elapsed *. float_of_int (n + 1) /. float_of_int n <= !seconds
    then loop acc n
    else List.rev acc
  in
  let rounds = loop [] 0 in
  let untraced = List.map fst rounds and traced_rounds = List.map snd rounds in
  let all = if traced then untraced @ traced_rounds else untraced in
  (* Correctness: every design checked every round, and the deterministic
     values identical across rounds. *)
  let failures = List.concat_map (fun r -> r.failures) all in
  let unsteady =
    let names =
      List.sort_uniq compare
        (List.concat_map
           (fun r -> Hashtbl.fold (fun k _ acc -> k :: acc) r.values [])
           all)
    in
    List.filter_map
      (fun name ->
        if not (deterministic name) then None
        else
          match
            List.sort_uniq compare
              (List.filter_map (fun r -> Hashtbl.find_opt r.values name) all)
          with
          | _ :: _ :: _ -> Some (name ^ " changed between rounds")
          | _ -> None)
      names
  in
  List.iter (fun f -> prerr_endline ("perfbench: FAIL " ^ f)) (failures @ unsteady);
  let measure source (name, unit) =
    let xs =
      match name with
      | "setup_s" -> List.map fst setups
      | "peak_rss_mb" -> [ peak_rss_mb () ]
      | "designs_per_s" -> [ designs_per_s ~norm:false untraced inst ]
      | "norm_designs_per_s" -> [ designs_per_s ~norm:true untraced inst ]
      | _ -> List.map (fun r -> get r name) source
    in
    (name, unit, xs)
  in
  let metrics =
    if traced then
      List.map (measure untraced) from_untraced @ List.map (measure traced_rounds) from_traced
    else List.map (measure untraced) end_to_end
  in
  let ctx =
    context ~workload:w.name ~seed:!seed ~seconds:!seconds ~trace:!trace
      ~jobs:Workloads.farm_jobs ~rounds:(List.length rounds) ~commit:!commit ~digest:!digest
      ~ref_s:(ref_sample_s untraced)
  in
  if traced then begin
    Workloads.mkdir_p Workloads.out_dir;
    R.write_trace
      (Filename.concat Workloads.out_dir ("trace-" ^ w.name ^ ".jsonl"))
      ~context:ctx
  end;
  Printf.printf "perfbench %s, %d round(s)%s\n" w.name (List.length rounds)
    (if traced then " (each untraced + traced)" else "");
  List.iter
    (fun (name, unit, xs) -> print_metric ~samples:xs (name, unit) (R.median xs))
    metrics;
  print_endline ("context " ^ ctx);
  let attempted = inst.designs * List.length all in
  print_endline
    (Json.obj
       [
         ("correct", Json.bool (failures = [] && unsteady = []));
         ("attempted", Json.int attempted);
         ("failed", Json.int (min attempted (List.length failures)));
         ( "metrics",
           Json.obj
             (List.map
                (fun (name, unit, xs) ->
                  (name, Json.obj [ ("value", Json.float (R.median xs)); ("unit", Json.str unit) ]))
                metrics) );
       ])
