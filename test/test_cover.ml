(* Calyx_obs coverage collection, control-span tracing, and par
   critical-path analysis.

   The load-bearing properties:
   - the Chrome span export is byte-stable (golden) and valid JSON;
   - group/branch/while/fsm coverage matches hand-computed universes on
     the shared sample programs, and every examples/ program reaches 100%
     group coverage (histogram needs its data-dependent input);
   - par arm durations agree with the latencies Infer_latency derives, and
     slack is measured against the bottleneck arm;
   - attaching the collectors never changes what a simulation computes. *)

open Calyx
module Sim = Calyx_sim.Sim
module Coverage = Calyx_obs.Coverage
module Spans = Calyx_obs.Spans
module Crit_path = Calyx_obs.Crit_path
module Json = Calyx_telemetry.Json
module Trace = Calyx_telemetry.Trace

let example file =
  List.find Sys.file_exists
    [ "../examples/sources/" ^ file; "examples/sources/" ^ file ]

let runnable ctx = Pass.run Compile_invoke.pass ctx

(* Attach both collectors and run: the everything-in-one-pass setup the
   [calyx cover] subcommand uses for structured programs. *)
let covered ?(load = fun _ -> ()) ctx =
  let ctx = runnable ctx in
  let sim = Sim.create ctx in
  let cov = Coverage.create ctx sim in
  let sp = Spans.create ctx sim in
  load sim;
  let cycles = Sim.run sim in
  (ctx, sim, cov, sp, cycles)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

(* seq { one; two }: each write group takes 2 cycles (1 derived + 1 done
   observation), so the whole program spans cycles 0..3. The export is
   deterministic down to the byte: the cycle-domain process and thread
   metadata first, then complete events sorted by (thread, start,
   longest-first). *)
let golden_chrome =
  {|{"traceEvents":[{"ph":"M","name":"process_name","pid":2,"tid":1,"args":{"name":"simulation (1 cycle = 1 us)"}},{"ph":"M","name":"thread_name","pid":2,"tid":1,"args":{"name":"<entry>"}},{"ph":"X","name":"seq","cat":"control","pid":2,"tid":1,"ts":0,"dur":4,"args":{"path":"","node":0}},{"ph":"X","name":"enable one","cat":"control","pid":2,"tid":1,"ts":0,"dur":2,"args":{"path":"seq[0]","node":1}},{"ph":"X","name":"enable two","cat":"control","pid":2,"tid":1,"ts":2,"dur":2,"args":{"path":"seq[1]","node":2}}],"displayTimeUnit":"ms"}|}

let test_golden_chrome () =
  let _, _, _, sp, cycles = covered (Progs.two_writes_seq ()) in
  Alcotest.(check int) "cycles" 4 cycles;
  Alcotest.(check string) "golden chrome JSON" golden_chrome
    (Trace.chrome (Spans.events sp))

let test_chrome_parses () =
  let _, _, _, sp, cycles = covered (Progs.counter ~limit:5 ()) in
  let doc = Json.parse (Trace.chrome (Spans.events sp)) in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let xs, ms =
    List.partition
      (fun e ->
        match Option.bind (Json.member "ph" e) Json.to_string with
        | Some "X" -> true
        | _ -> false)
      events
  in
  Alcotest.(check bool) "has thread metadata" true (ms <> []);
  Alcotest.(check bool) "has spans" true (xs <> []);
  List.iter
    (fun e ->
      let num k =
        match Option.bind (Json.member k e) Json.to_float with
        | Some f -> int_of_float f
        | None -> Alcotest.failf "span without %s" k
      in
      let ts = num "ts" and dur = num "dur" in
      Alcotest.(check bool) "span inside the run" true
        (ts >= 0 && dur >= 1 && ts + dur <= cycles))
    xs;
  (* The root control statement spans the whole run. *)
  Alcotest.(check bool) "root span covers the run" true
    (List.exists
       (fun e ->
         Option.bind (Json.member "ts" e) Json.to_float = Some 0.
         && Option.bind (Json.member "dur" e) Json.to_float
            = Some (float_of_int cycles))
       xs)

(* ------------------------------------------------------------------ *)
(* Coverage universes on the sample programs                           *)
(* ------------------------------------------------------------------ *)

let test_counter_coverage () =
  let _, _, cov, _, cycles = covered (Progs.counter ~limit:5 ()) in
  Alcotest.(check int) "cycles observed" cycles (Coverage.cycles_observed cov);
  Alcotest.(check (float 0.001)) "group coverage" 100. (Coverage.group_pct cov);
  Alcotest.(check (float 0.001)) "overall coverage" 100.
    (Coverage.overall_pct cov);
  Alcotest.(check (list string)) "nothing uncovered" []
    (Coverage.uncovered cov);
  let active g =
    (List.find
       (fun (r : Coverage.group_row) -> r.gr_group = g)
       (Coverage.group_rows cov))
      .gr_cycles
  in
  (* Same attribution as the profiler: init 2, incr 5x2, cond 6x1. *)
  Alcotest.(check int) "init cycles" 2 (active "init");
  Alcotest.(check int) "incr cycles" 10 (active "incr");
  Alcotest.(check int) "cond cycles" 6 (active "cond");
  match Coverage.while_rows cov with
  | [ w ] ->
      Alcotest.(check int) "one activation" 1 w.wr_entered;
      Alcotest.(check (list (pair int int))) "five trips" [ (5, 1) ] w.wr_trips;
      Alcotest.(check bool) "no zero-trip" false w.wr_zero_trip
  | ws -> Alcotest.failf "expected one while row, got %d" (List.length ws)

let test_zero_trip_flagged () =
  let _, _, cov, _, _ = covered (Progs.counter ~limit:0 ()) in
  (match Coverage.while_rows cov with
  | [ w ] ->
      Alcotest.(check (list (pair int int))) "zero trips" [ (0, 1) ] w.wr_trips;
      Alcotest.(check bool) "zero-trip flagged" true w.wr_zero_trip
  | ws -> Alcotest.failf "expected one while row, got %d" (List.length ws));
  Alcotest.(check bool) "body reported uncovered" true
    (List.exists (contains ~needle:"body never executed") (Coverage.uncovered cov));
  (* incr never ran, so group coverage drops below 100%. *)
  Alcotest.(check bool) "group coverage below 100" true
    (Coverage.group_pct cov < 100.)

let test_if_branch_coverage () =
  let direction ~x ~y =
    let _, _, cov, _, _ = covered (Progs.if_program ~x ~y ()) in
    match Coverage.if_rows cov with
    | [ i ] -> (i.ir_taken, i.ir_untaken, Coverage.uncovered cov)
    | is -> Alcotest.failf "expected one if row, got %d" (List.length is)
  in
  let taken, untaken, unc = direction ~x:1 ~y:2 in
  Alcotest.(check (pair int int)) "condition true" (1, 0) (taken, untaken);
  Alcotest.(check bool) "else-branch reported" true
    (List.exists (contains ~needle:"else-branch never taken") unc);
  let taken, untaken, unc = direction ~x:5 ~y:2 in
  Alcotest.(check (pair int int)) "condition false" (0, 1) (taken, untaken);
  Alcotest.(check bool) "then-branch reported" true
    (List.exists (contains ~needle:"then-branch never taken") unc)

let test_fsm_coverage_compiled () =
  (* The compiled counter's schedule register visits every reachable
     state; the structured universes are empty for a flat program. *)
  let lowered = Pipelines.compile (Progs.counter ~limit:5 ()) in
  let sim = Sim.create lowered in
  let cov = Coverage.create lowered sim in
  ignore (Sim.run sim);
  (match Coverage.fsm_rows cov with
  | [] -> Alcotest.fail "no fsm registers found in the compiled counter"
  | rows ->
      List.iter
        (fun (r : Coverage.fsm_row) ->
          Alcotest.(check bool)
            (r.fr_cell ^ " has at least reset+2 states")
            true
            (List.length r.fr_possible >= 3);
          Alcotest.(check (list int)) (r.fr_cell ^ " visits every state") []
            r.fr_missed)
        rows);
  Alcotest.(check (list string)) "nothing uncovered" [] (Coverage.uncovered cov);
  Alcotest.(check (float 0.001)) "overall = fsm coverage" 100.
    (Coverage.overall_pct cov)

let test_json_report_parses () =
  let _, _, cov, _, _ = covered (Progs.counter ~limit:5 ()) in
  let doc = Json.parse (Coverage.to_json cov) in
  List.iter
    (fun key ->
      if Json.member key doc = None then Alcotest.failf "missing key %s" key)
    [ "cycles"; "overall_pct"; "group_pct"; "groups"; "ifs"; "whiles";
      "fsms"; "toggles"; "components"; "uncovered" ]

(* ------------------------------------------------------------------ *)
(* Par critical path vs derived latencies                              *)
(* ------------------------------------------------------------------ *)

let test_par_slack_balanced () =
  let ctx, sim, _, sp, cycles = covered (Progs.two_writes_par ()) in
  match Crit_path.analyze ctx sim sp with
  | [ pr ] ->
      Alcotest.(check int) "par spans the run" cycles pr.pr_cycles;
      Alcotest.(check int) "two arms" 2 (List.length pr.pr_arms);
      List.iter
        (fun (a : Crit_path.arm_report) ->
          Alcotest.(check int) (a.ar_path ^ " cycles") 2 a.ar_cycles;
          Alcotest.(check int) (a.ar_path ^ " slack") 0 a.ar_slack;
          Alcotest.(check (option int)) (a.ar_path ^ " expectation") (Some 2)
            a.ar_expected;
          Alcotest.(check bool) (a.ar_path ^ " agrees") false a.ar_mismatch)
        pr.pr_arms
  | prs -> Alcotest.failf "expected one par report, got %d" (List.length prs)

let test_par_slack_reduction_tree () =
  (* par { add0; add1 } runs once per while iteration: one report per
     activation, arms balanced, measured = derived everywhere. *)
  let ctx, sim, _, sp, _ = covered (Progs.reduction_tree ()) in
  let reports = Crit_path.analyze ctx sim sp in
  Alcotest.(check int) "one report per loop iteration" 4 (List.length reports);
  Alcotest.(check int) "no latency mismatches" 0
    (List.length (Crit_path.mismatches reports));
  List.iter
    (fun (pr : Crit_path.par_report) ->
      List.iter
        (fun (a : Crit_path.arm_report) ->
          Alcotest.(check int) (a.ar_path ^ " balanced") 0 a.ar_slack)
        pr.pr_arms)
    reports

let test_par_bottleneck_named () =
  (* An unbalanced par: a 2-cycle register write against a while loop that
     counts to 3. The loop arm must be the bottleneck and the write arm
     must carry all the slack. *)
  let open Calyx.Builder in
  let main =
    component "main"
    |> with_cells
         [ reg "x" 8; reg "r" 8; prim "a" "std_add" [ 8 ];
           prim "lt" "std_lt" [ 8 ] ]
    |> with_groups
         [
           Progs.write_group "fast" ~reg:"x" ~value:(lit ~width:8 1);
           group "incr"
             [
               assign (port "a" "left") (pa "r" "out");
               assign (port "a" "right") (lit ~width:8 1);
               assign (port "r" "in") (pa "a" "out");
               assign (port "r" "write_en") (bit true);
               assign (hole "incr" "done") (pa "r" "done");
             ];
           group "cond"
             [
               assign (port "lt" "left") (pa "r" "out");
               assign (port "lt" "right") (lit ~width:8 3);
               assign (hole "cond" "done") (bit true);
             ];
         ]
    |> with_control
         (par
            [
              enable "fast";
              while_ ~cond:"cond" (Cell_port ("lt", "out")) (enable "incr");
            ])
  in
  let ctx, sim, _, sp, _ = covered (context [ main ]) in
  match Crit_path.analyze ctx sim sp with
  | [ pr ] ->
      Alcotest.(check string) "bottleneck is the loop" "par[1]" pr.pr_bottleneck;
      let arm p =
        List.find (fun (a : Crit_path.arm_report) -> a.ar_path = p) pr.pr_arms
      in
      Alcotest.(check int) "loop arm has no slack" 0 (arm "par[1]").ar_slack;
      Alcotest.(check bool) "write arm has slack" true
        ((arm "par[0]").ar_slack > 0);
      Alcotest.(check bool) "write arm agrees with derivation" false
        (arm "par[0]").ar_mismatch
  | prs -> Alcotest.failf "expected one par report, got %d" (List.length prs)

(* ------------------------------------------------------------------ *)
(* Every example program reaches full group coverage                   *)
(* ------------------------------------------------------------------ *)

let parse_example file =
  let path = example file in
  if Filename.check_suffix path ".dahlia" || Filename.check_suffix path ".fuse"
  then begin
    let ic = open_in path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Dahlia.To_calyx.compile (Dahlia.Parser.parse_string src)
  end
  else Calyx.Parser.parse_file path

(* The histogram's else-branch (the clamp) only runs when some input value
   is >= 4 — the exact coverage hole `calyx cover` exists to surface, so
   the suite feeds it data that exercises both directions. *)
let example_inputs =
  [ ("histogram.dahlia", [ ("xs", [ 3; 1; 5; 0; 2; 7; 1; 3 ]) ]) ]

let test_examples_full_group_coverage () =
  List.iter
    (fun file ->
      let load sim =
        List.iter
          (fun (m, vals) -> Sim.write_memory_ints sim m ~width:32 vals)
          (Option.value ~default:[] (List.assoc_opt file example_inputs))
      in
      let _, _, cov, sp, _ = covered ~load (parse_example file) in
      Alcotest.(check (float 0.001))
        (file ^ " group coverage")
        100. (Coverage.group_pct cov);
      (* And the machine outputs stay parseable for every example. *)
      ignore (Json.parse (Coverage.to_json cov));
      ignore (Json.parse (Trace.chrome (Spans.events sp))))
    [ "counter.futil"; "dotprod.dahlia"; "histogram.dahlia"; "invoke.futil" ]

(* ------------------------------------------------------------------ *)
(* Collection is pure observation                                      *)
(* ------------------------------------------------------------------ *)

let registers ctx =
  List.filter_map
    (fun c ->
      match c.Ir.cell_proto with
      | Ir.Prim ("std_reg", _) -> Some c.Ir.cell_name
      | _ -> None)
    (Ir.entry ctx).Ir.cells

let final_state sim regs =
  List.map (fun r -> Bitvec.to_int64 (Sim.read_register sim r)) regs

let check_neutral seed =
  let ctx = runnable (Progs.Fuzz.gen_program seed) in
  let regs = registers ctx in
  let plain_sim = Sim.create ctx in
  let plain_cycles = Sim.run ~max_cycles:200_000 plain_sim in
  let sim = Sim.create ctx in
  let cov = Coverage.create ctx sim in
  let sp = Spans.create ctx sim in
  let cycles = Sim.run ~max_cycles:200_000 sim in
  ignore (Coverage.render cov);
  ignore (Trace.chrome (Spans.events sp));
  plain_cycles = cycles
  && final_state plain_sim regs = final_state sim regs
  && Coverage.cycles_observed cov = cycles
  (* ...and on the compiled form with the fsm collectors attached. *)
  &&
  let lowered = Pipelines.compile ~config:Pipelines.insensitive_config ctx in
  let fplain = Sim.create lowered in
  let fpc = Sim.run ~max_cycles:200_000 fplain in
  let fsim = Sim.create lowered in
  let fcov = Coverage.create lowered fsim in
  let fsp = Spans.create lowered fsim in
  let fc = Sim.run ~max_cycles:200_000 fsim in
  ignore (Coverage.render fcov);
  ignore (Trace.chrome (Spans.events fsp));
  fpc = fc && final_state fplain regs = final_state fsim regs

let test_neutral_fixed_seeds () =
  for seed = 0 to 30 do
    if not (check_neutral seed) then
      Alcotest.failf "seed %d diverged under coverage collection" seed
  done

let () =
  Alcotest.run "cover"
    [
      ( "spans",
        [
          Alcotest.test_case "golden chrome" `Quick test_golden_chrome;
          Alcotest.test_case "chrome structure" `Quick test_chrome_parses;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "counter" `Quick test_counter_coverage;
          Alcotest.test_case "zero-trip while" `Quick test_zero_trip_flagged;
          Alcotest.test_case "if branches" `Quick test_if_branch_coverage;
          Alcotest.test_case "fsm states (compiled)" `Quick
            test_fsm_coverage_compiled;
          Alcotest.test_case "json report" `Quick test_json_report_parses;
          Alcotest.test_case "examples at 100%" `Quick
            test_examples_full_group_coverage;
        ] );
      ( "crit-path",
        [
          Alcotest.test_case "balanced par" `Quick test_par_slack_balanced;
          Alcotest.test_case "reduction tree" `Quick
            test_par_slack_reduction_tree;
          Alcotest.test_case "bottleneck named" `Quick test_par_bottleneck_named;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "fixed seeds 0..30" `Quick test_neutral_fixed_seeds;
        ] );
    ]
