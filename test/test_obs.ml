(* The observability layer: VCD tracing, the runtime profiler, and
   pass-pipeline instrumentation.

   The load-bearing properties:
   - attaching a sink never changes what a simulation computes (fuzzed);
   - the profiler's cycle total equals Sim.run's return value;
   - group active cycles agree with derived latencies (and, for purely
     sequential schedules, sum to the total);
   - each pass span carries its output's IR counts and the compile span
     the input's, and Pass_stats renders one row per pass from them. *)

open Calyx
module Sim = Calyx_sim.Sim

let example file =
  List.find Sys.file_exists
    [ "../examples/sources/" ^ file; "examples/sources/" ^ file ]

(* Structured programs may contain invoke, which the interpreter refuses;
   compile it away exactly as the profile subcommand does. *)
let runnable ctx = Pass.run Compile_invoke.pass ctx

let run_profiled ctx =
  let ctx = runnable ctx in
  let sim = Sim.create ctx in
  let p = Calyx_obs.Profile.create sim in
  Sim.add_sink sim (Calyx_obs.Profile.sink p);
  let cycles = Sim.run sim in
  (ctx, sim, p, cycles)

(* ------------------------------------------------------------------ *)
(* Profiler totals                                                     *)
(* ------------------------------------------------------------------ *)

let test_total_systolic () =
  let ctx =
    Systolic.generate { Systolic.rows = 2; cols = 2; depth = 2; width = 32 }
  in
  let _, _, p, cycles = run_profiled ctx in
  Alcotest.(check bool) "ran some cycles" true (cycles > 0);
  Alcotest.(check int) "profiler total = run return" cycles
    (Calyx_obs.Profile.total_cycles p);
  Alcotest.(check bool) "observed settle work" true
    (Calyx_obs.Profile.settle_total p >= cycles);
  Alcotest.(check bool) "saw group activity" true
    (Calyx_obs.Profile.group_stats p <> [])

let test_total_dahlia () =
  let ic = open_in (example "dotprod.dahlia") in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let ctx = Dahlia.To_calyx.compile (Dahlia.Parser.parse_string src) in
  let _, _, p, cycles = run_profiled ctx in
  Alcotest.(check int) "profiler total = run return" cycles
    (Calyx_obs.Profile.total_cycles p)

(* ------------------------------------------------------------------ *)
(* Latency attribution                                                 *)
(* ------------------------------------------------------------------ *)

(* Purely sequential schedules: every observed cycle belongs to exactly
   one group, so the per-group actives partition the total. *)
let check_sequential_profile ctx =
  let ctx, _, p, cycles = run_profiled ctx in
  let stats = Calyx_obs.Profile.group_stats p in
  let sum =
    List.fold_left
      (fun acc s -> acc + s.Calyx_obs.Profile.gs_active_cycles)
      0 stats
  in
  Alcotest.(check int) "group cycles partition the run" cycles sum;
  Alcotest.(check int) "no latency mismatches" 0
    (List.length (Calyx_obs.Profile.mismatches ctx p));
  (* Every group with a derived latency carries an expectation. *)
  List.iter
    (fun (r : Calyx_obs.Profile.latency_row) ->
      match (r.lr_derived, r.lr_expected) with
      | Some _, None -> Alcotest.fail "derived latency without expectation"
      | _ -> ())
    (Calyx_obs.Profile.latency_report ctx p)

let test_latency_counter () = check_sequential_profile (Progs.counter ~limit:5 ())
let test_latency_seq () = check_sequential_profile (Progs.two_writes_seq ())

let test_latency_values () =
  (* The counter: init runs once (2 cycles: 1 derived + 1 done-observation),
     incr runs [limit] times, cond is combinational (1 cycle per check). *)
  let ctx, _, p, _ = run_profiled (Progs.counter ~limit:5 ()) in
  let find g =
    List.find
      (fun s -> s.Calyx_obs.Profile.gs_group = g)
      (Calyx_obs.Profile.group_stats p)
  in
  Alcotest.(check int) "init activations" 1 (find "init").gs_activations;
  Alcotest.(check int) "init cycles" 2 (find "init").gs_active_cycles;
  Alcotest.(check int) "incr activations" 5 (find "incr").gs_activations;
  Alcotest.(check int) "incr cycles" 10 (find "incr").gs_active_cycles;
  Alcotest.(check int) "cond cycles" 6 (find "cond").gs_active_cycles;
  ignore ctx

(* ------------------------------------------------------------------ *)
(* VCD                                                                 *)
(* ------------------------------------------------------------------ *)

let golden_vcd =
  {|$version calyx_obs $end
$timescale 1ns $end
$scope module main $end
$var wire 1 ! go $end
$var wire 1 " done $end
$scope module w $end
$var wire 1 # go $end
$var wire 1 $ done $end
$upscope $end
$scope module r $end
$var wire 1 % in $end
$var wire 1 & write_en $end
$var wire 1 ' out $end
$var wire 1 ( done $end
$upscope $end
$upscope $end
$enddefinitions $end
#0
$dumpvars
1!
0"
1#
0$
1%
1&
0'
0(
$end
#1
0#
1$
0%
0&
1'
1(
#2
|}

let tiny () =
  let open Calyx.Builder in
  let main =
    component "main"
    |> with_cells [ reg "r" 1 ]
    |> with_groups [ Progs.write_group "w" ~reg:"r" ~value:(lit ~width:1 1) ]
    |> with_control (enable "w")
  in
  context [ main ]

let test_golden_vcd () =
  let sim = Sim.create (tiny ()) in
  let buf = Buffer.create 256 in
  let vcd = Calyx_obs.Vcd.create ~out:(Buffer.add_string buf) sim in
  Sim.add_sink sim (Calyx_obs.Vcd.sink vcd);
  ignore (Sim.run sim);
  Calyx_obs.Vcd.finish vcd;
  Calyx_obs.Vcd.finish vcd (* idempotent *);
  Alcotest.(check string) "golden VCD" golden_vcd (Buffer.contents buf)

let test_vcd_wellformed_on_lowered () =
  (* The flat (compiled) simulation traces too, and the writer's invariants
     hold: unique id codes, every change references a declared id. *)
  let lowered = Pipelines.compile (Progs.counter ~limit:3 ()) in
  let sim = Sim.create lowered in
  let buf = Buffer.create 1024 in
  let vcd = Calyx_obs.Vcd.create ~out:(Buffer.add_string buf) sim in
  Sim.add_sink sim (Calyx_obs.Vcd.sink vcd);
  ignore (Sim.run sim);
  Calyx_obs.Vcd.finish vcd;
  let text = Buffer.contents buf in
  let lines = String.split_on_char '\n' text in
  let declared = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "$var"; "wire"; _w; id; _name; "$end" ] ->
          Alcotest.(check bool) ("fresh id " ^ id) false
            (Hashtbl.mem declared id);
          Hashtbl.replace declared id ()
      | _ -> ())
    lines;
  Alcotest.(check bool) "declared some vars" true (Hashtbl.length declared > 0);
  let after_defs = ref false in
  List.iter
    (fun line ->
      if line = "$enddefinitions $end" then after_defs := true
      else if
        !after_defs && line <> "" && line <> "$dumpvars" && line <> "$end"
        && line.[0] <> '#'
      then begin
        let id =
          if line.[0] = 'b' then
            match String.index_opt line ' ' with
            | Some i -> String.sub line (i + 1) (String.length line - i - 1)
            | None -> line
          else String.sub line 1 (String.length line - 1)
        in
        Alcotest.(check bool) ("known id " ^ id) true (Hashtbl.mem declared id)
      end)
    lines

(* ------------------------------------------------------------------ *)
(* Pass instrumentation                                                *)
(* ------------------------------------------------------------------ *)

module Trace = Calyx_telemetry.Trace
module Pass_stats = Calyx_obs.Pass_stats

let systolic4 () =
  Systolic.generate { Systolic.rows = 4; cols = 4; depth = 4; width = 32 }

let dotprod () =
  let ic = open_in (example "dotprod.dahlia") in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Dahlia.To_calyx.compile (Dahlia.Parser.parse_string src)

(* counter, dotprod, systolic 4x4, then 50 fuzzed programs. *)
let span_corpus () =
  let st = Random.State.make [| Fuzz_seed.derive "obs-pass-spans" |] in
  [ ("counter", Progs.counter ~limit:5 ()); ("dotprod", dotprod ());
    ("systolic-4x4", systolic4 ()) ]
  @ List.init 50 (fun _ ->
        let seed = Random.State.int st 1_000_000 in
        (Fuzz_seed.print_seed "obs-pass-spans" seed, Progs.Fuzz.gen_program seed))

(* The spans are the record: the compile span carries the input's counts
   and each pass span its own output's, which the replayed pipeline
   re-measures; the replay ends at the program the compile returned. *)
let test_pass_spans () =
  List.iter
    (fun (name, ctx) ->
      let lowered, spans = Trace.collect (fun () -> Pipelines.compile ctx) in
      let top =
        List.find (fun (sp : Trace.span) -> sp.sp_name = "compile") spans
      in
      let passes =
        List.filter
          (fun (sp : Trace.span) ->
            sp.sp_parent = top.sp_id && sp.sp_cat = "pass")
          spans
      in
      let measured =
        Pass_stats.replay Pipelines.default_config ctx Pass.measure
      in
      Alcotest.(check bool)
        (name ^ ": span counts are the measured programs'") true
        (List.map Pass.span_counts (top :: passes)
        = List.map Option.some measured);
      let printed =
        Pass_stats.replay Pipelines.default_config ctx Printer.to_string
      in
      Alcotest.(check string)
        (name ^ ": the replay ends at the compiled program")
        (Printer.to_string lowered)
        (List.nth printed (List.length printed - 1)))
    (span_corpus ())

let pass_json_keys =
  [ "name"; "description"; "seconds"; "before"; "after"; "delay_ps_before";
    "delay_ps_after"; "fmax_mhz_before"; "fmax_mhz_after" ]

let test_pass_stats () =
  let ctx = systolic4 () in
  let lowered, stats = Pass_stats.compile ctx in
  Alcotest.(check (list string)) "a row per pass"
    (List.map (fun (p : Pass.t) -> p.Pass.name)
       (Pipelines.passes Pipelines.default_config))
    (List.map (fun (r : Pass_stats.row) -> r.pass) stats);
  List.iter
    (fun (r : Pass_stats.row) ->
      Alcotest.(check bool) (r.pass ^ " time is non-negative") true
        (r.seconds >= 0.))
    stats;
  let last = List.nth stats (List.length stats - 1) in
  Alcotest.(check bool) "final counts describe the result" true
    (last.after = Pass.measure lowered);
  (* Lowering must end groupless and control-free. *)
  Alcotest.(check int) "no groups after lowering" 0 last.after.groups;
  Alcotest.(check int) "no control after lowering" 0
    last.after.control_nodes;
  let doc = Json.parse (Pass_stats.to_json stats) in
  let passes =
    Option.get (Option.bind (Json.member "passes" doc) Json.to_list)
  in
  Alcotest.(check int) "a JSON entry per pass" (List.length stats)
    (List.length passes);
  List.iter
    (fun p ->
      Alcotest.(check (list string)) "pass JSON keys" pass_json_keys
        (Json.keys p))
    passes

(* ------------------------------------------------------------------ *)
(* Tracing is pure observation                                         *)
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

let run_plain ctx =
  let sim = Sim.create ctx in
  let cycles = Sim.run ~max_cycles:200_000 sim in
  (cycles, sim)

let run_traced ctx =
  let sim = Sim.create ctx in
  let buf = Buffer.create 1024 in
  let vcd = Calyx_obs.Vcd.create ~out:(Buffer.add_string buf) sim in
  let p = Calyx_obs.Profile.create sim in
  (* Attached separately — add_sink composes them. *)
  Sim.add_sink sim (Calyx_obs.Vcd.sink vcd);
  Sim.add_sink sim (Calyx_obs.Profile.sink p);
  let cycles = Sim.run ~max_cycles:200_000 sim in
  Calyx_obs.Vcd.finish vcd;
  (cycles, sim, p)

let check_neutral seed =
  let ctx = runnable (Progs.Fuzz.gen_program seed) in
  let regs = registers ctx in
  (* Structured interpretation. *)
  let cycles, plain = run_plain ctx in
  let cycles', traced, p = run_traced ctx in
  cycles = cycles'
  && final_state plain regs = final_state traced regs
  && Calyx_obs.Profile.total_cycles p = cycles
  (* ...and the compiled (flat) simulation. Compiled without register
     sharing so the entry registers keep their names for comparison. *)
  &&
  let lowered = Pipelines.compile ~config:Pipelines.insensitive_config ctx in
  let fcycles, fplain = run_plain lowered in
  let fcycles', ftraced, _ = run_traced lowered in
  fcycles = fcycles' && final_state fplain regs = final_state ftraced regs

let prop_tracing_neutral =
  QCheck.Test.make ~name:"tracing never changes simulation results" ~count:40
    (Fuzz_seed.seed_arb "obs-tracing-neutral")
    check_neutral

let test_neutral_fixed_seeds () =
  for seed = 0 to 60 do
    if not (check_neutral seed) then
      Alcotest.failf "seed %d diverged under tracing" seed
  done

let () =
  Alcotest.run "obs"
    [
      ( "profile",
        [
          Alcotest.test_case "systolic total" `Quick test_total_systolic;
          Alcotest.test_case "dahlia total" `Quick test_total_dahlia;
          Alcotest.test_case "counter latencies" `Quick test_latency_values;
          Alcotest.test_case "counter report" `Quick test_latency_counter;
          Alcotest.test_case "seq report" `Quick test_latency_seq;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "golden" `Quick test_golden_vcd;
          Alcotest.test_case "lowered trace well-formed" `Quick
            test_vcd_wellformed_on_lowered;
        ] );
      ( "pass-stats",
        [
          Alcotest.test_case "span counts and replay" `Quick test_pass_spans;
          Alcotest.test_case "rows and JSON" `Quick test_pass_stats;
        ] );
      ( "neutrality",
        [
          Alcotest.test_case "fixed seeds 0..60" `Quick test_neutral_fixed_seeds;
          QCheck_alcotest.to_alcotest prop_tracing_neutral;
        ] );
    ]
