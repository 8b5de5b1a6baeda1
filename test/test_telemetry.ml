(* The telemetry layer: clock monotonicity, span nesting and the Chrome
   export, manifest JSONL round-trips through the shared Json parser,
   report aggregation and the machine-factor perf comparison — plus the
   neutrality fuzz property: enabling telemetry must never change
   observable toolchain behaviour (cycle counts, register values,
   diagnostics). *)

open Calyx
module T = Calyx_telemetry

(* Every test leaves the process the way it found it: telemetry off,
   spans dropped. *)
let scrub () =
  T.Runtime.disable ();
  T.Trace.set_keep false;
  T.Trace.reset ();
  T.Trace.clear_on_close ()

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock () =
  let a = T.Clock.now_ns () in
  let b = T.Clock.now_ns () in
  Alcotest.(check bool) "monotonic" true (b >= a);
  let (), dt = T.Clock.timed (fun () -> Sys.opaque_identity (ignore [ 1 ])) in
  Alcotest.(check bool) "timed non-negative" true (dt >= 0.);
  let x, _ = T.Clock.timed (fun () -> 42) in
  Alcotest.(check int) "timed returns the result" 42 x

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  T.Trace.reset ();
  T.Trace.set_keep true;
  T.Runtime.with_enabled (fun () ->
      T.Trace.with_span ~cat:"stage" "outer" (fun () ->
          T.Trace.add_tag "engine" "fixpoint";
          T.Trace.with_span ~cat:"pass" "inner" (fun () ->
              T.Trace.add_metric "cycles" 42.)));
  (match T.Trace.spans () with
  | [ outer; inner ] ->
      Alcotest.(check string) "outer name" "outer" outer.T.Trace.sp_name;
      Alcotest.(check int) "outer is a root" (-1) outer.T.Trace.sp_parent;
      Alcotest.(check int) "inner nests under outer" outer.T.Trace.sp_id
        inner.T.Trace.sp_parent;
      Alcotest.(check int) "inner depth" 1 inner.T.Trace.sp_depth;
      Alcotest.(check bool) "outer encloses inner" true
        (T.Trace.seconds outer >= T.Trace.seconds inner);
      Alcotest.(check (list (pair string (float 0.))))
        "metric attached to the innermost span"
        [ ("cycles", 42.) ]
        (T.Trace.metrics inner);
      (match T.Trace.find_arg outer "engine" with
      | Some (T.Trace.S "fixpoint") -> ()
      | _ -> Alcotest.fail "tag missing from outer span")
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans));
  scrub ()

let test_span_exception () =
  T.Trace.reset ();
  T.Trace.set_keep true;
  (try
     T.Runtime.with_enabled (fun () ->
         T.Trace.with_span "boom" (fun () -> failwith "expected"))
   with Failure _ -> ());
  (match T.Trace.spans () with
  | [ sp ] -> (
      match T.Trace.find_arg sp "error" with
      | Some (T.Trace.S _) -> ()
      | _ -> Alcotest.fail "raising span should record an error arg")
  | _ -> Alcotest.fail "raising span should still close");
  scrub ()

let test_chrome_export () =
  T.Trace.reset ();
  T.Trace.set_keep true;
  T.Runtime.with_enabled (fun () ->
      T.Trace.with_span ~cat:"stage" "a" (fun () ->
          T.Trace.with_span ~cat:"pass" "b" ignore));
  let doc = T.Json.parse (T.Trace.to_chrome ()) in
  let events =
    match T.Json.member "traceEvents" doc with
    | Some v -> Option.get (T.Json.to_list v)
    | None -> Alcotest.fail "no traceEvents"
  in
  (* One metadata record plus one X event per span. *)
  Alcotest.(check int) "event count" 3 (List.length events);
  let phases =
    List.filter_map
      (fun e -> Option.bind (T.Json.member "ph" e) T.Json.to_string)
      events
  in
  Alcotest.(check (list string)) "phases" [ "M"; "X"; "X" ] phases;
  (* Scrubbed export is deterministic: sequence-number timestamps. *)
  let scrubbed = T.Trace.to_chrome ~scrub:true () in
  Alcotest.(check string) "scrub is stable" scrubbed
    (T.Trace.to_chrome ~scrub:true ());
  scrub ()

let names spans = List.map (fun (sp : T.Trace.span) -> sp.T.Trace.sp_name) spans

(* Whether span buffering is on, seen from outside: does a span opened
   under enabled telemetry land in the buffer? The probe is dropped. *)
let keeping () =
  let before = T.Trace.spans () in
  T.Runtime.with_enabled (fun () -> T.Trace.with_span "probe" ignore);
  List.length (T.Trace.spans ()) > List.length before

(* Telemetry off, a span and its args cost one branch and record nothing,
   even while buffering; an arg outside any span is dropped. *)
let test_disabled_sites () =
  T.Trace.reset ();
  T.Trace.set_keep true;
  T.Trace.with_span "off" (fun () -> T.Trace.add_metric "cycles" 1.);
  T.Runtime.with_enabled (fun () ->
      T.Trace.add_metric "orphan" 1.;
      T.Trace.with_span "on" ignore);
  (match T.Trace.spans () with
  | [ sp ] ->
      Alcotest.(check string) "only the enabled span" "on" sp.T.Trace.sp_name;
      Alcotest.(check int) "no args" 0 (List.length (T.Trace.args sp))
  | sps -> Alcotest.failf "%d spans buffered" (List.length sps));
  scrub ()

let test_collect () =
  T.Trace.reset ();
  (* Telemetry off, nothing buffered: the call sees its spans, the
     process afterwards sees nothing. *)
  let v, spans =
    T.Trace.collect (fun () ->
        T.Trace.with_span "a" (fun () -> T.Trace.with_span "b" (fun () -> 7)))
  in
  Alcotest.(check int) "result" 7 v;
  Alcotest.(check (list string)) "spans in open order" [ "a"; "b" ]
    (names spans);
  Alcotest.(check bool) "telemetry off again" false (T.Runtime.on ());
  Alcotest.(check (list string)) "buffer untouched" [] (names (T.Trace.spans ()));
  Alcotest.(check bool) "buffering off again" false (keeping ());
  (* Buffering on, telemetry off: earlier spans stay, the call's go. *)
  T.Trace.set_keep true;
  T.Runtime.with_enabled (fun () -> T.Trace.with_span "kept" ignore);
  let _, spans = T.Trace.collect (fun () -> T.Trace.with_span "c" ignore) in
  Alcotest.(check (list string)) "collected" [ "c" ] (names spans);
  Alcotest.(check (list string)) "keep buffer untouched" [ "kept" ]
    (names (T.Trace.spans ()));
  (* A --trace-pipeline run (on and buffering) keeps the call's spans, as
     it would have without the call. *)
  T.Runtime.with_enabled (fun () ->
      ignore (T.Trace.collect (fun () -> T.Trace.with_span "d" ignore)));
  Alcotest.(check (list string)) "traced run keeps them" [ "kept"; "d" ]
    (names (T.Trace.spans ()));
  T.Trace.set_keep false;
  T.Trace.reset ();
  (* A raising thunk: the exception comes through, the state is restored. *)
  (match
     T.Trace.collect (fun () ->
         T.Trace.with_span "boom" (fun () -> failwith "expected"))
   with
  | _ -> Alcotest.fail "collect swallowed the exception"
  | exception Failure msg -> Alcotest.(check string) "re-raised" "expected" msg);
  Alcotest.(check bool) "off after a raise" false (T.Runtime.on ());
  Alcotest.(check (list string)) "buffer untouched after a raise" []
    (names (T.Trace.spans ()));
  Alcotest.(check bool) "buffering off after a raise" false (keeping ());
  scrub ()

(* ------------------------------------------------------------------ *)
(* Manifests                                                           *)
(* ------------------------------------------------------------------ *)

let test_hash () =
  Alcotest.(check string) "FNV-1a 64 of empty" "cbf29ce484222325"
    (T.Manifest.hash "");
  (* Known vector: fnv1a64("a") *)
  Alcotest.(check string) "FNV-1a 64 of 'a'" "af63dc4c8601ec8c"
    (T.Manifest.hash "a");
  Alcotest.(check bool) "distinct inputs, distinct hashes" true
    (T.Manifest.hash "compile-invoke|go-insertion"
    <> T.Manifest.hash "go-insertion|compile-invoke")

let test_manifest_roundtrip () =
  let file = Filename.temp_file "calyx_manifest" ".jsonl" in
  T.Runtime.with_enabled (fun () ->
      let w = T.Manifest.open_file file in
      T.Manifest.set_run ~source:"roundtrip.futil" ~source_hash:"deadbeef"
        ~pipeline:"cafe" ~engine:"compiled" ();
      T.Manifest.record ~cat:"stage" ~seconds:0.25
        ~data:[ ("cycles", 99.); ("luts", 12.) ]
        w "sim";
      T.Manifest.record w "emit";
      Alcotest.(check int) "events written" 2 (T.Manifest.events_written w);
      T.Manifest.close w);
  (match T.Manifest.read_file file with
  | [ sim; emit ] ->
      Alcotest.(check string) "stage" "sim" sim.T.Manifest.mf_stage;
      Alcotest.(check string) "source" "roundtrip.futil" sim.T.Manifest.mf_source;
      Alcotest.(check string) "source hash" "deadbeef" sim.T.Manifest.mf_source_hash;
      Alcotest.(check string) "pipeline" "cafe" sim.T.Manifest.mf_pipeline;
      Alcotest.(check string) "engine" "compiled" sim.T.Manifest.mf_engine;
      Alcotest.(check (float 1e-9)) "seconds" 0.25 sim.T.Manifest.mf_seconds;
      Alcotest.(check (list (pair string (float 0.))))
        "data" [ ("cycles", 99.); ("luts", 12.) ] sim.T.Manifest.mf_data;
      Alcotest.(check string) "second event" "emit" emit.T.Manifest.mf_stage
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  Sys.remove file;
  T.Manifest.set_run ~source:"" ~source_hash:"" ~pipeline:"" ~engine:"" ();
  scrub ()

let test_manifest_install () =
  let file = Filename.temp_file "calyx_manifest" ".jsonl" in
  T.Runtime.with_enabled (fun () ->
      let w = T.Manifest.open_file file in
      T.Manifest.install w;
      T.Trace.with_span ~cat:"stage" "compile" (fun () ->
          (* Only stage/pass spans become manifest events. *)
          T.Trace.with_span ~cat:"detail" "scratch" ignore);
      T.Manifest.uninstall ();
      T.Manifest.close w);
  let stages =
    List.map (fun e -> e.T.Manifest.mf_stage) (T.Manifest.read_file file)
  in
  Alcotest.(check (list string)) "spans streamed as events" [ "compile" ] stages;
  Sys.remove file;
  scrub ()

(* Validation simulates on Pool.both's helper domain (when there is a core
   to spare). The helper's spans are still descendants of the caller's
   validate span, and their manifest events carry the caller's run
   context. *)
let test_validate_across_domains () =
  let path =
    List.find Sys.file_exists
      [ "../examples/sources/counter.futil"; "examples/sources/counter.futil" ]
  in
  let lowered = Pipelines.compile (Parser.parse_file path) in
  let file = Filename.temp_file "calyx_manifest" ".jsonl" in
  let w = T.Manifest.open_file file in
  T.Manifest.install w;
  T.Manifest.set_run ~source:"across" ();
  let _, spans =
    T.Trace.collect (fun () -> Calyx_verilog.Validate.validate lowered)
  in
  T.Manifest.uninstall ();
  T.Manifest.close w;
  let find name =
    match List.find_opt (fun sp -> sp.T.Trace.sp_name = name) spans with
    | Some sp -> sp
    | None -> Alcotest.failf "no %s span" name
  in
  let validate = find "validate" in
  let rec descends sp =
    sp.T.Trace.sp_parent = validate.T.Trace.sp_id
    || List.exists
         (fun p -> p.T.Trace.sp_id = sp.T.Trace.sp_parent && descends p)
         spans
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " inside validate") true
        (descends (find name)))
    [ "sim-build"; "sim"; "emit"; "rtl-load"; "rtl-sim" ];
  (* The RTL load's phases are its children, and it carries the size of
     what it loaded. *)
  let load = find "rtl-load" in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " is a child of rtl-load") load.T.Trace.sp_id
        (find name).T.Trace.sp_parent)
    [ "rtl-parse"; "rtl-elaborate"; "rtl-schedule" ];
  Alcotest.(check (list string)) "rtl-load metrics" [ "bytes"; "nets"; "procs" ]
    (List.filter
       (fun m -> List.mem m [ "bytes"; "nets"; "procs" ])
       (List.map fst (T.Trace.metrics load)));
  Alcotest.(check int) "sim is a child of validate"
    (validate.T.Trace.sp_depth + 1) (find "sim").T.Trace.sp_depth;
  Alcotest.(check bool) "sim ran on the helper when a core was spare"
    (Domain.recommended_domain_count () > 1)
    ((find "sim").T.Trace.sp_domain_id <> validate.T.Trace.sp_domain_id);
  let events = T.Manifest.read_file file in
  List.iter
    (fun name ->
      match
        List.find_opt (fun e -> String.equal e.T.Manifest.mf_stage name) events
      with
      | Some e ->
          Alcotest.(check string) (name ^ " event source") "across"
            e.T.Manifest.mf_source
      | None -> Alcotest.failf "no %s event" name)
    [ "sim-build"; "sim"; "rtl-sim"; "validate" ];
  Sys.remove file;
  T.Manifest.set_run ~source:"" ();
  scrub ()

(* ------------------------------------------------------------------ *)
(* Report: aggregation and the perf comparison                         *)
(* ------------------------------------------------------------------ *)

let ev ?(cat = "stage") ?(seconds = 1.) ?(data = []) source stage =
  {
    T.Manifest.mf_stage = stage;
    mf_cat = cat;
    mf_source = source;
    mf_source_hash = "";
    mf_pipeline = "";
    mf_engine = "";
    mf_seconds = seconds;
    mf_minor_words = 10.;
    mf_major_words = 1.;
    mf_heap_delta_words = 0;
    mf_data = data;
  }

let test_aggregate () =
  let rollups =
    T.Report.aggregate
      [
        ev "a" "compile" ~seconds:1.;
        ev "a" "sim" ~seconds:2. ~data:[ ("cycles", 10.) ];
        ev "a" "sim" ~seconds:3. ~data:[ ("cycles", 20.) ];
        ev "b" "compile" ~seconds:5.;
      ]
  in
  Alcotest.(check int) "grouped by (source, stage)" 3 (List.length rollups);
  let sim =
    List.find (fun r -> r.T.Report.r_source = "a" && r.T.Report.r_stage = "sim")
      rollups
  in
  Alcotest.(check int) "invocations summed" 2 sim.T.Report.r_count;
  Alcotest.(check (float 1e-9)) "seconds summed" 5. sim.T.Report.r_seconds;
  Alcotest.(check (list (pair string (float 0.))))
    "data summed" [ ("cycles", 30.) ] sim.T.Report.r_data;
  let totals = T.Report.totals_by_source rollups in
  Alcotest.(check (option (pair (float 1e-9) (float 0.))))
    "per-source totals" (Some (6., 30.)) (List.assoc_opt "a" totals)

let bench_json rows =
  T.Json.parse
    (Printf.sprintf
       {|{"perf":{"rows":[%s],"summary":{}}}|}
       (String.concat ","
          (List.map
             (fun (n, ns) ->
               Printf.sprintf {|{"name":"%s","ns_per_run":%f}|} n ns)
             rows)))

let regressions = List.filter (fun d -> d.T.Report.p_regressed)

let test_compare_perf () =
  (* A uniform 2x slowdown is a machine difference, not a regression. *)
  let baseline = bench_json [ ("a", 100.); ("b", 200.); ("c", 300.) ] in
  let uniform = bench_json [ ("a", 200.); ("b", 400.); ("c", 600.) ] in
  let deltas, factor =
    T.Report.compare_perf ~baseline ~current:uniform
  in
  Alcotest.(check (float 1e-9)) "machine factor" 2. factor;
  Alcotest.(check int) "no regressions" 0
    (List.length (regressions deltas));
  (* One row 4x while the rest hold: that row regressed. *)
  let skewed = bench_json [ ("a", 400.); ("b", 200.); ("c", 300.) ] in
  let deltas, _ =
    T.Report.compare_perf ~baseline ~current:skewed
  in
  (match regressions deltas with
  | [ d ] -> Alcotest.(check string) "the skewed row" "a" d.T.Report.p_name
  | ds -> Alcotest.failf "expected 1 regression, got %d" (List.length ds));
  (* Rows missing from either side are skipped, not compared. *)
  let partial = bench_json [ ("a", 100.); ("d", 50.) ] in
  let deltas, _ =
    T.Report.compare_perf ~baseline ~current:partial
  in
  Alcotest.(check int) "only shared rows" 1 (List.length deltas)

(* The deterministic-leaf rule: two bench results files that differ in
   one experiment's fields. *)
let bench_exp ?(name = "fig") fields =
  T.Json.parse
    (Printf.sprintf {|{"%s":{"rows":[{"kernel":"gemm",%s}],"summary":{}}}|}
       name
       (String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf {|"%s":%s|} k v) fields)))

let test_gate_leaves () =
  let gate base cur =
    T.Report.gate ~baseline:(bench_exp base) ~current:(bench_exp cur)
  in
  let mentions g s =
    let text = T.Report.render_gate g in
    let n = String.length s in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = s || go (i + 1))
    in
    go 0
  in
  let cycles = "rows[gemm].cycles" in
  let g = gate [ ("cycles", "100") ] [ ("cycles", "106") ] in
  Alcotest.(check bool) "+6% cycles fails" true (T.Report.failed g);
  Alcotest.(check bool) "the failing leaf is named" true (mentions g cycles);
  let g = gate [ ("cycles", "100") ] [ ("cycles", "104") ] in
  Alcotest.(check bool) "+4% cycles passes" false (T.Report.failed g);
  Alcotest.(check bool) "but is listed as changed" true (mentions g cycles);
  Alcotest.(check bool) "a flipped correct flag fails" true
    (T.Report.failed (gate [ ("correct", "true") ] [ ("correct", "false") ]));
  let timed = [ "compile_s"; "speedup_x"; "ns_per_run" ] in
  let g =
    gate
      (List.map (fun k -> (k, "1")) timed)
      (List.map (fun k -> (k, "1000")) timed)
  in
  Alcotest.(check bool) "wall-clock leaves never fail" false (T.Report.failed g);
  Alcotest.(check int) "nor are compared" 0 (List.length g.T.Report.g_leaves);
  let g = gate [ ("cycles", "100") ] [ ("cycles", "100"); ("luts", "7") ] in
  Alcotest.(check bool) "a new leaf passes" false (T.Report.failed g);
  Alcotest.(check bool) "and is reported" true (mentions g "new metric");
  let g =
    T.Report.gate
      ~baseline:(bench_exp [ ("cycles", "100") ])
      ~current:(bench_exp ~name:"other" [ ("cycles", "1") ])
  in
  Alcotest.(check bool) "a new experiment passes" false (T.Report.failed g);
  Alcotest.(check (list string)) "and is skipped" [ "other" ]
    g.T.Report.g_skipped

(* ------------------------------------------------------------------ *)
(* Log levels                                                          *)
(* ------------------------------------------------------------------ *)

let test_log_levels () =
  let saved = T.Log.current () in
  Alcotest.(check bool) "of_string aliases" true
    (T.Log.of_string "q" = Some T.Log.Quiet
    && T.Log.of_string "info" = Some T.Log.Info
    && T.Log.of_string "2" = Some T.Log.Debug
    && T.Log.of_string "bogus" = None);
  T.Log.set_level T.Log.Quiet;
  Alcotest.(check bool) "quiet disables info" false (T.Log.enabled T.Log.Info);
  T.Log.set_level T.Log.Debug;
  Alcotest.(check bool) "debug enables info" true (T.Log.enabled T.Log.Info);
  T.Log.set_level saved

(* ------------------------------------------------------------------ *)
(* Neutrality: telemetry must never change observable behaviour        *)
(* ------------------------------------------------------------------ *)

let observe_run spec =
  let ctx = Fuzz_gen.build spec in
  let diags = List.map Diagnostics.render (Lint.diagnostics ctx) in
  let lowered = Pipelines.compile ~config:Pipelines.insensitive_config ctx in
  let sim = Calyx_sim.Sim.create lowered in
  let cycles = Calyx_sim.Sim.run ~max_cycles:400_000 sim in
  let regs =
    List.filter_map
      (fun (c : Ir.cell) ->
        match c.Ir.cell_proto with
        | Ir.Prim ("std_reg", _) ->
            Some
              (c.Ir.cell_name,
               Bitvec.to_string (Calyx_sim.Sim.read_register sim c.Ir.cell_name))
        | _ -> None)
      (Ir.entry lowered).Ir.cells
  in
  (cycles, regs, diags)

let prop_neutrality =
  QCheck.Test.make ~name:"telemetry never changes toolchain behaviour"
    ~count:25 (Fuzz_seed.spec_arb "telemetry-neutrality") (fun spec ->
      let off = observe_run spec in
      let on =
        T.Runtime.with_enabled (fun () ->
            T.Trace.set_keep true;
            Fun.protect
              ~finally:(fun () ->
                T.Trace.set_keep false;
                T.Trace.reset ())
              (fun () -> observe_run spec))
      in
      off = on)

let () =
  Alcotest.run "telemetry"
    [
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock ]);
      ( "trace",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_exception;
          Alcotest.test_case "chrome export" `Quick test_chrome_export;
          Alcotest.test_case "collect" `Quick test_collect;
          Alcotest.test_case "disabled sites" `Quick test_disabled_sites;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "fnv-1a hash" `Quick test_hash;
          Alcotest.test_case "jsonl round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "span bridge" `Quick test_manifest_install;
          Alcotest.test_case "validate across domains" `Quick
            test_validate_across_domains;
        ] );
      ( "report",
        [
          Alcotest.test_case "aggregation" `Quick test_aggregate;
          Alcotest.test_case "perf comparison" `Quick test_compare_perf;
          Alcotest.test_case "deterministic leaf gate" `Quick test_gate_leaves;
        ] );
      ("log", [ Alcotest.test_case "levels" `Quick test_log_levels ]);
      ("neutrality", [ QCheck_alcotest.to_alcotest prop_neutrality ]);
    ]
