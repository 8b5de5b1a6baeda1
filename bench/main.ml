(* The evaluation harness: regenerates every table and figure of the
   paper's Section 7 (see DESIGN.md's per-experiment index).

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- fig7a   -- one experiment
     dune exec bench/main.exe -- perf    -- Bechamel micro-benchmarks

   Every run writes BENCH_results.json; the harness only measures.
   `calyx report --baseline OLD.json BENCH_results.json` judges a run
   against a saved one.

   Absolute numbers come from this repository's simulator and area model
   (Verilator/Vivado substitutes — see DESIGN.md); the paper's claims are
   about the *relative* series, which are printed with each figure and
   recorded against the paper in EXPERIMENTS.md. *)

open Calyx
module Json = Calyx_telemetry.Json

let geomean = function
  | [] -> nan
  | l -> exp (List.fold_left (fun a x -> a +. log x) 0. l /. float_of_int (List.length l))

let header title =
  Printf.printf "\n==================== %s ====================\n" title

(* Machine-readable mirror of the printed tables: every experiment records
   its per-row series and summary statistics (geomeans etc.), written as
   BENCH_results.json at exit so CI can diff numbers across revisions. *)
module Record = struct
  let experiments : (string * string) list ref = ref []  (* reversed *)
  let rows : string list ref = ref []  (* current experiment, reversed *)
  let summaries : (string * string) list ref = ref []

  let row fields = rows := Json.obj fields :: !rows
  let summary name v = summaries := (name, Json.float v) :: !summaries

  let experiment name f =
    rows := [];
    summaries := [];
    f ();
    experiments :=
      ( name,
        Json.obj
          [
            ("rows", Json.arr (List.rev !rows));
            ("summary", Json.obj (List.rev !summaries));
          ] )
      :: !experiments

  let write path =
    let oc = open_out path in
    output_string oc (Json.obj (List.rev !experiments));
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" path
end

let sensitive_config =
  {
    Pipelines.insensitive_config with
    Pipelines.infer_latency = true;
    Pipelines.static_timing = true;
  }

(* ------------------------------------------------------------------ *)
(* Systolic arrays vs HLS (Figures 7a and 7b)                          *)
(* ------------------------------------------------------------------ *)

let systolic_sizes = [ 2; 3; 4; 5; 6; 7; 8 ]

let systolic_dims n = { Systolic.rows = n; cols = n; depth = n; width = 32 }
let systolic_name n = Printf.sprintf "systolic-%dx%d" n n

let systolic_ctx n config =
  Pipelines.compile ~config (Systolic.generate (systolic_dims n))

(* Every systolic row runs the array on the sample matrices and checks
   the product. *)
let systolic_testbench n =
  let d = systolic_dims n in
  let a, b = Systolic.sample d in
  Systolic.testbench d ~a ~b

(* A wrong answer stops the bench with the design's name and the first
   message of its test bench's check. *)
let verdict name = function
  | [] -> ()
  | msg :: _ -> failwith (Printf.sprintf "%s: %s" name msg)

(* Simulate a compiled design under its test bench and check the answer;
   returns the cycle count. *)
let checked_run name tb ctx =
  let cycles, bad = Calyx_sim.Testbench.run tb ctx in
  verdict name bad;
  cycles

let systolic_run n ctx = checked_run (systolic_name n) (systolic_testbench n) ctx
let systolic_cycles n config = systolic_run n (systolic_ctx n config)

let hls_matmul n =
  let prog = Dahlia.Parser.parse_string (Hls_model.matmul_source ~n) in
  Hls_model.run prog ~inputs:[]

let fig7a () =
  header "Figure 7a: systolic array vs HLS cycle counts (matmul NxN)";
  Printf.printf "%4s %12s %12s %10s %18s %6s\n" "N" "insensitive" "sensitive"
    "HLS" "HLS/sensitive" "check";
  let ratios =
    List.map
      (fun n ->
        (* A wrong product stops the bench, so a printed row is a
           checked one. *)
        let insens = systolic_cycles n Pipelines.insensitive_config in
        let sens = systolic_cycles n sensitive_config in
        let hls = (hls_matmul n).Hls_model.cycles in
        let ratio = float_of_int hls /. float_of_int sens in
        Printf.printf "%4d %12d %12d %10d %17.2fx %6s\n" n insens sens hls ratio
          "ok";
        Record.row
          [
            ("n", Json.int n);
            ("insensitive_cycles", Json.int insens);
            ("sensitive_cycles", Json.int sens);
            ("hls_cycles", Json.int hls);
            ("hls_over_sensitive", Json.float ratio);
            ("correct", Json.bool true);
          ];
        ratio)
      systolic_sizes
  in
  Printf.printf
    "systolic speedup over HLS: geomean %.2fx, max %.2fx  (paper: 4.6x, 10.78x)\n"
    (geomean ratios)
    (List.fold_left max 0. ratios);
  Record.summary "geomean_speedup" (geomean ratios);
  Record.summary "max_speedup" (List.fold_left max 0. ratios)

let fig7b () =
  header "Figure 7b: systolic array vs HLS LUT usage";
  Printf.printf "%4s %12s %12s %10s %16s\n" "N" "insensitive" "sensitive" "HLS"
    "sensitive/HLS";
  let ratios =
    List.map
      (fun n ->
        let luts config =
          (Calyx_synth.Area.context_usage (systolic_ctx n config)).Calyx_synth.Area.luts
        in
        let li = luts Pipelines.insensitive_config in
        let ls = luts sensitive_config in
        let lh = (hls_matmul n).Hls_model.area.Calyx_synth.Area.luts in
        let ratio = float_of_int ls /. float_of_int lh in
        Printf.printf "%4d %12d %12d %10d %15.2fx\n" n li ls lh ratio;
        Record.row
          [
            ("n", Json.int n);
            ("insensitive_luts", Json.int li);
            ("sensitive_luts", Json.int ls);
            ("hls_luts", Json.int lh);
            ("sensitive_over_hls", Json.float ratio);
          ];
        ratio)
      systolic_sizes
  in
  Printf.printf "systolic LUT increase over HLS: geomean %.2fx  (paper: 1.11x)\n"
    (geomean ratios);
  Record.summary "geomean_lut_ratio" (geomean ratios)

let fig7_sensitive_effect () =
  header "Section 7.1: effect of Sensitive on systolic arrays";
  Printf.printf "%4s %12s %12s %10s\n" "N" "insensitive" "sensitive" "speedup";
  let speedups =
    List.map
      (fun n ->
        let insens = systolic_cycles n Pipelines.insensitive_config in
        let sens = systolic_cycles n sensitive_config in
        let s = float_of_int insens /. float_of_int sens in
        Printf.printf "%4d %12d %12d %9.2fx\n" n insens sens s;
        Record.row
          [
            ("n", Json.int n);
            ("insensitive_cycles", Json.int insens);
            ("sensitive_cycles", Json.int sens);
            ("speedup", Json.float s);
          ];
        s)
      systolic_sizes
  in
  Printf.printf "geomean speedup %.2fx  (paper: 1.9x)\n" (geomean speedups);
  Record.summary "geomean_speedup" (geomean speedups)

(* ------------------------------------------------------------------ *)
(* Dahlia/PolyBench vs HLS (Figures 8a and 8b)                         *)
(* ------------------------------------------------------------------ *)

let kernel_hls k ~unrolled =
  let prog = Polybench.Harness.program k ~unrolled in
  Hls_model.run prog ~inputs:k.Polybench.Kernels.inputs

let fig8 ~cycles () =
  let what = if cycles then "cycle slowdown" else "LUT increase" in
  header
    (Printf.sprintf "Figure 8%s: Dahlia-Calyx vs HLS %s on PolyBench"
       (if cycles then "a" else "b")
       what);
  Printf.printf "%-12s %10s %10s %9s  %10s %10s %9s %6s\n" "kernel" "calyx"
    "HLS" "ratio" "calyx-u" "HLS-u" "ratio-u" "check";
  let seq_ratios = ref [] and unr_ratios = ref [] in
  List.iter
    (fun k ->
      let r = Polybench.Harness.run k ~unrolled:false in
      let h = kernel_hls k ~unrolled:false in
      let metric (a : Polybench.Harness.result) (b : Hls_model.report) =
        if cycles then (a.Polybench.Harness.cycles, b.Hls_model.cycles)
        else
          ( a.Polybench.Harness.area.Calyx_synth.Area.luts,
            b.Hls_model.area.Calyx_synth.Area.luts )
      in
      let c, hc = metric r h in
      let ratio = float_of_int c /. float_of_int hc in
      seq_ratios := ratio :: !seq_ratios;
      let unrolled_cols, ok_u, unrolled_fields =
        match k.Polybench.Kernels.unrolled with
        | None -> (Printf.sprintf "%10s %10s %9s" "-" "-" "-", true, [])
        | Some _ ->
            let ru = Polybench.Harness.run k ~unrolled:true in
            let hu = kernel_hls k ~unrolled:true in
            let cu, hcu = metric ru hu in
            let ratio_u = float_of_int cu /. float_of_int hcu in
            unr_ratios := ratio_u :: !unr_ratios;
            ( Printf.sprintf "%10d %10d %8.2fx" cu hcu ratio_u,
              ru.Polybench.Harness.correct,
              [
                ("calyx_unrolled", Json.int cu);
                ("hls_unrolled", Json.int hcu);
                ("ratio_unrolled", Json.float ratio_u);
              ] )
      in
      Printf.printf "%-12s %10d %10d %8.2fx  %s %6s\n" k.Polybench.Kernels.name
        c hc ratio unrolled_cols
        (if r.Polybench.Harness.correct && ok_u then "ok" else "FAIL");
      Record.row
        ([
           ("kernel", Json.str k.Polybench.Kernels.name);
           ("calyx", Json.int c);
           ("hls", Json.int hc);
           ("ratio", Json.float ratio);
         ]
        @ unrolled_fields
        @ [ ("correct", Json.bool (r.Polybench.Harness.correct && ok_u)) ]))
    Polybench.Kernels.all;
  if cycles then
    Printf.printf
      "geomean slowdown: sequential %.2fx (paper: 3.1x), unrolled %.2fx \
       (paper: 2.3x)\n"
      (geomean !seq_ratios) (geomean !unr_ratios)
  else
    Printf.printf
      "geomean LUT increase: sequential %.2fx (paper: 1.2x), unrolled %.2fx \
       (paper: 2.2x)\n"
      (geomean !seq_ratios) (geomean !unr_ratios);
  Record.summary "geomean_sequential" (geomean !seq_ratios);
  Record.summary "geomean_unrolled" (geomean !unr_ratios)

(* ------------------------------------------------------------------ *)
(* Optimization ablations (Figure 9)                                   *)
(* ------------------------------------------------------------------ *)

let ablation_configs =
  let base = sensitive_config in
  [
    ("none", base);
    ("resource", { base with Pipelines.resource_sharing = true });
    ("register", { base with Pipelines.register_sharing = true });
    ( "both",
      { base with
        Pipelines.resource_sharing = true;
        Pipelines.register_sharing = true } );
  ]

let kernel_area k config =
  let ctx = Polybench.Harness.build k ~unrolled:false in
  Calyx_synth.Area.context_usage (Pipelines.compile ~config ctx)

let fig9a () =
  header "Figure 9a: LUT change from resource/register sharing (vs both off)";
  Printf.printf "%-12s %8s %10s %10s %10s %10s\n" "kernel" "none" "resource"
    "register" "both" "res-heur";
  let rs = ref [] and gs = ref [] and hs = ref [] in
  List.iter
    (fun k ->
      let luts =
        List.map
          (fun (_, c) -> (kernel_area k c).Calyx_synth.Area.luts)
          ablation_configs
      in
      (* The cost-guided variant (the paper's Section 9 heuristic): run the
         heuristic pass manually in place of plain resource sharing. *)
      let heuristic =
        let ctx = Polybench.Harness.build k ~unrolled:false in
        let ctx = Pass.run Compile_invoke.pass ctx in
        let ctx = Pass.run Infer_latency.pass ctx in
        let ctx = Pass.run Resource_sharing.heuristic_pass ctx in
        let lowered =
          Pass.run_all (Pipelines.lower sensitive_config) ctx
        in
        (Calyx_synth.Area.context_usage lowered).Calyx_synth.Area.luts
      in
      match luts with
      | [ none; res; regs; both ] ->
          let pct x = 100. *. ((float_of_int x /. float_of_int none) -. 1.) in
          rs := (float_of_int res /. float_of_int none) :: !rs;
          gs := (float_of_int regs /. float_of_int none) :: !gs;
          hs := (float_of_int heuristic /. float_of_int none) :: !hs;
          Printf.printf "%-12s %8d %+9.1f%% %+9.1f%% %+9.1f%% %+9.1f%%\n"
            k.Polybench.Kernels.name none (pct res) (pct regs) (pct both)
            (pct heuristic);
          Record.row
            [
              ("kernel", Json.str k.Polybench.Kernels.name);
              ("none_luts", Json.int none);
              ("resource_pct", Json.float (pct res));
              ("register_pct", Json.float (pct regs));
              ("both_pct", Json.float (pct both));
              ("heuristic_pct", Json.float (pct heuristic));
            ]
      | _ -> assert false)
    Polybench.Kernels.all;
  Printf.printf
    "mean LUT change: resource sharing %+.1f%% (paper: +3%%), register \
     sharing %+.1f%% (paper: +11%%), cost-guided resource sharing %+.1f%% \
     (the Section 9 heuristic)\n"
    (100. *. (geomean !rs -. 1.))
    (100. *. (geomean !gs -. 1.))
    (100. *. (geomean !hs -. 1.));
  Record.summary "mean_resource_pct" (100. *. (geomean !rs -. 1.));
  Record.summary "mean_register_pct" (100. *. (geomean !gs -. 1.));
  Record.summary "mean_heuristic_pct" (100. *. (geomean !hs -. 1.))

let fig9b () =
  header "Figure 9b: register decrease from register sharing";
  Printf.printf "%-12s %10s %10s %10s\n" "kernel" "before" "after" "change";
  let ratios =
    List.map
      (fun k ->
        let before =
          (kernel_area k sensitive_config).Calyx_synth.Area.register_cells
        in
        let after =
          (kernel_area k
             { sensitive_config with Pipelines.register_sharing = true })
            .Calyx_synth.Area.register_cells
        in
        let ratio = float_of_int after /. float_of_int before in
        Printf.printf "%-12s %10d %10d %+9.1f%%\n" k.Polybench.Kernels.name
          before after
          (100. *. (ratio -. 1.));
        Record.row
          [
            ("kernel", Json.str k.Polybench.Kernels.name);
            ("registers_before", Json.int before);
            ("registers_after", Json.int after);
            ("change_pct", Json.float (100. *. (ratio -. 1.)));
          ];
        ratio)
      Polybench.Kernels.all
  in
  Printf.printf "mean register change: %+.1f%%  (paper: -12%%)\n"
    (100. *. (geomean ratios -. 1.));
  Record.summary "mean_register_change_pct" (100. *. (geomean ratios -. 1.))

let fig9c () =
  header "Figure 9c: cycle-count reduction from the Sensitive pass";
  Printf.printf "%-12s %12s %12s %10s %6s\n" "kernel" "insensitive" "sensitive"
    "speedup" "check";
  let speedups =
    List.map
      (fun k ->
        let insens =
          Polybench.Harness.run ~config:Pipelines.insensitive_config k
            ~unrolled:false
        in
        let sens =
          Polybench.Harness.run ~config:sensitive_config k ~unrolled:false
        in
        let s =
          float_of_int insens.Polybench.Harness.cycles
          /. float_of_int sens.Polybench.Harness.cycles
        in
        Printf.printf "%-12s %12d %12d %9.2fx %6s\n" k.Polybench.Kernels.name
          insens.Polybench.Harness.cycles sens.Polybench.Harness.cycles s
          (if insens.Polybench.Harness.correct && sens.Polybench.Harness.correct
           then "ok"
           else "FAIL");
        Record.row
          [
            ("kernel", Json.str k.Polybench.Kernels.name);
            ("insensitive_cycles", Json.int insens.Polybench.Harness.cycles);
            ("sensitive_cycles", Json.int sens.Polybench.Harness.cycles);
            ("speedup", Json.float s);
            ( "correct",
              Json.bool
                (insens.Polybench.Harness.correct
                && sens.Polybench.Harness.correct) );
          ];
        s)
      Polybench.Kernels.all
  in
  Printf.printf "geomean speedup %.2fx  (paper: 1.43x)\n" (geomean speedups);
  Record.summary "geomean_speedup" (geomean speedups)

(* ------------------------------------------------------------------ *)
(* Compilation statistics (Section 7.4)                                *)
(* ------------------------------------------------------------------ *)

(* All wall-clock measurement goes through the telemetry clock: one
   monotonic time source for the bench harness and the span tracer (which
   times the passes). *)
let time f = Calyx_telemetry.Clock.timed f

(* [f]'s last result and its best time over [n] runs. *)
let best_of n f =
  let b = ref infinity and res = ref None in
  for _ = 1 to n do
    let r, dt = time f in
    if dt < !b then b := dt;
    res := Some r
  done;
  (Option.get !res, !b)

let stats () =
  header "Section 7.4: compilation statistics";
  let gemver = Polybench.Kernels.find "gemver" in
  let ctx = Polybench.Harness.build gemver ~unrolled:false in
  let lowered, dt = time (fun () -> Pipelines.compile ctx) in
  let sv, dt_emit = time (fun () -> Calyx_verilog.Verilog.emit lowered) in
  Printf.printf
    "gemver: Calyx -> RTL in %.3f s (+ %.3f s emission)  (paper: 0.06 s vs \
     26.1 s for Vivado HLS)\n"
    dt dt_emit;
  Printf.printf "gemver SystemVerilog: %d LOC\n" (Calyx_verilog.Verilog.loc sv);
  let sys = Systolic.generate (systolic_dims 8) in
  let main = Ir.entry sys in
  Printf.printf
    "8x8 systolic array: %d cells, %d groups, %d control statements\n\
    \  (paper: 241 cells, 224 groups, 1744 control statements)\n"
    (List.length main.Ir.cells)
    (List.length main.Ir.groups)
    (Ir.control_size main.Ir.control);
  let lowered_sys, dt_sys = time (fun () -> Pipelines.compile sys) in
  let sv_sys, dt_sys_emit =
    time (fun () -> Calyx_verilog.Verilog.emit lowered_sys)
  in
  Printf.printf
    "8x8 systolic array: %d LOC of SystemVerilog in %.3f s compile + %.3f s \
     emit  (paper: 8906 LOC in 0.7 s)\n"
    (Calyx_verilog.Verilog.loc sv_sys)
    dt_sys dt_sys_emit;
  (* One row per design (this experiment recorded only summaries — and
     therefore an empty "rows" array — before the telemetry PR). The IR
     and LOC fields are deterministic and regression-gated; the "_s" wall
     times are excluded. *)
  Record.row
    [
      ("design", Json.str "gemver");
      ("sv_loc", Json.int (Calyx_verilog.Verilog.loc sv));
      ( "cells",
        Json.int (List.length (Ir.entry lowered).Ir.cells) );
      ("compile_s", Json.float dt);
      ("emit_s", Json.float dt_emit);
    ];
  Record.row
    [
      ("design", Json.str "systolic-8x8");
      ("cells", Json.int (List.length main.Ir.cells));
      ("groups", Json.int (List.length main.Ir.groups));
      ("control_statements", Json.int (Ir.control_size main.Ir.control));
      ("sv_loc", Json.int (Calyx_verilog.Verilog.loc sv_sys));
      ("compile_s", Json.float dt_sys);
      ("emit_s", Json.float dt_sys_emit);
    ];
  Record.summary "gemver_compile_s" dt;
  Record.summary "gemver_emit_s" dt_emit;
  Record.summary "gemver_sv_loc" (float_of_int (Calyx_verilog.Verilog.loc sv));
  Record.summary "systolic8_cells" (float_of_int (List.length main.Ir.cells));
  Record.summary "systolic8_groups" (float_of_int (List.length main.Ir.groups));
  Record.summary "systolic8_control"
    (float_of_int (Ir.control_size main.Ir.control));
  Record.summary "systolic8_sv_loc"
    (float_of_int (Calyx_verilog.Verilog.loc sv_sys));
  Record.summary "systolic8_compile_s" dt_sys;
  Record.summary "systolic8_emit_s" dt_sys_emit

(* ------------------------------------------------------------------ *)
(* Compile time per stage, from the telemetry spans                   *)
(* ------------------------------------------------------------------ *)

(* One full [Pipelines.compile] per design under the default config, its
   spans gathered by [Trace.collect]. Its stage spans give check and lint,
   its pass spans each pass (own time, as [compile --pass-stats] reports
   it), and the "revalidate" spans the well-formedness re-checks. The
   back end then runs on the lowered program under the same spans: emit,
   the simulator build inside the simulation, timing and area. The stage
   list (the "stages" count) and the cycle counts are deterministic and
   regression-gated; the "_s" times are informational. Also returned: the
   control nodes the register-sharing span counts (its output's, which
   are its input's: the pass renames registers only). *)
let stage_times ctx simulate =
  let module T = Calyx_telemetry in
  let cycles, spans =
    T.Trace.collect (fun () ->
        let lowered = Pipelines.compile ctx in
        ignore (Calyx_verilog.Verilog.emit lowered);
        let cycles = simulate lowered in
        ignore (Calyx_synth.Timing.context_timing ~paths:1 lowered);
        ignore (Calyx_synth.Area.context_usage lowered);
        cycles)
  in
  let total keep =
    List.fold_left
      (fun acc (sp : T.Trace.span) ->
        if keep sp then acc +. T.Trace.seconds sp else acc)
      0. spans
  in
  let named name (sp : T.Trace.span) = sp.sp_name = name in
  let stage name = (name, total (named name)) in
  let passes =
    List.filter
      (fun (sp : T.Trace.span) -> sp.sp_cat = "pass" && not (named "revalidate" sp))
      spans
  in
  let control =
    match
      List.find_opt (named "register-sharing") spans
      |> Fun.flip Option.bind Pass.span_counts
    with
    | Some c -> c.Pass.control_nodes
    | None -> 0
  in
  ( cycles,
    control,
    [ stage "check"; stage "lint" ]
    @ List.map
        (fun (sp : T.Trace.span) ->
          (sp.sp_name, Calyx_obs.Pass_stats.self_seconds spans sp))
        passes
    @ List.map stage [ "revalidate"; "emit"; "sim-build"; "timing"; "area" ],
    total (named "compile") )

let stages () =
  header "Compile and back-end time per stage (telemetry spans)";
  let systolic =
    List.map
      (fun n ->
        ( systolic_name n,
          Systolic.generate (systolic_dims n),
          systolic_run n ))
      [ 4; 8; 10; 16; 32 ]
  in
  (* What [calyx systolic] prints, parsed again: the already lowered input
     that farm and validate also compile and lint. *)
  let lowered =
    ( systolic_name 32 ^ "-lowered",
      Parser.parse_string
        (Printer.to_string
           (Pipelines.compile (Systolic.generate (systolic_dims 32)))),
      systolic_run 32 )
  in
  let kernels =
    List.map
      (fun (k : Polybench.Kernels.kernel) ->
        let prog = Polybench.Harness.program k ~unrolled:false in
        ( k.name,
          Dahlia.To_calyx.compile prog,
          checked_run k.name (Polybench.Harness.testbench k prog) ))
      Polybench.Kernels.all
  in
  let rows =
    List.map
      (fun (name, ctx, simulate) ->
        let cycles, control, stages, total = stage_times ctx simulate in
        (name, stages, total, cycles, control))
      (systolic @ (lowered :: kernels))
  in
  let _, first, _, _, _ = List.hd rows in
  Printf.printf "%-22s %9s %8s %s\n" "design" "compile" "cycles"
    (String.concat " " (List.map (fun (s, _) -> Printf.sprintf "%10s" s) first));
  List.iter
    (fun (name, stages, total, cycles, _) ->
      Printf.printf "%-22s %7.1fms %8d %s\n" name (total *. 1e3) cycles
        (String.concat " "
           (List.map (fun (_, t) -> Printf.sprintf "%8.1fms" (t *. 1e3)) stages));
      Record.row
        ([
           ("design", Json.str name);
           ("stages", Json.int (List.length stages));
           ("cycles", Json.int cycles);
           ("compile_s", Json.float total);
         ]
        @ List.map (fun (s, t) -> (s ^ "_s", Json.float t)) stages))
    rows;
  List.iter
    (fun (s, _) ->
      Record.summary (s ^ "_s")
        (List.fold_left
           (fun acc (_, stages, _, _, _) ->
             acc +. Option.value ~default:0. (List.assoc_opt s stages))
           0. rows))
    first;
  (* How register sharing scales with the array: its time ratio from
     16x16 to 32x32 over the ratio in control nodes (1 = linear in the
     control program). One timing per size spreads too far to compare, so
     the pass runs alone on its pipeline input, best of 5 per size.
     Wall-clock derived, so an "_x" summary. *)
  let at n =
    let name = systolic_name n in
    let _, _, _, _, control = List.find (fun (d, _, _, _, _) -> d = name) rows in
    let before =
      List.filter
        (fun (p : Pass.t) -> p.name <> Register_sharing.pass.name)
        (Pipelines.optimize Pipelines.default_config)
    in
    let input = Pass.run_all before (Systolic.generate (systolic_dims n)) in
    let _, t = best_of 5 (fun () -> Register_sharing.pass.transform input) in
    (t, float_of_int control)
  in
  let t16, c16 = at 16 and t32, c32 = at 32 in
  let growth = t32 /. t16 /. (c32 /. c16) in
  Printf.printf
    "register-sharing 16x16 -> 32x32 (best of 5): time x%.1f, control \
     nodes x%.1f, growth over control-node growth %.2f\n"
    (t32 /. t16) (c32 /. c16) growth;
  Record.summary "register_sharing_growth_x" growth

(* ------------------------------------------------------------------ *)
(* Simulator engines: fixpoint vs compiled                            *)
(* ------------------------------------------------------------------ *)

(* Wall-clock comparison of the simulator's two evaluation engines on
   identical designs. Cycle counts must match exactly (the differential
   fuzz suite proves observational equivalence in
   depth; the check here guards the benchmark itself).

   Each engine's run is phase-split the way Verilator reports are:
   instantiation ([Sim.create] — for the compiled engine this is the AOT
   specialization pass) is timed separately from simulation (stimulus
   loading + clocked execution), and the speedup column compares
   simulation time. The compile cost is paid once per design and
   amortizes over a testbench's many runs; reporting it in its own
   column keeps the comparison honest rather than hiding it. The "_s"
   and "_x" fields are wall-clock derived and excluded from regression;
   the cycle counts and the mismatch counter are deterministic and
   compared. *)
(* [f ()] must return [(result, create_seconds, simulate_seconds)]; keeps
   the best of each phase independently across the three repetitions. *)
let best_of_3_phased f =
  let bc = ref infinity and bs = ref infinity and res = ref None in
  for _ = 1 to 3 do
    let r, c, s = f () in
    if c < !bc then bc := c;
    if s < !bs then bs := s;
    res := Some r
  done;
  (Option.get !res, !bc, !bs)

let engines () =
  header "Simulator engines: fixpoint vs compiled";
  Printf.printf "%-14s %8s %8s %8s %8s %8s %7s %6s\n" "design" "fix-cyc"
    "cmp-cyc" "fix-s" "cmp-aot" "cmp-s" "cmp-x" "match";
  let speedups = ref [] and systolic8 = ref nan and mismatches = ref 0 in
  let report name (fc, fcr, ft) (cc, ccr, ct) =
    let s = ft /. ct in
    let equal = fc = cc in
    if not equal then incr mismatches;
    if name = "systolic-8x8" then systolic8 := s;
    speedups := s :: !speedups;
    Printf.printf "%-14s %8d %8d %8.4f %8.4f %8.4f %6.2fx %6s\n" name fc cc ft
      ccr ct s
      (if equal then "ok" else "FAIL");
    Record.row
      [
        ("design", Json.str name);
        ("fixpoint_cycles", Json.int fc);
        ("compiled_cycles", Json.int cc);
        ("cycles_equal", Json.bool equal);
        ("fixpoint_compile_s", Json.float fcr);
        ("compiled_compile_s", Json.float ccr);
        ("fixpoint_s", Json.float ft);
        ("compiled_s", Json.float ct);
        ("speedup_x", Json.float s);
      ]
  in
  (* Loading the inputs is timed with the run; the check is not. *)
  let row name ctx (tb : Calyx_sim.Testbench.t) =
    let run engine () =
      let sim, create_s = time (fun () -> Calyx_sim.Sim.create ~engine ctx) in
      let io = Calyx_sim.Testbench.of_sim sim in
      let cycles, sim_s =
        time (fun () ->
            tb.load io;
            Calyx_sim.Sim.run sim)
      in
      verdict name (tb.check io);
      (cycles, create_s, sim_s)
    in
    report name
      (best_of_3_phased (run `Fixpoint))
      (best_of_3_phased (run `Compiled))
  in
  List.iter
    (fun n ->
      row (systolic_name n)
        (systolic_ctx n Pipelines.insensitive_config)
        (systolic_testbench n))
    [ 4; 8 ];
  List.iter
    (fun name ->
      let k = Polybench.Kernels.find name in
      let prog = Polybench.Harness.program k ~unrolled:false in
      row name
        (Pipelines.compile (Dahlia.To_calyx.compile prog))
        (Polybench.Harness.testbench k prog))
    [ "gemm"; "gemver"; "atax" ];
  Printf.printf
    "geomean comp/fix %.2fx, systolic-8x8 %.2fx; %d cycle mismatches\n"
    (geomean !speedups) !systolic8 !mismatches;
  Record.summary "cycle_mismatches" (float_of_int !mismatches);
  Record.summary "geomean_speedup_x" (geomean !speedups);
  Record.summary "systolic8_speedup_x" !systolic8

(* ------------------------------------------------------------------ *)
(* Telemetry: the zero-cost-when-disabled claim                        *)
(* ------------------------------------------------------------------ *)

(* Two-sided proof that telemetry is free when off:

   1. Micro: the measured cost of one disabled site (a span, a span
      arg) — a single [Runtime.on] branch each.
   2. Macro: per engine row, the estimated disabled-mode overhead =
      (spans x ns-per-span + args x ns-per-arg) / disabled runtime,
      gated against the 2% budget. The spans and args are those an
      enabled run of the same design records ([Trace.collect]), so the
      estimate uses the real site count rather than a guess: neither
      engine has a telemetry site per settle or per clock edge.

   The enabled/disabled wall ratio is also recorded ("_x", excluded from
   regression — it is noise-dominated at these runtimes); the regression
   gate runs on the deterministic anchors: cycle neutrality (enabled
   telemetry may never change simulated behaviour) and over_budget = 0. *)
let telemetry_bench () =
  let module T = Calyx_telemetry in
  header "Telemetry: disabled-site cost, overhead budget, neutrality";
  assert (not (T.Runtime.on ()));
  (* Micro-costs of one disabled site. *)
  let arg_iters = 10_000_000 in
  let (), args_s =
    time (fun () ->
        for _ = 1 to arg_iters do
          T.Trace.add_metric "probe" 1.
        done)
  in
  let span_iters = 1_000_000 in
  let (), spans_s =
    time (fun () ->
        for _ = 1 to span_iters do
          T.Trace.with_span "probe" (fun () -> ())
        done)
  in
  let arg_ns = args_s *. 1e9 /. float_of_int arg_iters in
  let span_ns = spans_s *. 1e9 /. float_of_int span_iters in
  Printf.printf
    "disabled site cost: span arg %.2f ns, span %.2f ns (one branch \
     each)\n\n"
    arg_ns span_ns;
  Printf.printf "%-22s %9s %9s %10s %10s %9s %12s %6s\n" "design" "cycles"
    "sites" "off-s" "on-s" "on/off" "est-ovh" "match";
  let mismatches = ref 0 and over_budget = ref 0 and rows = ref 0 in
  let budget = 0.02 in
  let site_count run engine =
    (* The spans and span args one enabled run records: how many times
       a disabled run takes a telemetry branch. *)
    let _, spans = T.Trace.collect (run engine) in
    ( List.length spans,
      List.fold_left (fun n sp -> n + List.length (T.Trace.args sp)) 0 spans )
  in
  let report name ctx (tb : Calyx_sim.Testbench.t) =
    (* The timed run creates, loads and runs; the check comes after. *)
    let run engine () =
      let sim = Calyx_sim.Sim.create ~engine ctx in
      let io = Calyx_sim.Testbench.of_sim sim in
      tb.load io;
      (Calyx_sim.Sim.run sim, io)
    in
    let checked ((cycles, io), s) =
      verdict name (tb.check io);
      (cycles, s)
    in
    List.iter
      (fun (label, engine) ->
        incr rows;
        let spans, args = site_count run engine in
        let cycles_off, off_s = checked (best_of 3 (run engine)) in
        let cycles_on, on_s =
          checked (T.Runtime.with_enabled (fun () -> best_of 3 (run engine)))
        in
        if cycles_off <> cycles_on then incr mismatches;
        let est =
          ((float_of_int spans *. span_ns) +. (float_of_int args *. arg_ns))
          /. 1e9 /. off_s
        in
        if est > budget then incr over_budget;
        Printf.printf "%-22s %9d %9d %10.4f %10.4f %8.2fx %11.4f%% %6s\n"
          (name ^ "/" ^ label) cycles_off (spans + args) off_s on_s
          (on_s /. off_s)
          (est *. 100.)
          (if cycles_off = cycles_on then "ok" else "FAIL");
        Record.row
          [
            ("design", Json.str (name ^ "/" ^ label));
            ("cycles", Json.int cycles_off);
            ("cycles_equal", Json.bool (cycles_off = cycles_on));
            ("disabled_s", Json.float off_s);
            ("enabled_s", Json.float on_s);
            ("overhead_x", Json.float (on_s /. off_s));
            ("est_disabled_overhead_x", Json.float est);
          ])
      Calyx_sim.Sim.engines
  in
  report (systolic_name 4)
    (systolic_ctx 4 Pipelines.insensitive_config)
    (systolic_testbench 4);
  let k = Polybench.Kernels.find "gemm" in
  let prog = Polybench.Harness.program k ~unrolled:false in
  report "gemm"
    (Pipelines.compile (Dahlia.To_calyx.compile prog))
    (Polybench.Harness.testbench k prog);
  Printf.printf
    "\n%d/%d rows within the %.0f%% disabled-overhead budget; %d cycle \
     mismatch(es) between enabled and disabled runs\n"
    (!rows - !over_budget) !rows (budget *. 100.) !mismatches;
  Record.summary "arg_site_s" (arg_ns /. 1e9);
  Record.summary "span_site_s" (span_ns /. 1e9);
  Record.summary "rows" (float_of_int !rows);
  Record.summary "over_budget" (float_of_int !over_budget);
  Record.summary "cycle_mismatches" (float_of_int !mismatches)

(* ------------------------------------------------------------------ *)
(* Coverage of the generated designs (Calyx_obs.Coverage)             *)
(* ------------------------------------------------------------------ *)

(* Structured-interpretation coverage of the systolic generator's output:
   a generator bug that stops exercising a group or branch shows up here
   as a coverage drop, which the `calyx report` gate then catches. *)
let cover () =
  header "Coverage: structured interpretation of generated designs";
  Printf.printf "%-14s %8s %9s %9s %10s\n" "design" "cycles" "groups"
    "overall" "uncovered";
  let min_group = ref 100. in
  let one name ctx (tb : Calyx_sim.Testbench.t) =
    let ctx = Pass.run Compile_invoke.pass ctx in
    let sim = Calyx_sim.Sim.create ctx in
    let cov = Calyx_obs.Coverage.create ctx sim in
    let io = Calyx_sim.Testbench.of_sim sim in
    tb.load io;
    let cycles = Calyx_sim.Sim.run sim in
    verdict name (tb.check io);
    let groups = Calyx_obs.Coverage.group_pct cov in
    let overall = Calyx_obs.Coverage.overall_pct cov in
    let uncovered = List.length (Calyx_obs.Coverage.uncovered cov) in
    min_group := min !min_group groups;
    Printf.printf "%-14s %8d %8.1f%% %8.1f%% %10d\n" name cycles groups
      overall uncovered;
    Record.row
      [
        ("design", Json.str name);
        ("cycles", Json.int cycles);
        ("group_pct", Json.float groups);
        ("overall_pct", Json.float overall);
        ("uncovered", Json.int uncovered);
      ]
  in
  List.iter
    (fun n ->
      one (systolic_name n)
        (Systolic.generate (systolic_dims n))
        (systolic_testbench n))
    [ 2; 4 ];
  Record.summary "min_group_pct" !min_group

(* ------------------------------------------------------------------ *)
(* Static timing: Fmax and wall-clock per kernel and systolic size     *)
(* ------------------------------------------------------------------ *)

(* Wall-time = cycles x estimated clock period (the ROADMAP's timing-model
   item): the sensitive pass trades schedule cycles against critical-path
   depth, and this experiment records both sides. Every field is
   deterministic — delays come from the static model, not wall-clock — so
   the `calyx report` gate checks all of them. *)
let timing_bench () =
  header "Timing: Fmax and wall-clock estimates (sensitive vs insensitive)";
  Printf.printf "%-12s %9s %9s %10s %9s %9s %10s %8s\n" "kernel" "i-fmax"
    "s-fmax" "i-wall_ns" "s-wall_ns" "i-cyc" "s-cyc" "speedup";
  let wall_speedups = ref [] in
  List.iter
    (fun k ->
      let insens =
        Polybench.Harness.run ~config:Pipelines.insensitive_config k
          ~unrolled:false
      in
      let sens =
        Polybench.Harness.run ~config:sensitive_config k ~unrolled:false
      in
      verdict k.Polybench.Kernels.name insens.Polybench.Harness.mismatches;
      verdict k.Polybench.Kernels.name sens.Polybench.Harness.mismatches;
      let s = insens.Polybench.Harness.wall_ns /. sens.Polybench.Harness.wall_ns in
      wall_speedups := s :: !wall_speedups;
      Printf.printf "%-12s %9.1f %9.1f %10.1f %9.1f %9d %10d %7.2fx\n"
        k.Polybench.Kernels.name
        insens.Polybench.Harness.timing.Calyx_synth.Timing.fmax_mhz
        sens.Polybench.Harness.timing.Calyx_synth.Timing.fmax_mhz
        insens.Polybench.Harness.wall_ns sens.Polybench.Harness.wall_ns
        insens.Polybench.Harness.cycles sens.Polybench.Harness.cycles s;
      Record.row
        [
          ("kernel", Json.str k.Polybench.Kernels.name);
          ( "insensitive_delay_ps",
            Json.int insens.Polybench.Harness.timing.Calyx_synth.Timing.delay_ps
          );
          ( "sensitive_delay_ps",
            Json.int sens.Polybench.Harness.timing.Calyx_synth.Timing.delay_ps );
          ( "insensitive_fmax_mhz",
            Json.float
              insens.Polybench.Harness.timing.Calyx_synth.Timing.fmax_mhz );
          ( "sensitive_fmax_mhz",
            Json.float
              sens.Polybench.Harness.timing.Calyx_synth.Timing.fmax_mhz );
          ("insensitive_wall_ns", Json.float insens.Polybench.Harness.wall_ns);
          ("sensitive_wall_ns", Json.float sens.Polybench.Harness.wall_ns);
          ("wall_speedup", Json.float s);
        ])
    Polybench.Kernels.all;
  Printf.printf "\n%4s %9s %9s %12s %12s\n" "N" "i-fmax" "s-fmax" "i-wall_ns"
    "s-wall_ns";
  List.iter
    (fun n ->
      let measure config =
        let ctx = systolic_ctx n config in
        let cycles = systolic_run n ctx in
        let t = Calyx_synth.Timing.context_timing ~paths:1 ctx in
        (t, Calyx_synth.Timing.wall_ns t ~cycles)
      in
      let ti, wi = measure Pipelines.insensitive_config in
      let ts, ws = measure sensitive_config in
      Printf.printf "%4d %9.1f %9.1f %12.1f %12.1f\n" n
        ti.Calyx_synth.Timing.fmax_mhz ts.Calyx_synth.Timing.fmax_mhz wi ws;
      Record.row
        [
          ("n", Json.int n);
          ("insensitive_delay_ps", Json.int ti.Calyx_synth.Timing.delay_ps);
          ("sensitive_delay_ps", Json.int ts.Calyx_synth.Timing.delay_ps);
          ( "insensitive_fmax_mhz",
            Json.float ti.Calyx_synth.Timing.fmax_mhz );
          ("sensitive_fmax_mhz", Json.float ts.Calyx_synth.Timing.fmax_mhz);
          ("insensitive_wall_ns", Json.float wi);
          ("sensitive_wall_ns", Json.float ws);
        ])
    systolic_sizes;
  Printf.printf "geomean wall-clock speedup from Sensitive: %.2fx\n"
    (geomean !wall_speedups);
  Record.summary "geomean_wall_speedup" (geomean !wall_speedups)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (compiler-side work per experiment)       *)
(* ------------------------------------------------------------------ *)

let perf () =
  header "Bechamel: compiler work per experiment";
  let open Bechamel in
  let gemm_ctx =
    Polybench.Harness.build (Polybench.Kernels.find "gemm") ~unrolled:false
  in
  let gemver_ctx =
    Polybench.Harness.build (Polybench.Kernels.find "gemver") ~unrolled:false
  in
  let sys4 = Systolic.generate (systolic_dims 4) in
  let lowered = Pipelines.compile gemm_ctx in
  let tests =
    [
      Test.make ~name:"fig7: generate+compile 4x4 systolic"
        (Staged.stage (fun () ->
             ignore (Pipelines.compile (Systolic.generate (systolic_dims 4)))));
      Test.make ~name:"fig8: compile gemm to RTL"
        (Staged.stage (fun () -> ignore (Pipelines.compile gemm_ctx)));
      Test.make ~name:"fig9a: resource-sharing pass"
        (Staged.stage (fun () ->
             ignore (Pass.run Resource_sharing.pass gemver_ctx)));
      Test.make ~name:"fig9b: register-sharing pass"
        (Staged.stage (fun () ->
             ignore (Pass.run Register_sharing.pass gemver_ctx)));
      Test.make ~name:"fig9c: infer+static passes"
        (Staged.stage (fun () ->
             ignore
               (Pass.run_all
                  [ Infer_latency.pass; Go_insertion.pass; Static_timing.pass ]
                  sys4)));
      Test.make ~name:"stats: SystemVerilog emission (gemm)"
        (Staged.stage (fun () -> ignore (Calyx_verilog.Verilog.emit lowered)));
    ]
  in
  let test = Test.make_grouped ~name:"calyx" ~fmt:"%s %s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  let all_ns = ref [] in
  List.iter
    (fun (name, r) ->
      let ns =
        match Analyze.OLS.estimates r with Some (e :: _) -> e | _ -> nan
      in
      if Float.is_finite ns && ns > 0. then all_ns := ns :: !all_ns;
      Printf.printf "%-45s %14.1f ns/run (%10.3f ms)\n" name ns (ns /. 1e6);
      Record.row [ ("name", Json.str name); ("ns_per_run", Json.float ns) ])
    (List.sort (fun (a, _) (b, _) -> compare a b) rows);
  (* The one-number view of compiler speed this revision, and the series
     [calyx report --baseline] normalizes when gating compile-time
     regressions. (This experiment previously recorded no summary at
     all.) *)
  Printf.printf "geomean %14.1f ns/run over %d benchmarks\n" (geomean !all_ns)
    (List.length !all_ns);
  Record.summary "geomean_ns_per_run" (geomean !all_ns);
  Record.summary "benchmarks" (float_of_int (List.length !all_ns))

(* ------------------------------------------------------------------ *)
(* Translation validation (calyx_verilog.Vinterp vs calyx_sim)         *)
(* ------------------------------------------------------------------ *)

(* Corpus-wide RTL-vs-simulator agreement. Every row's cycle counts and
   agreement flag are deterministic, so the `calyx report` gate catches both
   a divergence (agree drops to 0) and an unexplained schedule change
   (cycles move). [rtl_evals], the RTL settle-process evaluations, is
   deterministic too: a rise flags lost activity sparsity. *)
let validate () =
  header "Translation validation: emitted RTL vs cycle-accurate simulator";
  Printf.printf "%-16s %10s %10s %7s %7s %7s\n" "design" "sim-cyc" "rtl-cyc"
    "regs" "mems" "agree";
  let disagreements = ref 0 in
  let emit name (r : Calyx_verilog.Validate.report) =
    if not r.Calyx_verilog.Validate.ok then incr disagreements;
    Printf.printf "%-16s %10d %10d %7d %7d %7s\n" name
      r.Calyx_verilog.Validate.cycles_sim r.Calyx_verilog.Validate.cycles_rtl
      r.Calyx_verilog.Validate.registers_checked
      r.Calyx_verilog.Validate.memories_checked
      (if r.Calyx_verilog.Validate.ok then "yes" else "NO");
    Record.row
      [
        ("design", Json.str name);
        ("cycles_sim", Json.int r.Calyx_verilog.Validate.cycles_sim);
        ("cycles_rtl", Json.int r.Calyx_verilog.Validate.cycles_rtl);
        ("agree", Json.int (if r.Calyx_verilog.Validate.ok then 1 else 0));
        ("rtl_nets", Json.int r.Calyx_verilog.Validate.nets);
        ("rtl_procs", Json.int r.Calyx_verilog.Validate.procs);
        ("rtl_evals", Json.int r.Calyx_verilog.Validate.evals);
      ]
  in
  (* Both the simulated and the RTL run must pass the test bench. *)
  let checked_validate name (tb : Calyx_sim.Testbench.t) ctx =
    let r = Calyx_verilog.Validate.validate ~load:tb.load ctx in
    verdict name
      (tb.check r.Calyx_verilog.Validate.sim_io
      @ tb.check r.Calyx_verilog.Validate.rtl_io);
    emit name r
  in
  List.iter
    (fun name ->
      let k = Polybench.Kernels.find name in
      let prog = Polybench.Harness.program k ~unrolled:false in
      checked_validate name
        (Polybench.Harness.testbench k prog)
        (Pipelines.compile (Dahlia.To_calyx.compile prog)))
    [ "gemm"; "atax"; "mvt"; "cholesky"; "gramschmidt"; "trisolv" ];
  List.iter
    (fun n ->
      checked_validate (systolic_name n) (systolic_testbench n)
        (systolic_ctx n Pipelines.default_config))
    [ 2; 4 ];
  (* A fixed fuzz sweep: agreement count is a deterministic metric. *)
  let fuzz_total = 100 in
  let fuzz_ok = ref 0 in
  for seed = 0 to fuzz_total - 1 do
    let lowered = Pipelines.compile (Calyx.Fuzz_gen.program_of_seed seed) in
    let r = Calyx_verilog.Validate.validate lowered in
    if r.Calyx_verilog.Validate.ok then incr fuzz_ok
    else incr disagreements
  done;
  Printf.printf "fuzz: %d/%d random programs agree\n" !fuzz_ok fuzz_total;
  Record.summary "fuzz_agree" (float_of_int !fuzz_ok);
  Record.summary "disagreements" (float_of_int !disagreements)

let farm_bench () =
  header "farm: cold sequential vs cold parallel vs warm cache";
  (* A mixed corpus, rebuilt per mode so no run reuses in-memory state.
     [jobs] is pinned (not recommended_domain_count) so the recorded rows
     are machine-independent; wall times and ratios carry the _s/_x
     suffixes that exclude them from the regression diff, while corpus
     size, hit counts, and outcome identity are deterministic anchors. *)
  let corpus () =
    List.map
      (fun k ->
        Calyx_farm.Job.make
          (Calyx_farm.Job.Polybench { kernel = k; unrolled = false }))
      [ "gemm"; "atax"; "mvt"; "bicg" ]
    @ [ Calyx_farm.Job.make (Calyx_farm.Job.Systolic { rows = 2; cols = 2; depth = 2 }) ]
    @ List.map
        (fun s -> Calyx_farm.Job.make (Calyx_farm.Job.Fuzz { seed = s }))
        [ 2026; 2027; 2028; 2029 ]
  in
  let outcomes (s : Calyx_farm.Farm.summary) =
    List.map
      (fun r -> Calyx_farm.Job.outcome_to_json r.Calyx_farm.Farm.outcome)
      s.Calyx_farm.Farm.results
  in
  let cache_dir = "_farm_bench_cache" in
  let rm_cache () =
    if Sys.file_exists cache_dir then begin
      Array.iter
        (fun f -> Sys.remove (Filename.concat cache_dir f))
        (Sys.readdir cache_dir);
      Sys.rmdir cache_dir
    end
  in
  rm_cache ();
  let jobs = 2 in
  let cold_seq = Calyx_farm.Farm.run ~jobs:1 (corpus ()) in
  let cold_par =
    Calyx_farm.Farm.run ~jobs
      ~cache:(Calyx_farm.Cache.open_dir cache_dir)
      (corpus ())
  in
  let warm =
    Calyx_farm.Farm.run ~jobs
      ~cache:(Calyx_farm.Cache.open_dir cache_dir)
      (corpus ())
  in
  rm_cache ();
  let n = List.length (corpus ()) in
  let identical =
    outcomes cold_seq = outcomes cold_par && outcomes cold_seq = outcomes warm
  in
  Printf.printf "%-10s %5s %6s %8s\n" "mode" "jobs" "hits" "wall_s";
  let mode name jobs (s : Calyx_farm.Farm.summary) =
    Printf.printf "%-10s %5d %6d %8.3f\n" name jobs s.Calyx_farm.Farm.hits
      s.Calyx_farm.Farm.wall_s;
    Record.row
      [
        ("mode", Json.str name);
        ("jobs", Json.int jobs);
        ("hits", Json.int s.Calyx_farm.Farm.hits);
        ("stores", Json.int s.Calyx_farm.Farm.stores);
        ("wall_s", Json.float s.Calyx_farm.Farm.wall_s);
      ]
  in
  mode "cold-seq" 1 cold_seq;
  mode "cold-par" jobs cold_par;
  mode "warm" jobs warm;
  Record.row
    [
      ("mode", Json.str "corpus");
      ("size", Json.int n);
      ("outcomes_identical", Json.bool identical);
    ];
  let warm_speedup = cold_seq.Calyx_farm.Farm.wall_s /. warm.Calyx_farm.Farm.wall_s in
  Printf.printf
    "corpus %d job(s); outcomes identical across modes: %s\n\
     warm over cold-seq: %.1fx; cold-par over cold-seq: %.2fx\n"
    n
    (if identical then "yes" else "NO")
    warm_speedup
    (cold_seq.Calyx_farm.Farm.wall_s /. cold_par.Calyx_farm.Farm.wall_s);
  Record.summary "warm_speedup_x" warm_speedup;
  Record.summary "parallel_speedup_x"
    (cold_seq.Calyx_farm.Farm.wall_s /. cold_par.Calyx_farm.Farm.wall_s)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig7a", fig7a);
    ("fig7b", fig7b);
    ("fig7-sensitive", fig7_sensitive_effect);
    ("fig8a", fig8 ~cycles:true);
    ("fig8b", fig8 ~cycles:false);
    ("fig9a", fig9a);
    ("fig9b", fig9b);
    ("fig9c", fig9c);
    ("stats", stats);
    ("stages", stages);
    ("engine", engines);
    ("telemetry", telemetry_bench);
    ("cover", cover);
    ("validate", validate);
    ("farm", farm_bench);
    ("timing", timing_bench);
    ("perf", perf);
  ]

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [] ->
      List.iter (fun (name, f) -> Record.experiment name f) experiments;
      print_newline ()
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Record.experiment name f
          | None ->
              Printf.eprintf "unknown experiment %s; available: %s\n" name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names);
  Record.write "BENCH_results.json"
