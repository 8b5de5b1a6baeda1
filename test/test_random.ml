(* Differential fuzzing: randomly generated Calyx programs executed by the
   reference interpreter (the oracle) must compute identical register state
   when compiled by the full pipeline — across pass configurations. Every
   program (source and lowered alike) additionally runs through the
   engine differential (Sim.disagreement): both evaluation engines must
   agree on cycle counts, final registers and memories, the ordered
   control-event stream, and any error raised.

   Generated programs are well-formed and race-free by construction:
   - every action group writes its own dedicated register, and groups may
     only read registers whose (unique) writer is sequentially before them
     — never a register written by a sibling [par] branch, whose value at
     read time would be schedule-dependent;
   - every [while] loop owns a dedicated counter register incremented once
     per iteration with a strict bound (so programs terminate);
   - [if] conditions compare a readable register against a constant via a
     combinational condition group. *)

open Calyx
open Calyx.Ir

(* The generator lives in Progs.Fuzz so the observability tests can reuse
   it (tracing must never change simulation results). *)
let gen_program = Progs.Fuzz.gen_program

let register_values sim regs =
  List.map (fun r -> Bitvec.to_int64 (Calyx_sim.Sim.read_register sim r)) regs

(* The compiled engine must be observably identical to the reference
   fixpoint engine (the oracle). *)
let check_engines ctx =
  match Calyx_sim.Sim.disagreement ctx with
  | None -> true
  | Some d ->
      Printf.printf "engine disagreement: %s\n" d;
      false

let configs =
  [
    ("insensitive", Pipelines.insensitive_config);
    ( "static",
      {
        Pipelines.insensitive_config with
        Pipelines.infer_latency = true;
        Pipelines.static_timing = true;
      } );
    ( "resource-sharing",
      { Pipelines.insensitive_config with Pipelines.resource_sharing = true } );
  ]

let check_seed seed =
  let ctx = gen_program seed in
  Well_formed.check ctx;
  let regs =
    List.filter_map
      (fun c ->
        match c.cell_proto with
        | Prim ("std_reg", _) -> Some c.cell_name
        | _ -> None)
      (entry ctx).cells
  in
  let oracle = Calyx_sim.Sim.create ~engine:`Fixpoint ctx in
  let oracle_cycles = Calyx_sim.Sim.run ~max_cycles:200_000 oracle in
  let expected = register_values oracle regs in
  check_engines ctx
  && List.for_all
       (fun (name, config) ->
         let lowered = Pipelines.compile ~config ctx in
         let sim = Calyx_sim.Sim.create ~engine:`Fixpoint lowered in
         let cycles = Calyx_sim.Sim.run ~max_cycles:400_000 sim in
         ignore cycles;
         let got = register_values sim regs in
         if got <> expected then begin
           Printf.printf "seed %d config %s (oracle %d cycles): mismatch\n" seed
             name oracle_cycles;
           false
         end
         else check_engines lowered)
       configs

let prop_differential =
  QCheck.Test.make ~name:"random programs: compiled = interpreted" ~count:60
    (Fuzz_seed.seed_arb "random-differential")
    check_seed

(* A wider engine-only sweep (no compilation, so it is cheap): together
   with the fixed-seed sweep and the differential property this exercises
   well over 500 random programs under both engines per run. *)
let prop_engines =
  QCheck.Test.make ~name:"compiled engine = fixpoint engine"
    ~count:300
    (Fuzz_seed.seed_arb "random-engines")
    (fun seed -> check_engines (gen_program seed))

(* Random programs also exercise the printer/parser round trip. *)
let prop_roundtrip =
  QCheck.Test.make ~name:"random programs round-trip through the parser"
    ~count:40
    (Fuzz_seed.seed_arb "random-roundtrip")
    (fun seed ->
      let ctx = gen_program seed in
      let text = Printer.to_string ctx in
      let ctx' = Parser.parse_string text in
      String.equal text (Printer.to_string ctx'))

(* The generator builds race-free, fully-live programs, so the lint suite
   must accept them without a single diagnostic... *)
let prop_lint_clean =
  QCheck.Test.make ~name:"random programs lint clean" ~count:60
    (Fuzz_seed.seed_arb "random-lint")
    (fun seed -> Lint.diagnostics (gen_program seed) = [])

(* ...and compilation must not introduce error-severity diagnostics either
   (lowered programs may pick up warnings: group enables from different
   control sites are not syntactically provably exclusive). *)
let prop_lowered_error_free =
  QCheck.Test.make ~name:"lowered random programs have no lint errors"
    ~count:30
    (Fuzz_seed.seed_arb "random-lowered-lint")
    (fun seed ->
      List.for_all
        (fun (_, config) ->
          let lowered = Pipelines.compile ~config (gen_program seed) in
          Diagnostics.errors_of (Lint.diagnostics lowered) = [])
        configs)

(* And the area model prices every random design without raising. *)
let prop_area_total =
  QCheck.Test.make ~name:"random programs have sane area" ~count:30
    (Fuzz_seed.seed_arb "random-area")
    (fun seed ->
      let ctx = Pipelines.compile (gen_program seed) in
      let u = Calyx_synth.Area.context_usage ctx in
      u.Calyx_synth.Area.luts >= 0 && u.Calyx_synth.Area.registers > 0)

let test_fixed_seeds () =
  (* A deterministic sweep, so failures are reproducible in CI. *)
  for seed = 0 to 200 do
    if not (check_seed seed) then Alcotest.failf "seed %d diverged" seed
  done

let () =
  Alcotest.run "random-programs"
    [
      ( "differential",
        [
          Alcotest.test_case "fixed seeds 0..200" `Quick test_fixed_seeds;
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_engines;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_lint_clean;
          QCheck_alcotest.to_alcotest prop_lowered_error_free;
          QCheck_alcotest.to_alcotest prop_area_total;
        ] );
    ]
