(* One design and the end-to-end path it takes: frontend -> compile ->
   emit -> simulator build -> simulation -> reference check ->
   (translation validation) -> timing and area.

   The untraced path compiles with [Pipelines.compile]. The traced path
   rebuilds that call from its public parts so each pass gets a span, and
   checks that the result prints byte-identical to [Pipelines.compile]'s. *)

module R = Record
module Tb = Calyx_sim.Testbench

type t = {
  name : string;
  front : unit -> Calyx.Ir.context * (Tb.io -> unit) * (Tb.io -> string list);
      (** The structured program, its input loader, and a check of the
          final state against a reference that is not the compiler under
          test (mismatch messages; [[]] when correct). *)
}

type result = {
  cycles : int;
  luts : int;
  fmax_mhz : float;
  failures : string list;
}

let engine = `Compiled

(* ------------------------------------------------------------------ *)
(* Designs                                                             *)
(* ------------------------------------------------------------------ *)

(* A PolyBench kernel on the given inputs, checked against the kernel's
   golden OCaml model. *)
let polybench (k : Polybench.Kernels.kernel) ~unrolled ~inputs =
  let k = { k with inputs } in
  let text = if unrolled then Option.get k.unrolled else k.source in
  {
    name = (if unrolled then k.name ^ "-unrolled" else k.name);
    front =
      (fun () ->
        let prog = R.span "dahlia.parser" (fun () -> Dahlia.Parser.parse_string text) in
        ( R.span "dahlia.to_calyx" (fun () -> Dahlia.To_calyx.compile prog),
          Polybench.Harness.load_inputs k prog,
          fun io ->
            List.map
              (fun m -> "golden mismatch in memory " ^ m)
              (Polybench.Harness.verify k prog io) ));
  }

let systolic_width = 32

(* The n×n×n array computing C = A·B, printed to Calyx text once and
   parsed on every run, checked against the software product. *)
let systolic ~(a : int array array) ~(b : int array array) =
  let n = Array.length a in
  let dims = Systolic.{ rows = n; cols = n; depth = n; width = systolic_width } in
  let text = Calyx.Printer.to_string (Systolic.generate dims) in
  let load io =
    for r = 0 to n - 1 do
      Tb.write_memory_ints io (Systolic.left_memory r) ~width:systolic_width
        (Array.to_list a.(r))
    done;
    for c = 0 to n - 1 do
      Tb.write_memory_ints io (Systolic.top_memory c) ~width:systolic_width
        (List.init n (fun k -> b.(k).(c)))
    done
  in
  let check io =
    List.concat
      (List.mapi
         (fun i got ->
           let r = i / n and c = i mod n in
           let want = ref 0 in
           for k = 0 to n - 1 do
             want := !want + (a.(r).(k) * b.(k).(c))
           done;
           let want = !want land 0xFFFFFFFF in
           if got = want then []
           else [ Printf.sprintf "product mismatch at C[%d][%d]: %d <> %d" r c got want ])
         (Tb.read_memory_ints io Systolic.out_memory))
  in
  {
    name = Printf.sprintf "systolic-%dx%d" n n;
    front =
      (fun () ->
        R.addi "calyx.parser.bytes" (String.length text);
        (R.span "calyx.parser" (fun () -> Calyx.Parser.parse_string text), load, check));
  }

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let config = Calyx.Pipelines.default_config

let measure ctx = R.span "bench.measure" (fun () -> Calyx.Pass.measure ctx)

let record_counts suffix (c : Calyx.Pass.counts) =
  R.addi ("ir.cells_" ^ suffix) c.cells;
  R.addi ("ir.groups_" ^ suffix) c.groups;
  R.addi ("ir.assignments_" ^ suffix) c.assignments;
  R.addi ("ir.control_nodes_" ^ suffix) c.control_nodes

(* [Pipelines.compile] rebuilt from public calls, one span per layer. *)
let replay ctx =
  R.span "calyx.well_formed" (fun () -> Calyx.Well_formed.check ctx);
  if config.lint then R.span "calyx.lint" (fun () -> Calyx.Lint.check ctx);
  let first = measure ctx in
  record_counts "in" first;
  let lowered, last =
    List.fold_left
      (fun (ctx, before) (p : Calyx.Pass.t) ->
        let ctx' =
          R.span ("pass." ^ p.name) (fun () -> Calyx.Pass.run ~validate:false p ctx)
        in
        (match R.span "pass.revalidate" (fun () -> Calyx.Well_formed.errors ctx') with
        | [] -> ()
        | errors -> raise (Calyx.Well_formed.Malformed errors));
        let after = measure ctx' in
        R.addi ("pass." ^ p.name ^ ".cells_removed") (before.Calyx.Pass.cells - after.cells);
        (ctx', after))
      (ctx, first)
      (Calyx.Pipelines.passes config)
  in
  record_counts "out" last;
  R.span "bench.replay_check" (fun () ->
      let reference = Calyx.Pipelines.compile ~config ctx in
      if Calyx.Printer.to_string reference <> Calyx.Printer.to_string lowered then
        failwith "traced replay lowered differently from Pipelines.compile");
  lowered

(* ------------------------------------------------------------------ *)
(* The end-to-end path                                                 *)
(* ------------------------------------------------------------------ *)

let timed name f =
  let t0 = R.now () in
  let v = f () in
  R.add name (R.now () -. t0);
  v

let validate ~load ~check ~sv ~cycles lowered =
  let report =
    R.span "verilog.validate" (fun () ->
        Calyx_verilog.Validate.validate ~engine ~load lowered)
  in
  let module V = Calyx_verilog.Validate in
  let rtl_golden = List.map (fun m -> "rtl: " ^ m) (check report.V.rtl_io) in
  if !R.tracing then
    R.span "bench.vinterp_split" (fun () ->
        let rtl =
          R.span "vinterp.load" (fun () ->
              Calyx_verilog.Vinterp.load ~top:lowered.Calyx.Ir.entrypoint sv)
        in
        load (V.rtl_io rtl);
        let c = R.span "vinterp.run" (fun () -> Calyx_verilog.Vinterp.run rtl) in
        if c <> cycles then failwith "split Vinterp run disagrees on cycles");
  List.map
    (fun (m : V.mismatch) ->
      Printf.sprintf "rtl disagrees on %s: sim=%s rtl=%s" m.path m.sim_value m.rtl_value)
    report.V.mismatches
  @ rtl_golden

let run_exn ~validate:validated d =
  let lowered, load, check, sv =
    timed "compile_s" (fun () ->
        let ctx, load, check = d.front () in
        let lowered =
          if !R.tracing then replay ctx else Calyx.Pipelines.compile ~config ctx
        in
        let sv = R.span "verilog.emit" (fun () -> Calyx_verilog.Verilog.emit lowered) in
        (lowered, load, check, sv))
  in
  R.addi "sv_loc" (Calyx_verilog.Verilog.loc sv);
  let cycles, golden =
    timed "sim_s" (fun () ->
        let sim = R.span "sim.create" (fun () -> Calyx_sim.Sim.create ~engine lowered) in
        let io = Tb.of_sim sim in
        R.span "testbench.io" (fun () -> load io);
        let cycles = R.span "sim.run" (fun () -> Calyx_sim.Sim.run sim) in
        (cycles, R.span "reference.check" (fun () -> check io)))
  in
  let rtl =
    if validated then
      timed "validate_s" (fun () -> validate ~load ~check ~sv ~cycles lowered)
    else []
  in
  let timing =
    R.span "synth.timing" (fun () -> Calyx_synth.Timing.context_timing ~paths:1 lowered)
  in
  let area = R.span "synth.area" (fun () -> Calyx_synth.Area.context_usage lowered) in
  { cycles; luts = area.luts; fmax_mhz = timing.fmax_mhz; failures = golden @ rtl }

(* Run one design and add its design metrics to the round. Any exception
   is a failure of this design, never of the benchmark. *)
let run ~validate d =
  R.design := d.name;
  let r =
    timed ("design_s." ^ d.name) (fun () ->
        match R.span "design" (fun () -> run_exn ~validate d) with
        | r -> r
        | exception e ->
            { cycles = 0; luts = 0; fmax_mhz = 0.; failures = [ Printexc.to_string e ] })
  in
  R.addi "sim_cycles" r.cycles;
  R.addi "luts" r.luts;
  if r.fmax_mhz > 0. then begin
    R.add "fmax.log_sum" (log r.fmax_mhz);
    R.add "fmax.designs" 1.
  end;
  r
