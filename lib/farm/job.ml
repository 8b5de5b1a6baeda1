module Tele = Calyx_telemetry

type source =
  | Text of { name : string; dahlia : bool; text : string }
  | Polybench of { kernel : string; unrolled : bool }
  | Systolic of { rows : int; cols : int; depth : int }
  | Fuzz of { seed : int }

type check = Simulate | Validate | Engines

let checks =
  [ ("simulate", Simulate); ("validate", Validate); ("engines", Engines) ]

type t = {
  source : source;
  config : Calyx.Pipelines.config;
  engine : Calyx_sim.Sim.engine;
  check : check;
}

let make ?(config = Calyx.Pipelines.default_config)
    ?(engine = Calyx_sim.Sim.default_engine) ?(check = Simulate) source =
  { source; config; engine; check }

let of_file ?config ?engine ?check file =
  let dahlia =
    Filename.check_suffix file ".dahlia" || Filename.check_suffix file ".fuse"
  in
  let text = In_channel.with_open_bin file In_channel.input_all in
  make ?config ?engine ?check
    (Text { name = Filename.basename file; dahlia; text })

let label t =
  match t.source with
  | Text { name; _ } -> name
  | Polybench { kernel; unrolled } ->
      if unrolled then kernel ^ "-unrolled" else kernel
  | Systolic { rows; cols; depth } ->
      Printf.sprintf "systolic-%dx%dx%d" rows cols depth
  | Fuzz { seed } -> Printf.sprintf "fuzz-%d" seed

let engine_name t = Calyx_sim.Sim.engine_name t.engine

let systolic_width = 32

(* The check is part of the source key: a validated outcome carries extra
   payload and an engines outcome vouches for the differential, so serving
   one check's cached outcome to another would be wrong. *)
let key_source t =
  let mode =
    match t.check with
    | Simulate -> "+sim\n"
    | Validate -> "+validate\n"
    | Engines -> "+engines\n"
  in
  mode
  ^
  match t.source with
  | Text { dahlia; text; _ } ->
      (if dahlia then "dahlia:" else "calyx:") ^ text
  | Polybench { kernel; unrolled } ->
      let k = Polybench.Kernels.find kernel in
      let src =
        if unrolled then Option.value k.unrolled ~default:k.source
        else k.source
      in
      let inputs =
        String.concat ";"
          (List.map
             (fun (name, values) ->
               name ^ "="
               ^ String.concat "," (List.map string_of_int values))
             k.inputs)
      in
      Printf.sprintf "polybench:%s:%b\n%s\n%s" kernel unrolled src inputs
  | Systolic { rows; cols; depth } ->
      Printf.sprintf "systolic:%dx%dx%d:w%d" rows cols depth systolic_width
  | Fuzz { seed } ->
      "fuzz:" ^ Calyx.Fuzz_gen.to_string (Calyx.Fuzz_gen.spec_of_seed seed)

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type validation = {
  v_ok : bool;
  v_cycles_rtl : int;
  v_registers_checked : int;
  v_memories_checked : int;
  v_mismatches : string list;
}

type outcome = {
  o_label : string;
  o_engine : string;
  o_ok : bool;
  o_cycles : int;
  o_registers : (string * string) list;
  o_memories : (string * string list) list;
  o_diagnostics : string list;
  o_validate : validation option;
  o_delay_ps : int;
  o_fmax_mhz : float;
  o_luts : int;
  o_register_bits : int;
  o_dsps : int;
  o_brams : int;
}

(* ------------------------------------------------------------------ *)
(* Per-source program and test bench                                  *)
(* ------------------------------------------------------------------ *)

(* Structured context and its test bench. The loader runs against a
   Testbench.io so the same data drives the simulator, the RTL
   interpreter (Validate) and every engine of the differential
   (Engines). *)
let build t =
  let nothing = { Calyx_sim.Testbench.load = ignore; check = (fun _ -> []) } in
  match t.source with
  | Text { dahlia; text; _ } ->
      let ctx =
        if dahlia then
          Dahlia.To_calyx.compile (Dahlia.Parser.parse_string text)
        else Calyx.Parser.parse_string text
      in
      (ctx, nothing)
  | Fuzz { seed } -> (Calyx.Fuzz_gen.program_of_seed seed, nothing)
  | Polybench { kernel; unrolled } ->
      let k = Polybench.Kernels.find kernel in
      let prog = Polybench.Harness.program k ~unrolled in
      (Dahlia.To_calyx.compile prog, Polybench.Harness.testbench k prog)
  | Systolic { rows; cols; depth } ->
      let d = Systolic.{ rows; cols; depth; width = systolic_width } in
      let a, b = Systolic.sample d in
      (Systolic.generate d, Systolic.testbench d ~a ~b)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* Everything the toolchain can deterministically raise, rendered as a
   diagnostic string. Messages only — no wall-clock, no addresses — so a
   failing job still serializes identically on every run. *)
let describe_error = function
  | Calyx.Well_formed.Malformed errs ->
      Some ("malformed: " ^ String.concat "; " errs)
  | Calyx.Lint.Rejected ds ->
      Some
        ("lint rejected: "
        ^ String.concat "; " (List.map Calyx.Diagnostics.render ds))
  | Calyx.Parser.Parse_error msg
  | Calyx.Lexer.Lex_error msg
  | Calyx.Ir.Ir_error msg ->
      Some ("error: " ^ msg)
  | Dahlia.Parser.Parse_error msg
  | Dahlia.Typecheck.Type_error msg
  | Dahlia.Lowering.Lowering_error msg
  | Dahlia.To_calyx.Backend_error msg ->
      Some ("dahlia error: " ^ msg)
  | Calyx_sim.Sim.Conflict { cycle; message; _ }
  | Calyx_sim.Sim.Unstable { cycle; message; _ } ->
      Some (Printf.sprintf "simulation error at cycle %d: %s" cycle message)
  | Calyx_sim.Sim.Timeout { budget; _ } ->
      Some (Printf.sprintf "simulation timeout after %d cycles" budget)
  | Calyx_sim.Prim_state.Sim_error msg -> Some ("simulation error: " ^ msg)
  | Calyx_verilog.Verilog.Not_lowered msg -> Some ("emit error: " ^ msg)
  | Calyx_verilog.Vinterp.Parse_error msg
  | Calyx_verilog.Vinterp.Elab_error msg ->
      Some ("rtl error: " ^ msg)
  | Calyx_verilog.Vinterp.Unstable { cycle; message } ->
      Some (Printf.sprintf "rtl error at cycle %d: %s" cycle message)
  | Calyx_verilog.Vinterp.Timeout { budget } ->
      Some (Printf.sprintf "rtl timeout after %d cycles" budget)
  | Calyx_synth.Timing.Combinational_loop port ->
      Some ("combinational loop through " ^ port)
  | Polybench.Data.Data_error msg -> Some ("data error: " ^ msg)
  | Tele.Json.Parse_error msg -> Some ("json error: " ^ msg)
  | Failure msg -> Some ("failure: " ^ msg)
  | Not_found -> Some "failure: unknown kernel or memory"
  | Invalid_argument msg -> Some ("invalid argument: " ^ msg)
  | _ -> None

let failed_outcome t diagnostics =
  {
    o_label = label t;
    o_engine = engine_name t;
    o_ok = false;
    o_cycles = 0;
    o_registers = [];
    o_memories = [];
    o_diagnostics = diagnostics;
    o_validate = None;
    o_delay_ps = 0;
    o_fmax_mhz = 0.;
    o_luts = 0;
    o_register_bits = 0;
    o_dsps = 0;
    o_brams = 0;
  }

let run_validation ~load ~simulated lowered =
  let r = Calyx_verilog.Validate.validate ~load ~simulated lowered in
  {
    v_ok = r.ok;
    v_cycles_rtl = r.cycles_rtl;
    v_registers_checked = r.registers_checked;
    v_memories_checked = r.memories_checked;
    v_mismatches =
      List.map
        (fun (m : Calyx_verilog.Validate.mismatch) ->
          Printf.sprintf "%s: sim=%s rtl=%s" m.path m.sim_value m.rtl_value)
        r.mismatches;
  }

(* The engine differential on the structured program and on its lowered
   form, each loaded with the job's inputs. *)
let engine_disagreements ~load ctx lowered =
  let load sim = load (Calyx_sim.Testbench.of_sim sim) in
  List.filter_map
    (fun (form, c) ->
      Option.map
        (fun d -> form ^ ": " ^ d)
        (Calyx_sim.Sim.disagreement ~load c))
    [ ("source", ctx); ("lowered", lowered) ]

let run t =
  Tele.Manifest.set_run ~source:(label t)
    ~source_hash:(Tele.Manifest.hash (key_source t))
    ~pipeline:(Calyx.Pipelines.id t.config)
    ~engine:(engine_name t) ();
  match
    Tele.Trace.with_span ~cat:"farm" ("job:" ^ label t) (fun () ->
        let ctx, tb = build t in
        let lowered =
          Tele.Trace.with_span ~cat:"stage" "compile" (fun () ->
              Calyx.Pipelines.compile ~config:t.config ctx)
        in
        let sim = Calyx_sim.Sim.create ~engine:t.engine lowered in
        let io = Calyx_sim.Testbench.of_sim sim in
        tb.load io;
        let cycles =
          Tele.Trace.with_span ~cat:"stage" "simulate" (fun () ->
              Calyx_sim.Sim.run sim)
        in
        let golden = tb.check io in
        let registers, memories = Calyx_sim.Sim.state_cells lowered in
        let o_registers =
          List.map
            (fun p -> (p, Calyx.Bitvec.to_string (io.read_register p)))
            registers
        in
        let o_memories =
          List.map
            (fun p ->
              ( p,
                Array.to_list
                  (Array.map Calyx.Bitvec.to_string (io.read_memory p)) ))
            memories
        in
        let validation =
          if t.check = Validate then
            Some
              (Tele.Trace.with_span ~cat:"stage" "validate" (fun () ->
                   run_validation ~load:tb.load ~simulated:sim lowered))
          else None
        in
        let disagreements =
          if t.check = Engines then
            Tele.Trace.with_span ~cat:"stage" "engines" (fun () ->
                engine_disagreements ~load:tb.load ctx lowered)
          else []
        in
        let timing = Calyx_synth.Timing.context_timing ~paths:1 lowered in
        let area = Calyx_synth.Area.context_usage lowered in
        let validation_ok =
          match validation with None -> true | Some v -> v.v_ok
        in
        {
          o_label = label t;
          o_engine = engine_name t;
          o_ok = golden = [] && validation_ok && disagreements = [];
          o_cycles = cycles;
          o_registers;
          o_memories;
          o_diagnostics = golden @ disagreements;
          o_validate = validation;
          o_delay_ps = timing.delay_ps;
          o_fmax_mhz = timing.fmax_mhz;
          o_luts = area.luts;
          o_register_bits = area.registers;
          o_dsps = area.dsps;
          o_brams = area.brams;
        })
  with
  | outcome -> outcome
  | exception e -> (
      match describe_error e with
      | Some msg -> failed_outcome t [ msg ]
      | None -> raise e)

(* ------------------------------------------------------------------ *)
(* Canonical JSON                                                      *)
(* ------------------------------------------------------------------ *)

module Json = Tele.Json

let validation_to_json v =
  Json.obj
    [
      ("ok", Json.bool v.v_ok);
      ("cycles_rtl", Json.int v.v_cycles_rtl);
      ("registers_checked", Json.int v.v_registers_checked);
      ("memories_checked", Json.int v.v_memories_checked);
      ("mismatches", Json.arr (List.map Json.str v.v_mismatches));
    ]

let outcome_to_json o =
  Json.obj
    [
      ("label", Json.str o.o_label);
      ("engine", Json.str o.o_engine);
      ("ok", Json.bool o.o_ok);
      ("cycles", Json.int o.o_cycles);
      ( "registers",
        Json.obj (List.map (fun (p, v) -> (p, Json.str v)) o.o_registers) );
      ( "memories",
        Json.obj
          (List.map
             (fun (p, vs) -> (p, Json.arr (List.map Json.str vs)))
             o.o_memories) );
      ("diagnostics", Json.arr (List.map Json.str o.o_diagnostics));
      ( "validate",
        match o.o_validate with
        | None -> Json.null
        | Some v -> validation_to_json v );
      ("delay_ps", Json.int o.o_delay_ps);
      ("fmax_mhz", Json.float o.o_fmax_mhz);
      ("luts", Json.int o.o_luts);
      ("register_bits", Json.int o.o_register_bits);
      ("dsps", Json.int o.o_dsps);
      ("brams", Json.int o.o_brams);
    ]

let ( let* ) = Option.bind

let str_field k v = Option.bind (Json.member k v) Json.to_string

let int_field k v =
  Option.map int_of_float (Option.bind (Json.member k v) Json.to_float)

let bool_field k v =
  match Json.member k v with Some (Json.Bool b) -> Some b | _ -> None

let str_list = function
  | Json.Array items ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          let* s = Json.to_string item in
          Some (s :: acc))
        items (Some [])
  | _ -> None

let validation_of_json v =
  let* v_ok = bool_field "ok" v in
  let* v_cycles_rtl = int_field "cycles_rtl" v in
  let* v_registers_checked = int_field "registers_checked" v in
  let* v_memories_checked = int_field "memories_checked" v in
  let* v_mismatches = Option.bind (Json.member "mismatches" v) str_list in
  Some { v_ok; v_cycles_rtl; v_registers_checked; v_memories_checked; v_mismatches }

let outcome_of_json v =
  let* o_label = str_field "label" v in
  let* o_engine = str_field "engine" v in
  let* o_ok = bool_field "ok" v in
  let* o_cycles = int_field "cycles" v in
  let* o_registers =
    match Json.member "registers" v with
    | Some (Json.Object kvs) ->
        List.fold_right
          (fun (p, value) acc ->
            let* acc = acc in
            let* s = Json.to_string value in
            Some ((p, s) :: acc))
          kvs (Some [])
    | _ -> None
  in
  let* o_memories =
    match Json.member "memories" v with
    | Some (Json.Object kvs) ->
        List.fold_right
          (fun (p, value) acc ->
            let* acc = acc in
            let* vs = str_list value in
            Some ((p, vs) :: acc))
          kvs (Some [])
    | _ -> None
  in
  let* o_diagnostics = Option.bind (Json.member "diagnostics" v) str_list in
  let* o_validate =
    match Json.member "validate" v with
    | Some Json.Null -> Some None
    | Some (Json.Object _ as obj) ->
        Option.map Option.some (validation_of_json obj)
    | _ -> None
  in
  let* o_delay_ps = int_field "delay_ps" v in
  let* o_fmax_mhz = Option.bind (Json.member "fmax_mhz" v) Json.to_float in
  let* o_luts = int_field "luts" v in
  let* o_register_bits = int_field "register_bits" v in
  let* o_dsps = int_field "dsps" v in
  let* o_brams = int_field "brams" v in
  Some
    {
      o_label;
      o_engine;
      o_ok;
      o_cycles;
      o_registers;
      o_memories;
      o_diagnostics;
      o_validate;
      o_delay_ps;
      o_fmax_mhz;
      o_luts;
      o_register_bits;
      o_dsps;
      o_brams;
    }
