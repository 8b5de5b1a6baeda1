(* The compile corpus, pinned by digest: systolic arrays 2x2 to 10x10,
   12x12, 16x16, 24x24, 32x32, 1x12, 12x1 and 5x12 (depth 7),
   every PolyBench kernel and unrolled variant, and the .futil examples in
   DIR, each compiled under the default and the latency-insensitive
   configuration.

   [lowered_digests DIR] prints one line per design and config: the MD5 of
   the printed lowered program. A change to what any pass emits shows up
   as a changed digest.

   [lowered_digests backend DIR] prints the back end's outputs on the same
   corpus, one line per design and config with three MD5s: the emitted
   SystemVerilog, the static-timing JSON of the structured and the lowered
   program (five worst paths, attributed to the structured program; a
   structured program's combinational loop prints as "loop"), and the area
   model's [Area.pp] of the structured and the lowered program. A change
   to the emitter, the timing analysis or the area model shows up here.

   [lowered_digests plan DIR] prints the MD5s of the compiled engine's
   plan ([Sim.compiled_plan]) of the lowered and of the structured
   program, on the same corpus without the systolic arrays above 16x16.
   A systolic array instantiates one processing-element component once
   per cell, so a change to how the simulator builds instances of a
   shared component shows up here. *)

let systolic (rows, cols, depth) =
  ( (if rows = cols && cols = depth then
       Printf.sprintf "systolic-%dx%d" rows cols
     else Printf.sprintf "systolic-%dx%dx%d" rows cols depth),
    fun () -> Systolic.generate Systolic.{ rows; cols; depth; width = 32 } )

let kernel (k : Polybench.Kernels.kernel) =
  (k.name, fun () -> Polybench.Harness.build k ~unrolled:false)
  ::
  (if k.unrolled = None then []
   else [ (k.name ^ "-unrolled", fun () -> Polybench.Harness.build k ~unrolled:true) ])

let example dir f = (f, fun () -> Calyx.Parser.parse_file (Filename.concat dir f))

let configs =
  [
    ("default", Calyx.Pipelines.default_config);
    ("insensitive", Calyx.Pipelines.insensitive_config);
  ]

let md5 s = Digest.to_hex (Digest.string s)

let lowered_line _structured lowered = md5 (Calyx.Printer.to_string lowered)

let backend_line structured lowered =
  let sv = Calyx_verilog.Verilog.emit lowered in
  let timing ctx =
    match Calyx_synth.Timing.context_timing ~paths:5 ctx with
    | r -> Calyx_synth.Timing.to_json ~attribute_ctx:structured r
    | exception Calyx_synth.Timing.Combinational_loop _ -> "loop"
  in
  let area =
    Format.asprintf "%a %a" Calyx_synth.Area.pp
      (Calyx_synth.Area.context_usage structured)
      Calyx_synth.Area.pp
      (Calyx_synth.Area.context_usage lowered)
  in
  String.concat " "
    [ md5 sv; md5 (timing structured ^ timing lowered); md5 area ]

let plan_line structured lowered =
  let plan ctx =
    match Calyx_sim.Sim.compiled_plan (Calyx_sim.Sim.create ~engine:`Compiled ctx) with
    | Some p -> p
    | None -> failwith "compiled engine produced no plan"
  in
  md5 (plan lowered) ^ " " ^ md5 (plan structured)

let () =
  let line, dir, max_side =
    match Sys.argv with
    | [| _; dir |] -> (lowered_line, dir, max_int)
    | [| _; "backend"; dir |] -> (backend_line, dir, max_int)
    | [| _; "plan"; dir |] -> (plan_line, dir, 16)
    | _ ->
        prerr_endline "usage: lowered_digests [backend|plan] DIR";
        exit 2
  in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".futil")
    |> List.sort compare
  in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun (cname, config) ->
          let structured = build () in
          let lowered = Calyx.Pipelines.compile ~config structured in
          Printf.printf "%s %s %s\n" name cname (line structured lowered))
        configs)
    (List.map
       (fun n -> systolic (n, n, n))
       (List.filter
          (fun n -> n <= max_side)
          [ 2; 3; 4; 5; 6; 7; 8; 9; 10; 12; 16; 24; 32 ])
    @ List.map systolic [ (1, 12, 12); (12, 1, 12); (5, 12, 7) ]
    @ List.concat_map kernel Polybench.Kernels.all
    @ List.map (example dir) examples)
