(* The lowered-output corpus, pinned by digest: systolic arrays 2x2 to
   10x10, every PolyBench kernel and unrolled variant, and the .futil
   examples in DIR, each compiled under the default and the
   latency-insensitive configuration. One line per design and config: the
   MD5 of the printed lowered program. A change to what any pass emits
   shows up as a changed digest.

   Usage: lowered_digests DIR *)

let systolic n =
  ( Printf.sprintf "systolic-%dx%d" n n,
    fun () ->
      Systolic.generate Systolic.{ rows = n; cols = n; depth = n; width = 32 }
  )

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

let () =
  let dir =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ ->
        prerr_endline "usage: lowered_digests DIR";
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
          let lowered = Calyx.Pipelines.compile ~config (build ()) in
          Printf.printf "%s %s %s\n" name cname
            (Digest.to_hex (Digest.string (Calyx.Printer.to_string lowered))))
        configs)
    (List.map systolic [ 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    @ List.concat_map kernel Polybench.Kernels.all
    @ List.map (example dir) examples)
