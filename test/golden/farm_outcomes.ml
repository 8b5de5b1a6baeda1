(* The farm outcomes of a fixed set of jobs, one canonical JSON line per
   job: generated systolic arrays and PolyBench kernels, each run against
   its own test bench, and two of them also through translation
   validation; then every PolyBench variant (the 19 kernels, then the 11
   unrolled ones), which pins each kernel's final registers and memories.
   A separate executable from golden_gen so that linking the farm does not
   register extra instruments in golden_gen's metrics golden. *)

module Job = Calyx_farm.Job

let systolic (rows, cols, depth) = Job.Systolic { rows; cols; depth }
let kernel ?(unrolled = false) k = Job.Polybench { kernel = k; unrolled }

let jobs =
  List.map Job.make
    (List.map systolic [ (2, 2, 2); (3, 3, 3); (2, 3, 4) ]
    @ [ kernel "gemm"; kernel ~unrolled:true "gemm"; kernel "atax";
        kernel "trisolv" ])
  @ List.map
      (Job.make ~check:Job.Validate)
      [ systolic (2, 2, 2); kernel "gemm" ]
  @ List.map Job.make
      (List.map (fun k -> kernel k.Polybench.Kernels.name) Polybench.Kernels.all
      @ List.map
          (fun k -> kernel ~unrolled:true k.Polybench.Kernels.name)
          Polybench.Kernels.unrollable)

let () = List.iter (fun j -> print_endline (Job.outcome_to_json (Job.run j))) jobs
