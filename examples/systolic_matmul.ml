(* Systolic array matrix multiply (Section 6.1, Figures 5-6).

   Generates a 4x4 systolic array, shows that the Calyx compiler infers its
   entire latency without any frontend annotations, and compares
   latency-sensitive against latency-insensitive compilation.

   Run with: dune exec examples/systolic_matmul.exe *)

open Calyx

let n = 4
let d = { Systolic.rows = n; cols = n; depth = n; width = 32 }

let a = Array.init n (fun r -> Array.init n (fun k -> (r * n) + k + 1))
let b = Array.init n (fun k -> Array.init n (fun c -> if k = c then 2 else 1))

(* The generator's test bench: loads [a] and [b], checks the product
   against its software matmul. *)
let tb = Systolic.testbench d ~a ~b

let run config =
  let ctx = Pipelines.compile ~config (Systolic.generate d) in
  let sim = Calyx_sim.Sim.create ctx in
  let io = Calyx_sim.Testbench.of_sim sim in
  tb.load io;
  (Calyx_sim.Sim.run sim, io)

let () =
  let ctx = Systolic.generate d in
  let main = Ir.entry ctx in
  Printf.printf "Generated a %dx%d systolic array: %d cells, %d groups, %d control statements\n"
    n n
    (List.length main.Ir.cells)
    (List.length main.Ir.groups)
    (Ir.control_size main.Ir.control);

  (* The generator emits no "static" attributes; inference recovers the
     whole array's latency (Section 5.3 + 6.1). *)
  let inferred = Pass.run Infer_latency.pass ctx in
  (match Attrs.static (Ir.entry inferred).Ir.comp_attrs with
  | Some l -> Printf.printf "Inferred whole-array latency: %d cycles\n" l
  | None -> print_endline "latency not inferred (unexpected!)");

  let insensitive, _ = run Pipelines.insensitive_config in
  let sensitive, io = run Pipelines.default_config in
  Printf.printf "\nLatency-insensitive compilation: %d cycles\n" insensitive;
  Printf.printf "Latency-sensitive compilation:   %d cycles (%.2fx faster)\n"
    sensitive
    (float_of_int insensitive /. float_of_int sensitive);

  (* Show the product (and that it is correct). *)
  print_endline "\nC = A x B:";
  Array.iter
    (fun row ->
      Printf.printf "  [ %s ]\n"
        (String.concat " "
           (Array.to_list (Array.map (Printf.sprintf "%4d") row))))
    (Systolic.result d io);
  Printf.printf "verified against software matmul: %s\n"
    (if tb.check io = [] then "ok" else "MISMATCH")
