(* The reference kernel: a fixed piece of OCaml work, timed between
   designs, that tells how fast the machine is running at that moment.

   On a shared host the speed of the same code drifts by a quarter or more
   over minutes, with other tenants' load on caches and memory. A kernel
   that does no allocation barely sees that drift; this one builds and
   reads a string-keyed hash table and map and sorts a list, as the
   compiler's passes do, and its time tracks the designs' (correlation
   0.92 to 0.94 over some 60 rounds of each workload). It uses nothing
   from the libraries under test, so a change to them cannot move it. *)

let now = Calyx_telemetry.Clock.now_s

(* Seconds one sample takes, about the median on the machine the benchmark
   was built on; normalized times are scaled to it. Fixed, so that runs at
   different times and on different commits share one scale. *)
let nominal_s = 0.004

let keys = Array.init 2000 (fun i -> "cell_" ^ string_of_int (i * 7919))

module SM = Map.Make (String)

let sink = ref 0

let kernel () =
  for _ = 1 to 3 do
    let t = Hashtbl.create 16 in
    Array.iteri (fun i k -> Hashtbl.replace t k i) keys;
    let m =
      Array.fold_left (fun m k -> SM.add k (Hashtbl.find t k) m) SM.empty keys
    in
    let l = List.sort compare (SM.fold (fun _ v acc -> v :: acc) m []) in
    sink := !sink + List.length l
  done

(* One sample, in seconds. *)
let sample () =
  let t0 = now () in
  kernel ();
  now () -. t0
