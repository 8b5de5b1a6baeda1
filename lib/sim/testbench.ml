open Calyx

type io = {
  read_register : string -> Bitvec.t;
  write_register : string -> Bitvec.t -> unit;
  read_memory : string -> Bitvec.t array;
  write_memory : string -> Bitvec.t array -> unit;
}

let of_sim sim =
  {
    read_register = Sim.read_register sim;
    write_register = Sim.write_register sim;
    read_memory = Sim.read_memory sim;
    write_memory = Sim.write_memory sim;
  }

let write_memory_ints io name ~width values =
  io.write_memory name
    (Array.of_list (List.map (Bitvec.of_int ~width) values))

let read_memory_ints io name =
  Array.to_list (Array.map (fun v -> Bitvec.to_int v) (io.read_memory name))

type t = { load : io -> unit; check : io -> string list }

let run ?engine tb ctx =
  let sim = Sim.create ?engine ctx in
  let io = of_sim sim in
  tb.load io;
  let cycles = Sim.run sim in
  (cycles, tb.check io)
