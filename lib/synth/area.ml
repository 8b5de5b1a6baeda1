open Calyx.Ir

type usage = {
  luts : int;
  registers : int;
  register_cells : int;
  dsps : int;
  brams : int;
}

let zero = { luts = 0; registers = 0; register_cells = 0; dsps = 0; brams = 0 }

let add a b =
  {
    luts = a.luts + b.luts;
    registers = a.registers + b.registers;
    register_cells = a.register_cells + b.register_cells;
    dsps = a.dsps + b.dsps;
    brams = a.brams + b.brams;
  }

let cdiv a b = (a + b - 1) / b

let clog2 n =
  let rec go bits cap = if cap >= n then bits else go (bits + 1) (cap * 2) in
  go 1 2

(* LUT6 fabric: an adder uses one LUT per bit (carry chain), a wide equality
   packs ~3 bits per LUT, ordered comparison ~2 bits, bitwise ops ~3 bits. *)
let primitive_usage name params =
  let p n = List.nth params n in
  match name with
  | "std_reg" ->
      { zero with registers = p 0 + 1 (* value + done *); register_cells = 1 }
  | "std_const" | "std_wire" | "std_slice" | "std_pad" -> zero
  | "std_add" | "std_sub" -> { zero with luts = p 0 }
  | "std_and" | "std_or" | "std_xor" | "std_not" -> { zero with luts = cdiv (p 0) 3 }
  | "std_lsh" | "std_rsh" ->
      (* Barrel shifter: log stages of 2:1 muxes. *)
      { zero with luts = cdiv (p 0 * clog2 (p 0)) 2 }
  | "std_mult" -> { zero with dsps = cdiv (p 0) 18 * cdiv (p 0) 18 }
  | "std_mult_pipe" ->
      {
        zero with
        dsps = cdiv (p 0) 18 * cdiv (p 0) 18;
        registers = (2 * p 0) + 4;
        luts = 4;
      }
  | "std_div_pipe" ->
      { zero with luts = 3 * p 0; registers = (3 * p 0) + 8 }
  | "std_sqrt" -> { zero with luts = 2 * p 0; registers = (2 * p 0) + 4 }
  | "std_lt" | "std_gt" | "std_le" | "std_ge" -> { zero with luts = cdiv (p 0) 2 }
  | "std_eq" | "std_neq" -> { zero with luts = cdiv (p 0) 3 }
  | "std_mem_d1" ->
      let bits = p 0 * p 1 in
      if bits <= 1024 then { zero with luts = cdiv bits 64; registers = 1 }
      else { zero with brams = cdiv bits 18432; registers = 1 }
  | "std_mem_d2" ->
      let bits = p 0 * p 1 * p 2 in
      if bits <= 1024 then { zero with luts = cdiv bits 64; registers = 1 }
      else { zero with brams = cdiv bits 18432; registers = 1 }
  | _ -> zero

(* Multiplexing: k guarded drivers of a w-bit port synthesize to a k:1 mux,
   roughly one LUT6 per 3 extra inputs per bit; guard expressions cost one
   LUT per ~5 operators. *)
let wiring_usage ports comp =
  let drivers : (port_ref, int * int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let count, gsize =
        Option.value ~default:(0, 0) (Hashtbl.find_opt drivers a.dst)
      in
      Hashtbl.replace drivers a.dst (count + 1, gsize + guard_size a.guard))
    (all_assignments comp);
  Hashtbl.fold
    (fun dst (count, gsize) acc ->
      let w = try Ports.width ports dst with Ir_error _ -> 1 in
      let mux = if count <= 1 then 0 else w * cdiv (count - 1) 3 in
      add acc { zero with luts = mux + cdiv gsize 5 })
    drivers zero

(* A component's cost depends on nothing but its definition, so each one
   is costed once per call however often it is instantiated. *)
let component_usage ctx comp =
  let memo = Hashtbl.create 8 in
  let rec usage comp =
    match Hashtbl.find_opt memo comp.comp_name with
    | Some u -> u
    | None ->
        let cells =
          List.fold_left
            (fun acc c ->
              match c.cell_proto with
              | Prim (name, params) -> add acc (primitive_usage name params)
              | Comp name -> add acc (usage (find_component ctx name)))
            zero comp.cells
        in
        let u = add cells (wiring_usage (Ports.create ctx comp) comp) in
        Hashtbl.replace memo comp.comp_name u;
        u
  in
  usage comp

let context_usage ctx =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "area" @@ fun () ->
  component_usage ctx (entry ctx)

let pp fmt u =
  Format.fprintf fmt "{luts=%d; regs=%d; reg_cells=%d; dsps=%d; brams=%d}"
    u.luts u.registers u.register_cells u.dsps u.brams
