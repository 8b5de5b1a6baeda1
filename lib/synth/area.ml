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

let clog2 = Calyx.Compile_control.clog2

(* LUT6 fabric: an adder uses one LUT per bit (carry chain), a wide equality
   packs ~3 bits per LUT, ordered comparison ~2 bits, bitwise ops ~3 bits. *)
let primitive_usage name params =
  match Calyx.Prims.find name with
  | None -> zero
  | Some info -> (
      let p n = List.nth params n in
      match info.cost with
      | Flip_flops ->
          (* value + done *)
          { zero with registers = p 0 + 1; register_cells = 1 }
      | Free -> zero
      | Adder -> { zero with luts = p 0 }
      | Bitwise | Equality -> { zero with luts = cdiv (p 0) 3 }
      | Ordered_compare -> { zero with luts = cdiv (p 0) 2 }
      | Shift ->
          (* Barrel shifter: log stages of 2:1 muxes. *)
          { zero with luts = cdiv (p 0 * clog2 (p 0)) 2 }
      | Multiplier -> { zero with dsps = cdiv (p 0) 18 * cdiv (p 0) 18 }
      | Mult_pipe ->
          {
            zero with
            dsps = cdiv (p 0) 18 * cdiv (p 0) 18;
            registers = (2 * p 0) + 4;
            luts = 4;
          }
      | Div_pipe -> { zero with luts = 3 * p 0; registers = (3 * p 0) + 8 }
      | Sqrt_pipe -> { zero with luts = 2 * p 0; registers = (2 * p 0) + 4 }
      | Ram ->
          let bits = p 0 * Calyx.Prims.words name params in
          if bits <= 1024 then { zero with luts = cdiv bits 64; registers = 1 }
          else { zero with brams = cdiv bits 18432; registers = 1 })

(* Multiplexing: k guarded drivers of a w-bit port synthesize to a k:1 mux,
   roughly one LUT6 per 3 extra inputs per bit; guard expressions cost one
   LUT per ~5 operators. Drivers are counted per destination id; a
   destination that does not resolve is a 1-bit port of its own. *)
let wiring_usage ports comp =
  let n = Ports.count ports in
  let count = Array.make n 0 and gsize = Array.make n 0 in
  let luts = ref 0 in
  List.iter
    (fun a ->
      let g = guard_size a.guard in
      match Ports.resolve ports a.dst with
      | Ports.Resolved { id; _ } ->
          count.(id) <- count.(id) + 1;
          gsize.(id) <- gsize.(id) + g
      | Ports.Unresolved_prototype e -> raise e
      | Ports.Unknown_cell | Ports.No_port -> luts := !luts + cdiv g 5)
    (all_assignments comp);
  Array.iteri
    (fun id k ->
      if k > 1 then
        luts := !luts + (Ports.width_of_id ports id * cdiv (k - 1) 3);
      luts := !luts + cdiv gsize.(id) 5)
    count;
  { zero with luts = !luts }

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
