open Calyx
open Calyx.Ir

exception Not_lowered of string

let buf_add = Buffer.add_string

(* A non-negative int in decimal, digit by digit: no intermediate string
   and no format parsing. *)
let rec buf_int b n =
  if n >= 10 then buf_int b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

(* ------------------------------------------------------------------ *)
(* Names and expressions                                               *)
(* ------------------------------------------------------------------ *)

(* Every name and expression is written straight into the module's
   buffer: building each as a string first would copy it once per level
   of nesting above it. *)

let hole_error g h =
  raise (Not_lowered (Printf.sprintf "hole %s[%s] survived lowering" g h))

(* A cell port's wire: [c_p]. *)
let add_cell_wire b c p =
  buf_add b c;
  Buffer.add_char b '_';
  buf_add b p

let add_wire b = function
  | Cell_port (c, p) -> add_cell_wire b c p
  | This p -> buf_add b p
  | Hole (g, h) -> hole_error g h

(* [W'dV], the value unsigned. *)
let add_lit b v =
  buf_int b (Bitvec.width v);
  buf_add b "'d";
  let x = Bitvec.to_int64 v in
  if Int64.compare x 0L >= 0 && Int64.compare x (Int64.of_int max_int) <= 0
  then buf_int b (Int64.to_int x)
  else buf_add b (Printf.sprintf "%Lu" x)

let add_atom b = function Port p -> add_wire b p | Lit v -> add_lit b v

(* Raises what writing the atom would, before anything is written: the
   order in which a hole is reported stays that of evaluating the
   operands right to left. *)
let check_atom = function Port (Hole (g, h)) -> hole_error g h | _ -> ()

let cmp_sv = function
  | Eq -> " == "
  | Neq -> " != "
  | Lt -> " < "
  | Gt -> " > "
  | Le -> " <= "
  | Ge -> " >= "

let rec guard_sv b = function
  | True -> buf_add b "1'd1"
  | Atom a ->
      check_atom a;
      Buffer.add_char b '(';
      add_atom b a;
      buf_add b " != 0)"
  | Cmp (op, x, y) ->
      check_atom y;
      check_atom x;
      Buffer.add_char b '(';
      add_atom b x;
      buf_add b (cmp_sv op);
      add_atom b y;
      Buffer.add_char b ')'
  | And (x, y) -> binary b x " & " y
  | Or (x, y) -> binary b x " | " y
  | Not x ->
      buf_add b "(~";
      guard_sv b x;
      Buffer.add_char b ')'

and binary b x op y =
  Buffer.add_char b '(';
  guard_sv b x;
  buf_add b op;
  guard_sv b y;
  Buffer.add_char b ')'

(* ------------------------------------------------------------------ *)
(* Primitive module library                                            *)
(* ------------------------------------------------------------------ *)

let binop_module name op =
  Printf.sprintf
    {|module %s #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] left,
  input  logic [WIDTH-1:0] right,
  output logic [WIDTH-1:0] out
);
  assign out = left %s right;
endmodule
|}
    name op

let cmp_module name op =
  Printf.sprintf
    {|module %s #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] left,
  input  logic [WIDTH-1:0] right,
  output logic out
);
  assign out = left %s right;
endmodule
|}
    name op

let primitive_module = function
  | "std_reg" ->
      Some
        {|module std_reg #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] in,
  input  logic write_en,
  input  logic clk,
  output logic [WIDTH-1:0] out,
  output logic done
);
  always_ff @(posedge clk) begin
    if (write_en) begin
      out <= in;
      done <= 1'd1;
    end else done <= 1'd0;
  end
endmodule
|}
  | "std_const" ->
      Some
        {|module std_const #(parameter WIDTH = 32, parameter VALUE = 0) (
  output logic [WIDTH-1:0] out
);
  assign out = VALUE;
endmodule
|}
  | "std_wire" ->
      Some
        {|module std_wire #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] in,
  output logic [WIDTH-1:0] out
);
  assign out = in;
endmodule
|}
  | "std_slice" ->
      Some
        {|module std_slice #(parameter IN_WIDTH = 32, parameter OUT_WIDTH = 32) (
  input  logic [IN_WIDTH-1:0] in,
  output logic [OUT_WIDTH-1:0] out
);
  assign out = in[OUT_WIDTH-1:0];
endmodule
|}
  | "std_pad" ->
      Some
        {|module std_pad #(parameter IN_WIDTH = 32, parameter OUT_WIDTH = 32) (
  input  logic [IN_WIDTH-1:0] in,
  output logic [OUT_WIDTH-1:0] out
);
  assign out = {{(OUT_WIDTH-IN_WIDTH){1'b0}}, in};
endmodule
|}
  | "std_add" -> Some (binop_module "std_add" "+")
  | "std_sub" -> Some (binop_module "std_sub" "-")
  | "std_and" -> Some (binop_module "std_and" "&")
  | "std_or" -> Some (binop_module "std_or" "|")
  | "std_xor" -> Some (binop_module "std_xor" "^")
  | "std_lsh" -> Some (binop_module "std_lsh" "<<")
  | "std_rsh" -> Some (binop_module "std_rsh" ">>")
  | "std_mult" -> Some (binop_module "std_mult" "*")
  | "std_not" ->
      Some
        {|module std_not #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] in,
  output logic [WIDTH-1:0] out
);
  assign out = ~in;
endmodule
|}
  | "std_lt" -> Some (cmp_module "std_lt" "<")
  | "std_gt" -> Some (cmp_module "std_gt" ">")
  | "std_eq" -> Some (cmp_module "std_eq" "==")
  | "std_neq" -> Some (cmp_module "std_neq" "!=")
  | "std_le" -> Some (cmp_module "std_le" "<=")
  | "std_ge" -> Some (cmp_module "std_ge" ">=")
  | "std_mult_pipe" ->
      Some
        (Printf.sprintf
           {|module std_mult_pipe #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] left,
  input  logic [WIDTH-1:0] right,
  input  logic go,
  input  logic clk,
  output logic [WIDTH-1:0] out,
  output logic done
);
  logic [%d:0] counter;
  always_ff @(posedge clk) begin
    if (!go) begin counter <= 0; done <= 1'd0; end
    else if (done) begin done <= 1'd0; counter <= 0; end
    else if (counter == %d) begin
      out <= left * right; done <= 1'd1; counter <= 0;
    end else counter <= counter + 1;
  end
endmodule
|}
           3 (Prims.mult_latency - 1))
  | "std_div_pipe" ->
      Some
        (Printf.sprintf
           {|module std_div_pipe #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] left,
  input  logic [WIDTH-1:0] right,
  input  logic go,
  input  logic clk,
  output logic [WIDTH-1:0] out_quotient,
  output logic [WIDTH-1:0] out_remainder,
  output logic done
);
  logic [7:0] counter;
  always_ff @(posedge clk) begin
    if (!go) begin counter <= 0; done <= 1'd0; end
    else if (done) begin done <= 1'd0; counter <= 0; end
    else if (counter == %d) begin
      out_quotient <= (right == 0) ? '1 : left / right;
      out_remainder <= (right == 0) ? left : left %% right;
      done <= 1'd1; counter <= 0;
    end else counter <= counter + 1;
  end
endmodule
|}
           (Prims.div_latency - 1))
  | "std_sqrt" ->
      Some
        {|module std_sqrt #(parameter WIDTH = 32) (
  input  logic [WIDTH-1:0] in,
  input  logic go,
  input  logic clk,
  output logic [WIDTH-1:0] out,
  output logic done
);
  // Behavioural model with the data-dependent latency of an iterative
  // square-root unit: one cycle per two significant bits of the operand,
  // at least two cycles — the same schedule the simulator's model uses.
  // acc enters edge k holding in >> 2(k-1); done fires at the first edge
  // k >= 2 with (acc >> 2) == 0, i.e. after max(2, ceil(bits(in)/2)) edges.
  logic running;
  logic [WIDTH-1:0] acc;
  always_ff @(posedge clk) begin
    if (!go) begin running <= 1'd0; done <= 1'd0; end
    else if (done) begin done <= 1'd0; running <= 1'd0; end
    else if (!running) begin running <= 1'd1; acc <= in >> 2; end
    else if (acc >> 2 == 0) begin
      out <= $sqrt(in); done <= 1'd1; running <= 1'd0;
    end else acc <= acc >> 2;
  end
endmodule
|}
  | "std_mem_d1" ->
      Some
        {|module std_mem_d1 #(parameter WIDTH = 32, parameter SIZE = 16, parameter IDX_SIZE = 4) (
  input  logic [IDX_SIZE-1:0] addr0,
  input  logic [WIDTH-1:0] write_data,
  input  logic write_en,
  input  logic clk,
  output logic [WIDTH-1:0] read_data,
  output logic done
);
  logic [WIDTH-1:0] mem [SIZE-1:0];
  assign read_data = mem[addr0];
  always_ff @(posedge clk) begin
    if (write_en) begin mem[addr0] <= write_data; done <= 1'd1; end
    else done <= 1'd0;
  end
endmodule
|}
  | "std_mem_d2" ->
      Some
        {|module std_mem_d2 #(parameter WIDTH = 32, parameter D0_SIZE = 4, parameter D1_SIZE = 4,
                    parameter D0_IDX_SIZE = 2, parameter D1_IDX_SIZE = 2) (
  input  logic [D0_IDX_SIZE-1:0] addr0,
  input  logic [D1_IDX_SIZE-1:0] addr1,
  input  logic [WIDTH-1:0] write_data,
  input  logic write_en,
  input  logic clk,
  output logic [WIDTH-1:0] read_data,
  output logic done
);
  logic [WIDTH-1:0] mem [D0_SIZE*D1_SIZE-1:0];
  assign read_data = mem[addr0 * D1_SIZE + addr1];
  always_ff @(posedge clk) begin
    if (write_en) begin mem[addr0 * D1_SIZE + addr1] <= write_data; done <= 1'd1; end
    else done <= 1'd0;
  end
endmodule
|}
  | _ -> None

(* [ #(.P(V), ...)] of a primitive's parameters, nothing without any. *)
let add_prim_params b name params =
  match List.combine (Prims.info name).Prims.param_names params with
  | [] -> ()
  | pairs ->
      buf_add b " #(";
      List.iteri
        (fun i (p, v) ->
          if i > 0 then buf_add b ", ";
          Buffer.add_char b '.';
          buf_add b p;
          Buffer.add_char b '(';
          buf_int b v;
          Buffer.add_char b ')')
        pairs;
      Buffer.add_char b ')'

let prim_is_clocked name =
  match Prims.find name with
  | Some info -> info.Prims.kind <> Prims.Combinational
  | None -> false

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

let check_component comp =
  if comp.groups <> [] || comp.control <> Empty then
    raise
      (Not_lowered
         (Printf.sprintf
            "component %s still has groups or control; run the compiler \
             pipeline before emitting Verilog"
            comp.comp_name))

(* Appends the module to [b], which may already hold other modules. *)
let emit_component_into b ctx comp =
  check_component comp;
  buf_add b "module ";
  buf_add b comp.comp_name;
  buf_add b " (\n";
  let port_decl dir pd =
    buf_add b "  ";
    buf_add b dir;
    buf_add b " logic [";
    buf_int b pd.pd_width;
    buf_add b "-1:0] ";
    buf_add b pd.pd_name
  in
  List.iter
    (fun pd ->
      port_decl "input " pd;
      buf_add b ",\n")
    comp.inputs;
  buf_add b "  input  logic clk";
  List.iter
    (fun pd ->
      buf_add b ",\n";
      port_decl "output" pd)
    comp.outputs;
  buf_add b "\n);\n";
  let ports = Ports.create ctx comp in
  let cells =
    List.map (fun c -> (c, Ports.proto_ports ports c.cell_proto)) comp.cells
  in
  (* Wires for every cell port. *)
  List.iter
    (fun (c, cports) ->
      List.iter
        (fun (p, w, _) ->
          buf_add b "  logic [";
          buf_int b w;
          buf_add b "-1:0] ";
          add_cell_wire b c.cell_name p;
          buf_add b ";\n")
        cports)
    cells;
  (* Instantiate cells. *)
  List.iter
    (fun (c, cports) ->
      let connections clocked =
        List.iteri
          (fun i (p, _, _) ->
            if i > 0 then buf_add b ", ";
            Buffer.add_char b '.';
            buf_add b p;
            Buffer.add_char b '(';
            add_cell_wire b c.cell_name p;
            Buffer.add_char b ')')
          cports;
        if clocked then
          buf_add b (match cports with [] -> ".clk(clk)" | _ -> ", .clk(clk)")
      in
      buf_add b "  ";
      (match c.cell_proto with
      | Prim (name, params) ->
          buf_add b name;
          add_prim_params b name params;
          Buffer.add_char b ' ';
          buf_add b c.cell_name;
          buf_add b " (";
          connections (prim_is_clocked name)
      | Comp name ->
          buf_add b name;
          Buffer.add_char b ' ';
          buf_add b c.cell_name;
          buf_add b " (";
          connections true);
      buf_add b ");\n")
    cells;
  (* Guarded drivers per destination, destinations in first-appearance
     order, each list consed newest first. Each assignment is resolved
     whole, in [Sim.create]'s order, so that a source or guard port
     that does not resolve raises its error instead of naming a wire
     that nothing declares. *)
  let order = ref [] in
  let drivers = Array.make (Ports.count ports) [] in
  List.iter
    (fun a ->
      let d = Ports.resolve_dst ports a in
      (match drivers.(d) with [] -> order := d :: !order | _ -> ());
      drivers.(d) <- (a.guard, a.src) :: drivers.(d))
    comp.continuous;
  let add_zero w =
    buf_int b w;
    buf_add b "'d0"
  in
  (* A port's [?:] chain, first driver outermost. It ends at the first
     unconditional driver, or at zero. *)
  let rec chain d = function
    | [] -> add_zero (Ports.width_of_id ports d)
    | (True, src) :: _ -> add_atom b src
    | (g, src) :: rest ->
        check_atom src;
        guard_sv b g;
        buf_add b " ? ";
        add_atom b src;
        buf_add b " : ";
        chain d rest
  in
  List.iter
    (fun d ->
      buf_add b "  assign ";
      add_wire b (Ports.port ports d);
      buf_add b " = ";
      chain d (List.rev drivers.(d));
      buf_add b ";\n")
    (List.rev !order);
  (* Undriven cell inputs default to zero so the netlist is closed. The
     cells' ports are numbered in cell order, each cell's in prototype
     order, so walking the ids visits them as the declarations do, with
     no lookup. *)
  for d = 0 to Ports.count ports - 1 do
    match (Ports.port ports d, drivers.(d)) with
    | Cell_port (c, p), [] when Ports.direction_of_id ports d = Input ->
        buf_add b "  assign ";
        add_cell_wire b c p;
        buf_add b " = ";
        add_zero (Ports.width_of_id ports d);
        buf_add b ";\n"
    | _ -> ()
  done;
  buf_add b "endmodule\n"

let used_primitives ctx =
  let used = Hashtbl.create 16 in
  let rec visit comp =
    List.iter
      (fun c ->
        match c.cell_proto with
        | Prim (name, _) -> Hashtbl.replace used name ()
        | Comp name -> visit (find_component ctx name))
      comp.cells
  in
  List.iter (fun c -> if c.is_extern = None then visit c) ctx.components;
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) used [])

let primitive_library ctx =
  String.concat "\n"
    (List.filter_map primitive_module (used_primitives ctx))

(* The components that become modules, in emission order: the entrypoint
   last. *)
let modules ctx =
  let others, entries =
    List.partition
      (fun c -> not (String.equal c.comp_name ctx.entrypoint))
      ctx.components
  in
  List.filter (fun c -> c.is_extern = None) (others @ entries)

let check_lowered ctx = List.iter check_component (modules ctx)

let emit ctx =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "emit" @@ fun () ->
  (* Sized from the program, about 90 bytes per assignment and cell, so
     that a large design's buffer is not copied at every doubling. *)
  let b =
    Buffer.create
      (List.fold_left
         (fun n c -> n + (96 * (List.length c.continuous + List.length c.cells)))
         16384 ctx.components)
  in
  buf_add b "// Generated by the Calyx (OCaml) compiler.\n";
  List.iter
    (fun c ->
      match c.is_extern with
      | Some path ->
          buf_add b (Printf.sprintf "// black box: %s from %s\n" c.comp_name path)
      | None -> ())
    ctx.components;
  buf_add b (primitive_library ctx);
  buf_add b "\n";
  List.iter
    (fun c ->
      emit_component_into b ctx c;
      buf_add b "\n")
    (modules ctx);
  Buffer.contents b

(* Non-blank lines, counted in one scan: a line is blank when it holds
   only spaces, tabs, carriage returns and form feeds. *)
let loc text =
  let count = ref 0 and blank = ref true in
  for i = 0 to String.length text - 1 do
    match String.unsafe_get text i with
    | '\n' ->
        if not !blank then incr count;
        blank := true
    | ' ' | '\t' | '\r' | '\012' -> ()
    | _ -> blank := false
  done;
  if not !blank then incr count;
  !count
