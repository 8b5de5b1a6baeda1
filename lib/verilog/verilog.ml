open Calyx
open Calyx.Ir

exception Not_lowered of string

let buf_add = Buffer.add_string

(* ------------------------------------------------------------------ *)
(* Names and expressions                                               *)
(* ------------------------------------------------------------------ *)

let wire_name = function
  | Cell_port (c, p) -> c ^ "_" ^ p
  | This p -> p
  | Hole (g, h) ->
      raise (Not_lowered (Printf.sprintf "hole %s[%s] survived lowering" g h))

let lit_sv v = Printf.sprintf "%d'd%Lu" (Bitvec.width v) (Bitvec.to_int64 v)

let atom_sv = function
  | Port p -> wire_name p
  | Lit v -> lit_sv v

let cmp_sv = function
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="

(* Writes the guard straight into [b]: building it as a string would copy
   each subterm once per level of nesting above it. *)
let rec guard_sv b = function
  | True -> buf_add b "1'd1"
  | Atom a -> Printf.bprintf b "(%s != 0)" (atom_sv a)
  | Cmp (op, x, y) ->
      Printf.bprintf b "(%s %s %s)" (atom_sv x) (cmp_sv op) (atom_sv y)
  | And (x, y) -> Printf.bprintf b "(%a & %a)" guard_sv x guard_sv y
  | Or (x, y) -> Printf.bprintf b "(%a | %a)" guard_sv x guard_sv y
  | Not x -> Printf.bprintf b "(~%a)" guard_sv x

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

let prim_params_sv name params =
  let info = Prims.info name in
  let pairs = List.combine info.Prims.param_names params in
  String.concat ", "
    (List.map (fun (p, v) -> Printf.sprintf ".%s(%d)" p v) pairs)

let prim_is_clocked name =
  match Prims.find name with
  | Some info -> not info.Prims.combinational
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
  let port_decl pd dir =
    Printf.sprintf "  %s logic [%d-1:0] %s" dir pd.pd_width pd.pd_name
  in
  let ports =
    List.map (fun pd -> port_decl pd "input ") comp.inputs
    @ [ "  input  logic clk" ]
    @ List.map (fun pd -> port_decl pd "output") comp.outputs
  in
  buf_add b (Printf.sprintf "module %s (\n%s\n);\n" comp.comp_name
               (String.concat ",\n" ports));
  let ports = Ports.create ctx comp in
  let cells =
    List.map (fun c -> (c, Ports.proto_ports ports c.cell_proto)) comp.cells
  in
  (* Wires for every cell port. *)
  List.iter
    (fun (c, cports) ->
      List.iter
        (fun (p, w, _) ->
          buf_add b
            (Printf.sprintf "  logic [%d-1:0] %s;\n" w
               (wire_name (Cell_port (c.cell_name, p)))))
        cports)
    cells;
  (* Instantiate cells. *)
  List.iter
    (fun (c, cports) ->
      let connections clocked =
        String.concat ", "
          ((List.map
              (fun (p, _, _) ->
                Printf.sprintf ".%s(%s)" p (wire_name (Cell_port (c.cell_name, p))))
              cports)
          @ if clocked then [ ".clk(clk)" ] else [])
      in
      match c.cell_proto with
      | Prim (name, params) ->
          let params_sv = prim_params_sv name params in
          let header =
            if String.equal params_sv "" then name
            else Printf.sprintf "%s #(%s)" name params_sv
          in
          buf_add b
            (Printf.sprintf "  %s %s (%s);\n" header c.cell_name
               (connections (prim_is_clocked name)))
      | Comp name ->
          buf_add b
            (Printf.sprintf "  %s %s (%s);\n" name c.cell_name
               (connections true)))
    cells;
  (* Guarded drivers per destination, destinations in first-appearance
     order, each list consed newest first. *)
  let order = ref [] in
  let drivers = Array.make (Ports.count ports) [] in
  List.iter
    (fun a ->
      let d = Ports.id ports a.dst in
      if drivers.(d) = [] then order := d :: !order;
      drivers.(d) <- (a.guard, a.src) :: drivers.(d))
    comp.continuous;
  (* A port's [?:] chain goes straight into the buffer, first driver
     outermost. It ends at the first unconditional driver, or at zero. *)
  let rec chain d = function
    | [] -> Printf.bprintf b "%d'd0" (Ports.width_of_id ports d)
    | (True, src) :: _ -> buf_add b (atom_sv src)
    | (g, src) :: rest ->
        Printf.bprintf b "%a ? %s : " guard_sv g (atom_sv src);
        chain d rest
  in
  List.iter
    (fun d ->
      Printf.bprintf b "  assign %s = " (wire_name (Ports.port ports d));
      chain d (List.rev drivers.(d));
      buf_add b ";\n")
    (List.rev !order);
  (* Undriven cell inputs default to zero so the netlist is closed. *)
  List.iter
    (fun (c, cports) ->
      List.iter
        (fun (p, w, dir) ->
          let pr = Cell_port (c.cell_name, p) in
          if dir = Input && drivers.(Ports.id ports pr) = [] then
            buf_add b
              (Printf.sprintf "  assign %s = %d'd0;\n" (wire_name pr) w))
        cports)
    cells;
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
  let b = Buffer.create 16384 in
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

let loc text =
  List.length
    (List.filter
       (fun l -> String.trim l <> "")
       (String.split_on_char '\n' text))
