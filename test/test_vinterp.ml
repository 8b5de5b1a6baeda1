(* Translation validation: the emitted SystemVerilog, executed by the RTL
   interpreter (Calyx_verilog.Vinterp), must agree exactly with the
   cycle-accurate simulator on every program the compiler can produce —
   same cycle count, same final value in every register, same final
   contents of every memory.

   The corpus: every example source, all PolyBench kernels (including the
   div/sqrt ones, which exercise the data-dependent-latency pipes),
   systolic arrays, and randomly generated programs. Random failures
   shrink to minimized counterexample programs via Calyx.Fuzz_gen. *)

open Calyx
module V = Calyx_verilog.Vinterp
module Validate = Calyx_verilog.Validate

let example file =
  List.find Sys.file_exists
    [ "../examples/sources/" ^ file; "examples/sources/" ^ file ]

(* ------------------------------------------------------------------ *)
(* RTL interpreter unit tests on handwritten SystemVerilog             *)
(* ------------------------------------------------------------------ *)

(* Drive a purely combinational module: set inputs, settle once (via
   [cycle]; there is nothing to commit), read outputs. *)
let comb src ins outs =
  let d = V.load ~top:"main" src in
  List.iter (fun (n, v) -> V.set_input d n (Bitvec.of_int ~width:64 v)) ins;
  V.cycle d;
  List.map (fun n -> Bitvec.to_int (V.read_output d n)) outs

let test_comb_ops () =
  let src =
    {|
module main(
  input logic [7:0] a,
  input logic [7:0] b,
  output logic [7:0] sum,
  output logic [7:0] dif,
  output logic [7:0] shr,
  output logic lt,
  output logic eq,
  output logic [15:0] cat,
  output logic [7:0] mux,
  output logic [7:0] inv
);
assign sum = a + b;
assign dif = a - b;
assign shr = a >> b;
assign lt = a < b;
assign eq = a == b;
assign cat = {a, b};
assign mux = a < b ? a : b;
assign inv = ~a;
endmodule
|}
  in
  let got =
    comb src
      [ ("a", 200); ("b", 70) ]
      [ "sum"; "dif"; "shr"; "lt"; "eq"; "cat"; "mux"; "inv" ]
  in
  (* Widths are self-determined at 8 bits: sum wraps, dif wraps, shift by
     70 flushes to zero, concat is 16 bits, ~ stays in width. *)
  Alcotest.(check (list int))
    "combinational operator semantics"
    [ 14; 130; 0; 0; 0; (200 * 256) + 70; 70; 55 ]
    got

let test_comb_divmod () =
  let src =
    {|
module main(
  input logic [7:0] a,
  input logic [7:0] b,
  output logic [7:0] quo,
  output logic [7:0] rem
);
assign quo = a / b;
assign rem = a % b;
endmodule
|}
  in
  Alcotest.(check (list int))
    "division" [ 14; 2 ]
    (comb src [ ("a", 44); ("b", 3) ] [ "quo"; "rem" ]);
  (* Division by zero: all-ones quotient, dividend remainder — matching
     Bitvec (and thus the simulator's primitives). *)
  Alcotest.(check (list int))
    "division by zero" [ 255; 44 ]
    (comb src [ ("a", 44); ("b", 0) ] [ "quo"; "rem" ])

let test_nonblocking_commit () =
  (* x <= y; y <= x + 1 must read pre-edge values: a swap chain, not a
     ripple. From zero: (0,1) (1,1) (1,2) (2,2) ... *)
  let src =
    {|
module main(input logic clk, output logic [7:0] x, output logic [7:0] y);
always_ff @(posedge clk) begin
  x <= y;
  y <= x + 8'd1;
end
endmodule
|}
  in
  let d = V.load ~top:"main" src in
  let shot () =
    (Bitvec.to_int (V.read_output d "x"), Bitvec.to_int (V.read_output d "y"))
  in
  V.cycle d;
  Alcotest.(check (pair int int)) "edge 1" (0, 1) (shot ());
  V.cycle d;
  Alcotest.(check (pair int int)) "edge 2" (1, 1) (shot ());
  V.cycle d;
  Alcotest.(check (pair int int)) "edge 3" (1, 2) (shot ())

let test_ff_counter () =
  let src =
    {|
module main(input logic clk, output logic [3:0] n);
always_ff @(posedge clk) n <= n + 4'd1;
endmodule
|}
  in
  let d = V.load ~top:"main" src in
  for _ = 1 to 20 do
    V.cycle d
  done;
  (* 20 mod 16: the target width truncates the committed value. *)
  Alcotest.(check int) "counter wraps at width" 4
    (Bitvec.to_int (V.read_output d "n"))

let test_unstable () =
  let src = {|
module main(output logic x);
assign x = ~x;
endmodule
|} in
  let d = V.load ~top:"main" src in
  Alcotest.check_raises "combinational cycle diverges"
    (V.Unstable { cycle = 0; message = "combinational settle did not converge" })
    (fun () -> V.cycle d)

(* Same-width net-to-net copies are aliases, not processes: a chain through
   two levels of hierarchy carries the source after one settle, and until
   then the target keeps the value of the last settle. *)
let test_alias_chain () =
  let src =
    {|
module leaf(input logic [7:0] i, output logic [7:0] o);
assign o = i;
endmodule
module mid(input logic [7:0] i, output logic [7:0] o);
leaf l (.i(i), .o(o));
endmodule
module main(input logic [7:0] x, output logic [7:0] y);
mid m (.i(x), .o(y));
endmodule
|}
  in
  let d = V.load ~top:"main" src in
  Alcotest.(check int) "no copy process left" 0 (snd (V.stats d));
  let y () = Bitvec.to_int (V.read_output d "y") in
  V.set_input d "x" (Bitvec.of_int ~width:8 42);
  V.cycle d;
  Alcotest.(check int) "source after one settle" 42 (y ());
  V.set_input d "x" (Bitvec.of_int ~width:8 7);
  Alcotest.(check int) "unchanged before the settle" 42 (y ());
  V.cycle d;
  Alcotest.(check int) "and after it" 7 (y ())

let test_copy_cycles () =
  let d =
    V.load ~top:"main"
      {|
module main(output logic [3:0] a, output logic [3:0] b);
assign a = b;
assign b = a;
endmodule
|}
  in
  V.cycle d;
  Alcotest.(check (pair int int)) "a copy loop settles to zero" (0, 0)
    (Bitvec.to_int (V.read_output d "a"), Bitvec.to_int (V.read_output d "b"));
  let d =
    V.load ~top:"main"
      {|
module main(output logic a, output logic b);
assign a = ~b;
assign b = a;
endmodule
|}
  in
  Alcotest.check_raises "an oscillator through an alias diverges"
    (V.Unstable { cycle = 0; message = "combinational settle did not converge" })
    (fun () -> V.cycle d)

let test_double_driver () =
  let src =
    {|
module main(output logic [3:0] x);
assign x = 4'd1;
assign x = 4'd2;
endmodule
|}
  in
  let multiple_drivers what src =
    Alcotest.(check bool) what true
      (match V.load ~top:"main" src with
      | exception V.Elab_error msg ->
          String.starts_with ~prefix:"multiple drivers" msg
      | _ -> false)
  in
  multiple_drivers "double driver rejected" src;
  (* Two always_ff blocks on one net or one memory: the later block must
     not silently win. *)
  multiple_drivers "two always_ff blocks on one net"
    {|
module main(input logic clk, output logic [3:0] x);
always_ff @(posedge clk) x <= 4'd1;
always_ff @(posedge clk) x <= 4'd2;
endmodule
|};
  multiple_drivers "two always_ff blocks on one memory"
    {|
module main(input logic clk, input logic [1:0] a);
logic [7:0] mem[3:0];
always_ff @(posedge clk) mem[a] <= 8'd1;
always_ff @(posedge clk) mem[0] <= 8'd2;
endmodule
|}

(* Every way a value changes outside settle must reach the processes and
   always_ff blocks that read it on the next cycle: a commit write (net or
   memory element), [set_input], [write_register] and [write_memory]. *)
let ram_src =
  {|
module ram(
  input logic clk,
  input logic [1:0] addr,
  input logic [7:0] write_data,
  input logic write_en,
  output logic [7:0] read_data
);
logic [7:0] mem[3:0];
assign read_data = mem[addr];
always_ff @(posedge clk) if (write_en) mem[addr] <= write_data;
endmodule
module reg8(
  input logic clk,
  input logic [7:0] in,
  input logic write_en,
  output logic [7:0] out
);
always_ff @(posedge clk) if (write_en) out <= in;
endmodule
module main(
  input logic clk,
  input logic [1:0] addr,
  input logic [7:0] data,
  input logic we,
  input logic [7:0] in,
  input logic en,
  output logic [7:0] rd,
  output logic [7:0] q,
  output logic [7:0] q1
);
ram m (.clk(clk), .addr(addr), .write_data(data), .write_en(we), .read_data(rd));
reg8 r (.clk(clk), .in(in), .write_en(en), .out(q));
assign q1 = q + 8'd1;
endmodule
|}

let test_memory_readback () =
  let d = V.load ~top:"main" ram_src in
  let set n v = V.set_input d n (Bitvec.of_int ~width:8 v) in
  let out n = Bitvec.to_int (V.read_output d n) in
  set "addr" 2;
  set "data" 77;
  set "we" 1;
  V.cycle d;
  Alcotest.(check int) "before the write" 0 (out "rd");
  set "we" 0;
  V.cycle d;
  Alcotest.(check int) "element written by always_ff reads back" 77 (out "rd");
  set "addr" 1;
  V.cycle d;
  Alcotest.(check int) "other element untouched" 0 (out "rd");
  set "addr" 2;
  set "data" 9;
  set "we" 1;
  V.cycle d;
  set "we" 0;
  V.cycle d;
  Alcotest.(check int) "rewritten element reads back" 9 (out "rd")

let test_pokes_between_cycles () =
  let d = V.load ~top:"main" ram_src in
  let set n v = V.set_input d n (Bitvec.of_int ~width:8 v) in
  let out n = Bitvec.to_int (V.read_output d n) in
  let reg () = Bitvec.to_int (V.read_register d "r") in
  V.cycle d;
  V.cycle d;
  (* set_input: the settle reader and the always_ff reader both see it. *)
  set "in" 5;
  set "en" 1;
  V.cycle d;
  Alcotest.(check int) "set_input reaches always_ff" 5 (reg ());
  V.cycle d;
  Alcotest.(check (pair int int)) "and the settle readers" (5, 6)
    (out "q", out "q1");
  (* write_register: the settle readers see the poked value, and the
     block that drives the register runs again and restores its input. *)
  V.write_register d "r" (Bitvec.of_int ~width:8 42);
  V.cycle d;
  Alcotest.(check (pair int int)) "write_register reaches settle" (42, 43)
    (out "q", out "q1");
  Alcotest.(check int) "write_register re-runs its driver" 5 (reg ());
  set "en" 0;
  V.cycle d;
  V.write_register d "r" (Bitvec.of_int ~width:8 42);
  V.cycle d;
  V.cycle d;
  Alcotest.(check (pair int int)) "a disabled register keeps the poke" (42, 43)
    (out "q", out "q1");
  (* write_memory: the combinational read port sees the new contents. *)
  set "addr" 3;
  V.cycle d;
  Alcotest.(check int) "memory starts at zero" 0 (out "rd");
  V.write_memory d "m"
    (Array.map (Bitvec.of_int ~width:8) [| 10; 11; 12; 13 |]);
  V.cycle d;
  Alcotest.(check int) "write_memory reaches settle" 13 (out "rd");
  Alcotest.(check (array int)) "and reads back" [| 10; 11; 12; 13 |]
    (Array.map Bitvec.to_int (V.read_memory d "m"))

(* A memory declared with a negative length is an elaboration error, not
   an escaping [Invalid_argument]. *)
let test_negative_array () =
  Alcotest.(check string) "negative array length"
    "array mm has negative length -2"
    (match
       V.load ~top:"main"
         "module main(input logic clk);\nlogic [7:0] mm[0-3:0];\nendmodule\n"
     with
    | exception V.Elab_error msg -> msg
    | _ -> "loaded")

(* Two instances of one name share its dotted namespace: a register or
   memory that only the second holds is still reachable by its path. *)
(* One scope declares each instance name once: a repeated name is
   rejected, whatever the two instances hold, at the top and below it. *)
let test_repeated_instance_name () =
  let elab_error src =
    match V.load ~top:"main" src with
    | exception V.Elab_error msg -> msg
    | _ -> Alcotest.failf "expected an elaboration error: %S" src
  in
  Alcotest.(check string) "at the top" "duplicate instance u"
    (elab_error
       {|
module a(input logic [7:0] x);
endmodule
module b(input logic clk, input logic [7:0] in);
logic [7:0] out;
logic [7:0] mem[1:0];
always_ff @(posedge clk) out <= in;
always_ff @(posedge clk) mem[1] <= in;
endmodule
module main(input logic clk, input logic go, output logic done);
a u (.x(8'd1));
b u (.clk(clk), .in(8'd5));
assign done = go;
endmodule
|});
  Alcotest.(check string) "in a child" "duplicate instance c.g"
    (elab_error
       {|
module a(input logic x);
endmodule
module p(input logic x);
a g (.x(x));
a g (.x(x));
endmodule
module main(input logic clk, input logic go, output logic done);
p c (.x(go));
assign done = go;
endmodule
|})

let test_parse_error () =
  Alcotest.(check bool) "garbage rejected" true
    (match V.load ~top:"main" "module main(; endmodule" with
    | exception V.Parse_error _ -> true
    | _ -> false)

(* Every parse-error message, pinned byte for byte, each with the line
   of the token it reports. *)
let load_error src =
  match V.load ~top:"main" src with
  | exception V.Parse_error msg -> msg
  | _ -> Alcotest.failf "expected a parse error: %S" src

let check_errors cases =
  List.iter
    (fun (src, expected) -> Alcotest.(check string) src expected (load_error src))
    cases

let test_parse_error_messages () =
  let m = "module main(input logic a);\n" in
  check_errors
    [
      ( "module main(; endmodule",
        "line 1: expected port direction, found punctuation" );
      ( "module main(inout logic a);\nendmodule",
        "line 1: expected port direction, found identifier inout" );
      ("modul main();", "line 1: expected module, found identifier modul");
      (m ^ "assign b = 8'dz;\nendmodule", "line 2: expected digits");
      (m ^ "assign b = 8'h;\nendmodule", "line 2: expected digits");
      (m ^ "assign b = 8'", "line 2: truncated literal");
      (m ^ "assign b = 8'o7;\nendmodule", "line 2: unsupported base 'o'");
      ( m ^ "assign b = 70'd1;\nendmodule",
        "line 2: literal width 70 out of range" );
      (m ^ "assign b = 0'd0;\nendmodule", "line 2: literal width 0 out of range");
      (m ^ "assign b = 'x;\nendmodule", "line 2: unsupported unsized literal");
      (m ^ "assign b = `a;\nendmodule", "line 2: unexpected character '`'");
      ( m ^ "assign b = a\n+;\nendmodule",
        "line 4: unexpected punctuation in expression" );
      ( m ^ "assign b = $foo;\nendmodule",
        "line 2: unexpected $foo in expression" );
      ( m ^ "assign b = a\n;\n;\nendmodule",
        "line 4: unexpected punctuation in module body" );
      ( m ^ "always_ff @(posedge clk) begin\n b + a;\nend\nendmodule",
        "line 3: expected assignment, found punctuation" );
      ( m ^ "always_ff @(negedge clk) b <= a;\nendmodule",
        "line 2: expected posedge, found identifier negedge" );
      ( "module main(input logic a)\nendmodule",
        "line 2: expected ;, found identifier endmodule" );
      ( "module main(input logic [7:0 a);\nendmodule",
        "line 1: expected ], found identifier a" );
      ( m ^ "assign b = $sqrt a;\nendmodule",
        "line 2: expected (, found identifier a" );
      (m ^ "assign b = {a, 8'd1;\nendmodule", "line 2: expected }, found punctuation");
      (m ^ "assign b = '1 '1;\nendmodule", "line 2: expected ;, found '1");
      (m ^ "assign b = a 5;\nendmodule", "line 2: expected ;, found number");
      (m ^ "assign = a;\nendmodule", "line 2: expected identifier, found punctuation");
      (* A lexical error after a parse error is the one reported. *)
      ( m ^ "assign b = a 5;\nassign c = `d;\nendmodule",
        "line 3: unexpected character '`'" );
      (m ^ "assign b = ;\nassign c = 8'q1;\nendmodule", "line 3: unsupported base 'q'");
      ("modul main();\n`", "line 2: unexpected character '`'");
    ]

(* A two-character operator whose first character ends the input lexes
   as the one-character token, and the parser reports the end of input
   at its line; written without spaces, every two-character operator
   lexes as itself. *)
let test_lexer_boundaries () =
  let m = "module main(input logic a);\nassign b = a " in
  check_errors
    [
      (m ^ "<", "line 2: unexpected end of input in expression");
      (m ^ ">", "line 2: unexpected end of input in expression");
      (m ^ "=", "line 2: expected ;, found punctuation");
      (m ^ "!", "line 2: expected ;, found punctuation");
      (m ^ "<\n", "line 3: unexpected end of input in expression");
    ];
  let src =
    {|module main(
  input logic [7:0] a,
  input logic [7:0] b,
  output logic le, output logic ge, output logic eq, output logic ne,
  output logic [7:0] shl, output logic [7:0] shr, output logic lt, output logic gt
);
assign le = a<=b;
assign ge = a>=b;
assign eq = a==b;
assign ne = a!=b;
assign shl = a<<b;
assign shr = a>>b;
assign lt = a<b;
assign gt = a>b;
endmodule|}
  in
  Alcotest.(check (list int))
    "operators without spaces" [ 0; 1; 0; 1; 48; 3; 0; 1 ]
    (comb src
       [ ("a", 12); ("b", 2) ]
       [ "le"; "ge"; "eq"; "ne"; "shl"; "shr"; "lt"; "gt" ])

(* Identifiers that extend a keyword are identifiers. *)
let test_keyword_prefixes () =
  let src =
    {|module main(input logic [7:0] a, output logic [7:0] endmodule_x, output logic [7:0] end1);
logic [7:0] begin_x;
assign begin_x = a + 8'd1;
assign end1 = begin_x;
assign endmodule_x = end1 + 8'd1;
endmodule|}
  in
  Alcotest.(check (list int))
    "keyword-prefixed nets" [ 6; 7 ]
    (comb src [ ("a", 5) ] [ "end1"; "endmodule_x" ]);
  check_errors
    [
      ("module main();\nendmodule_x", "line 2: expected identifier, found end of input");
      ("module main();\nendmodule_x y", "line 2: expected (, found end of input");
      ("module main();\nend1 = 3;\nendmodule", "line 2: expected identifier, found punctuation");
    ]

(* What the emitter never writes is rejected, each with its own error:
   always_comb, unary minus, an index of a scalar net, a declaration of
   two names and a blocking assignment in always_ff (which SystemVerilog
   would run in order, not as a non-blocking write). *)
let test_outside_subset () =
  let m =
    "module main(input logic clk, input logic [7:0] a, input logic [2:0] s, \
     output logic [7:0] b);\n"
  in
  check_errors
    [
      (m ^ "always_comb b = a;\nendmodule", "line 2: expected (, found punctuation");
      (m ^ "assign b = -a;\nendmodule", "line 2: unexpected punctuation in expression");
      (m ^ "logic x, y;\nendmodule", "line 2: expected ;, found punctuation");
      ( m ^ "always_ff @(posedge clk) begin\n b = a;\nend\nendmodule",
        "line 3: expected assignment, found punctuation" );
    ];
  Alcotest.(check string) "index of a scalar net" "index of unknown array a"
    (match V.load ~top:"main" (m ^ "assign b = {7'd0, a[s]};\nendmodule") with
    | exception V.Elab_error msg -> msg
    | _ -> "loaded")

let test_hierarchy_params () =
  (* Parameterized instantiation: the child's width comes from the
     binding, and port connections drive both directions. *)
  let src =
    {|
module widen #(parameter W = 4)(input logic [W-1:0] i, output logic [2*W-1:0] o);
assign o = {{W{1'b0}}, i} * {{W{1'b0}}, i};
endmodule
module main(input logic [7:0] a, output logic [15:0] sq);
widen #(.W(8)) w (.i(a), .o(sq));
endmodule
|}
  in
  (* Widths are self-determined, so the source widens the operands to
     2W explicitly before multiplying (as the emitter does). W = 8 must
     flow from the binding: under the default W = 4, [i] would truncate
     to 4 bits and the result would differ. *)
  Alcotest.(check (list int))
    "parameter binding" [ 225 * 225 ]
    (comb src [ ("a", 225) ] [ "sq" ])

(* Nets and arrays at the top of the supported range, checked against
   Bitvec at the same width: unsigned compares with the MSB set, wrapping
   arithmetic, '1, division by zero, shifts by at least the width, selects
   and concatenations reaching the top bit, and an unsized literal (a
   64-bit operand) mixed into a narrower expression. *)
let width_src w =
  Printf.sprintf
    {|
module main #(parameter W = %d)(
  input logic clk,
  input logic [W-1:0] a,
  input logic [W-1:0] b,
  input logic [7:0] s,
  input logic [1:0] ix,
  input logic we,
  output logic lt,
  output logic ge,
  output logic ltlit,
  output logic [W-1:0] sum,
  output logic [W-1:0] dif,
  output logic [W-1:0] prod,
  output logic [W-1:0] quo,
  output logic [W-1:0] rem,
  output logic [W-1:0] ones,
  output logic [W-1:0] shl,
  output logic [W-1:0] shr,
  output logic [7:0] top,
  output logic [W-1:0] cat,
  output logic [W-1:0] lit,
  output logic [W-1:0] rd,
  output logic [W-1:0] q
);
logic [W-1:0] mem[3:0];
assign lt = a < b;
assign ge = a >= b;
assign ltlit = a < 9223372036854775807;
assign sum = a + b;
assign dif = a - b;
assign prod = a * b;
assign quo = a / b;
assign rem = a %% b;
assign ones = '1;
assign shl = a << s;
assign shr = a >> s;
assign top = a[W-1:W-8];
assign cat = {a[W-9:0], s};
assign lit = a + 9223372036854775807;
assign rd = mem[ix];
always_ff @(posedge clk) begin
  if (we) mem[ix] <= a * b;
  q <= a - b;
end
endmodule
|}
    w

let bitvec = Alcotest.testable Bitvec.pp Bitvec.equal

let test_width w () =
  let d = V.load ~top:"main" (width_src w) in
  let msb = Int64.shift_left 1L (w - 1) in
  let bv v = Bitvec.make ~width:w v in
  let max63 = 0x7FFF_FFFF_FFFF_FFFFL in
  let pairs =
    [
      (Int64.logor msb 1L, 3L);
      (5L, Int64.logor msb 7L);
      (-1L, -1L);
      (Int64.logor msb 0x1234_5678L, 0L);
      (Int64.pred msb, Int64.logor msb 0xFFL);
    ]
  in
  List.iter
    (fun (a, b) ->
      List.iter
        (fun s ->
          let a = bv a and b = bv b and s8 = Bitvec.of_int ~width:8 s in
          V.set_input d "a" a;
          V.set_input d "b" b;
          V.set_input d "s" s8;
          V.set_input d "ix" (Bitvec.of_int ~width:2 (s land 3));
          V.set_input d "we" (Bitvec.one 1);
          V.cycle d;
          V.set_input d "we" (Bitvec.zero 1);
          V.cycle d;
          let what n =
            Printf.sprintf "%d bits, a=%s b=%s s=%d: %s" w
              (Bitvec.to_string a) (Bitvec.to_string b) s n
          in
          let check n want =
            Alcotest.check bitvec (what n) want (V.read_output d n)
          in
          let s_w = Bitvec.make ~width:w (Int64.of_int s) in
          check "lt" (Bitvec.lt a b);
          check "ge" (Bitvec.ge a b);
          check "ltlit"
            (Bitvec.lt (Bitvec.zero_extend a 64) (Bitvec.make ~width:64 max63));
          check "sum" (Bitvec.add a b);
          check "dif" (Bitvec.sub a b);
          check "prod" (Bitvec.mul a b);
          check "quo" (Bitvec.div a b);
          check "rem" (Bitvec.rem a b);
          check "ones" (Bitvec.ones w);
          check "shl" (Bitvec.shift_left a s_w);
          check "shr" (Bitvec.shift_right a s_w);
          check "top"
            (Bitvec.truncate
               (Bitvec.shift_right a (Bitvec.of_int ~width:w (w - 8)))
               8);
          check "cat" (Bitvec.concat (Bitvec.truncate a (w - 8)) s8);
          check "lit" (Bitvec.add a (Bitvec.make ~width:w max63));
          check "rd" (Bitvec.mul a b);
          check "q" (Bitvec.sub a b))
        [ 0; 1; w - 2; w - 1; w; w + 1; 64; 255 ])
    pairs

(* ------------------------------------------------------------------ *)
(* Differential validation over the corpus                             *)
(* ------------------------------------------------------------------ *)

let check_ok what (r : Validate.report) =
  if not r.Validate.ok then
    Alcotest.failf "%s: %s" what
      (Format.asprintf "%a" Validate.pp_report r)

let parse_example file =
  let path = example file in
  if Filename.check_suffix path ".dahlia" then begin
    let ic = open_in path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Dahlia.To_calyx.compile (Dahlia.Parser.parse_string src)
  end
  else Parser.parse_file path

let test_examples () =
  List.iter
    (fun file ->
      let lowered = Pipelines.compile (parse_example file) in
      let r = Validate.validate lowered in
      check_ok file r;
      (* A simulator the caller has already run stands in for the
         validator's own. *)
      let sim = Calyx_sim.Sim.create lowered in
      ignore (Calyx_sim.Sim.run sim);
      let r' = Validate.validate ~simulated:sim lowered in
      check_ok (file ^ " (simulated)") r';
      Alcotest.(check (pair int int))
        (file ^ ": same cycles with ~simulated")
        (r.Validate.cycles_sim, r.Validate.cycles_rtl)
        (r'.Validate.cycles_sim, r'.Validate.cycles_rtl))
    [ "counter.futil"; "invoke.futil"; "dotprod.dahlia"; "histogram.dahlia" ]

(* The widths on either side of the simulator's native-int slots, end to
   end. At 62 bits the compiled engine runs the design; at 63 and 64 it
   hands it to the fixpoint engine, so there Prim_state's reference model
   and the emitted SystemVerilog library on the RTL interpreter are the
   two independent implementations that must agree. *)
let test_width_edges_validated () =
  List.iter
    (fun w ->
      let mask = if w = 64 then -1L else Int64.pred (Int64.shift_left 1L w) in
      let bits v = Bitvec.make ~width:w (Int64.logand v mask) in
      let ones = -1L and alt = 0x5555555555555555L in
      let lowered =
        Pipelines.compile (Parser.parse_string (Progs.width_program w))
      in
      List.iter
        (fun (a, b) ->
          let load (io : Calyx_sim.Testbench.io) =
            io.write_register "a" (bits a);
            io.write_register "b" (bits b);
            io.write_memory "m" [| bits ones; bits 0L; bits 0L; bits alt |]
          in
          check_ok
            (Printf.sprintf "%d bits, a=%Lx b=%Lx" w a b)
            (Validate.validate ~load lowered))
        [ (ones, alt); (alt, ones); (ones, ones); (Int64.lognot alt, alt) ])
    [ 62; 63; 64 ]

(* Pass-configuration sweep: the RTL must track the simulator under every
   pipeline variant, not just the default. *)
let test_example_configs () =
  let ctx = parse_example "dotprod.dahlia" in
  List.iter
    (fun (name, config) ->
      let lowered = Pipelines.compile ~config ctx in
      check_ok ("dotprod/" ^ name) (Validate.validate lowered))
    [
      ("insensitive", Pipelines.insensitive_config);
      ( "no-sharing",
        {
          Pipelines.default_config with
          Pipelines.resource_sharing = false;
          register_sharing = false;
        } );
      ("default", Pipelines.default_config);
    ]

(* The emitted RTL and the simulator agree on a kernel, and both pass its
   test bench. *)
let check_polybench ~unrolled (k : Polybench.Kernels.kernel) =
  let name = k.name ^ if unrolled then " (unrolled)" else "" in
  let prog = Polybench.Harness.program k ~unrolled in
  let tb = Polybench.Harness.testbench k prog in
  let r =
    Validate.validate ~load:tb.load
      (Pipelines.compile (Dahlia.To_calyx.compile prog))
  in
  check_ok name r;
  Alcotest.(check (list string)) (name ^ ": simulated answer") []
    (tb.check r.Validate.sim_io);
  Alcotest.(check (list string)) (name ^ ": RTL answer") []
    (tb.check r.Validate.rtl_io)

let test_polybench_all () =
  List.iter (check_polybench ~unrolled:false) Polybench.Kernels.all

let test_polybench_unrolled () =
  List.iter (check_polybench ~unrolled:true) Polybench.Kernels.unrollable

(* A lowered systolic array and a test bench for it. *)
let systolic (rows, cols, depth) =
  let d = { Systolic.rows; cols; depth; width = 32 } in
  let a = Array.init rows (fun r -> Array.init depth (fun k -> r + k + 1)) in
  let b =
    Array.init depth (fun k -> Array.init cols (fun c -> (2 * k) + c + 1))
  in
  ( Printf.sprintf "systolic %dx%dx%d" rows cols depth,
    Systolic.testbench d ~a ~b,
    Pipelines.compile (Systolic.generate d) )

let test_systolic () =
  List.iter
    (fun shape ->
      let name, (tb : Calyx_sim.Testbench.t), lowered = systolic shape in
      let r = Validate.validate ~load:tb.load lowered in
      check_ok name r;
      Alcotest.(check (list string)) (name ^ ": RTL product") []
        (tb.check r.Validate.rtl_io))
    [ (1, 1, 2); (2, 2, 3); (3, 3, 4) ]

(* Both evaluators' per-cycle loops allocate nothing once built: the
   minor-heap words each run allocates divided by the cycles it
   simulates, under the design's test bench. The compiled engine keeps
   its values in native ints, so it is held to one word per cycle on all
   30 PolyBench designs, the unrolled ones included (the most measured is
   about 0.5, on cholesky, whose square roots compute on int64s); the RTL
   interpreter to eight on lowered gemm. The bounds leave room for the
   constant work around the loop, not for a per-cycle allocation. *)
let test_alloc_per_cycle () =
  let per_cycle ~bound what run (tb : Calyx_sim.Testbench.t) io =
    tb.load io;
    let w0 = Gc.minor_words () in
    let cycles = run () in
    let words = (Gc.minor_words () -. w0) /. float_of_int cycles in
    Alcotest.(check (list string)) (what ^ ": product") [] (tb.check io);
    if words > bound then
      Alcotest.failf "%s: %.2f minor words per cycle over %d cycles" what
        words cycles
  in
  List.iter
    (fun (k : Polybench.Kernels.kernel) ->
      List.iter
        (fun unrolled ->
          let prog = Polybench.Harness.program k ~unrolled in
          let tb = Polybench.Harness.testbench k prog in
          let lowered = Pipelines.compile (Dahlia.To_calyx.compile prog) in
          let sim = Calyx_sim.Sim.create lowered in
          per_cycle ~bound:1.
            (Printf.sprintf "compiled Sim.run, %s%s" k.name
               (if unrolled then " (unrolled)" else ""))
            (fun () -> Calyx_sim.Sim.run sim)
            tb
            (Calyx_sim.Testbench.of_sim sim);
          if String.equal k.name "gemm" && not unrolled then
            let rtl =
              V.load ~top:lowered.Ir.entrypoint
                (Calyx_verilog.Verilog.emit lowered)
            in
            per_cycle ~bound:8. "Vinterp.run" (fun () -> V.run rtl) tb
              (Validate.rtl_io rtl))
        (false :: (if k.unrolled = None then [] else [ true ])))
    Polybench.Kernels.all

(* The [rtl-sim] span's [always_ff] metrics. On a design of two blocks
   they are counted by hand. On gemm they are checked against the blocks
   its source declares, counted from the text: the first edge runs every
   block, no edge runs more, and every branch of gemm's primitives writes
   one to three targets. Recording them changes nothing the run does. *)
let test_ff_metrics () =
  let module T = Calyx_telemetry in
  let rtl_sim d =
    let cycles, spans = T.Trace.collect (fun () -> V.run d) in
    match List.find_opt (fun sp -> sp.T.Trace.sp_name = "rtl-sim") spans with
    | None -> Alcotest.fail "no rtl-sim span"
    | Some sp ->
        let metric name =
          match List.assoc_opt name (T.Trace.metrics sp) with
          | Some v -> int_of_float v
          | None -> Alcotest.failf "rtl-sim has no %s metric" name
        in
        (cycles, metric "ff_blocks", metric "staged")
  in
  let src =
    {|
module main(input logic clk, input logic go, output logic done);
logic [3:0] c;
logic [3:0] k;
always_ff @(posedge clk) if (go) c <= c + 4'd1;
always_ff @(posedge clk) k <= 4'd5;
assign done = c == 4'd3;
endmodule
|}
  in
  (* Both blocks run at the first edge and, as [k] changed, at the
     second; then only the counter's, until [done] reads 1 in the fourth
     cycle. *)
  Alcotest.(check (triple int int int))
    "two blocks: cycles, blocks run, writes staged" (4, 6, 6)
    (rtl_sim (V.load ~top:"main" src));
  let k = Polybench.Kernels.find "gemm" in
  let prog = Polybench.Harness.program k ~unrolled:false in
  let tb = Polybench.Harness.testbench k prog in
  let sv =
    Calyx_verilog.Verilog.emit
      (Pipelines.compile (Dahlia.To_calyx.compile prog))
  in
  (* Lowered gemm is one flat module of primitive instances: each
     instance holds its module's blocks. *)
  let own = Hashtbl.create 16 and current = ref "" and blocks = ref 0 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | "module" :: name :: _ ->
          let name = List.hd (String.split_on_char '(' name) in
          current := name;
          Hashtbl.replace own name 0
      | "always_ff" :: _ ->
          Hashtbl.replace own !current (Hashtbl.find own !current + 1);
          if !current = "main" then incr blocks
      | m :: _ when !current = "main" && Hashtbl.mem own m ->
          blocks := !blocks + Hashtbl.find own m
      | _ -> ())
    (String.split_on_char '\n' sv);
  let nff = !blocks in
  let load () =
    let d = V.load ~top:"main" sv in
    tb.load (Validate.rtl_io d);
    d
  in
  let plain = load () in
  let plain_cycles = V.run plain in
  let traced = load () in
  let cycles, ff_blocks, staged = rtl_sim traced in
  Alcotest.(check bool) "gemm declares blocks" true (nff > 0);
  Alcotest.(check (pair int int)) "cycles and evals as untraced"
    (plain_cycles, V.evals plain) (cycles, V.evals traced);
  if ff_blocks < nff || ff_blocks > nff * cycles then
    Alcotest.failf "%d blocks run in %d cycles of %d blocks" ff_blocks cycles
      nff;
  if staged < ff_blocks || staged > 3 * ff_blocks then
    Alcotest.failf "%d writes staged by %d block runs" staged ff_blocks

(* Vinterp.load allocates in proportion to the design, not to its
   source text: lowered gemm's emitted SystemVerilog, with the minor-heap
   words one load allocates divided by the source's bytes (about 1.6;
   7.5 when every digit boxed an Int64 and every net had a dotted name).
   The first load is not counted, so the per-domain token buffers it
   sizes are not either. *)
let test_load_alloc () =
  let k =
    List.find
      (fun k -> String.equal k.Polybench.Kernels.name "gemm")
      Polybench.Kernels.all
  in
  let prog = Polybench.Harness.program k ~unrolled:false in
  let lowered = Pipelines.compile (Dahlia.To_calyx.compile prog) in
  let sv = Calyx_verilog.Verilog.emit lowered in
  let top = lowered.Ir.entrypoint in
  ignore (V.load ~top sv);
  let w0 = Gc.minor_words () in
  let rtl = V.load ~top sv in
  let words = (Gc.minor_words () -. w0) /. float_of_int (String.length sv) in
  ignore (Sys.opaque_identity rtl);
  if words > 2. then
    Alcotest.failf "Vinterp.load: %.2f minor words per source byte over %d bytes"
      words (String.length sv)

(* ------------------------------------------------------------------ *)
(* Random programs                                                     *)
(* ------------------------------------------------------------------ *)

let validates spec =
  let lowered = Pipelines.compile (Fuzz_gen.build spec) in
  (Validate.validate lowered).Validate.ok

let test_fuzz_fixed () =
  (* A deterministic sweep (always seeds 0..N), independent of
     CALYX_TEST_SEED, so CI exercises a stable corpus every run. *)
  for seed = 0 to 120 do
    let spec = Fuzz_gen.spec_of_seed seed in
    if not (validates spec) then
      Alcotest.failf "seed %d diverged: %s" seed (Fuzz_gen.to_string spec)
  done

let prop_fuzz =
  QCheck.Test.make ~name:"random programs: rtl = sim" ~count:80
    (Fuzz_seed.spec_arb "vinterp-differential")
    validates

(* The shrinker itself: every candidate it proposes must be strictly
   smaller and still build a well-formed, runnable program. *)
let prop_shrink_sound =
  QCheck.Test.make ~name:"shrink candidates are smaller and well-formed"
    ~count:60
    (Fuzz_seed.spec_arb "vinterp-shrink")
    (fun spec ->
      List.for_all
        (fun c ->
          Fuzz_gen.size c < Fuzz_gen.size spec
          &&
          let ctx = Fuzz_gen.build c in
          Well_formed.check ctx;
          let sim = Calyx_sim.Sim.create ctx in
          ignore (Calyx_sim.Sim.run ~max_cycles:400_000 sim);
          true)
        (Fuzz_gen.shrink spec))

(* Greedy minimization over an artificial failure predicate terminates
   and lands on a local minimum that still satisfies the predicate. *)
let test_shrink_minimizes () =
  let has_while = ref false in
  let rec any p spec =
    p spec
    ||
    match spec with
    | Fuzz_gen.Act _ -> false
    | Fuzz_gen.Seqs cs | Fuzz_gen.Pars cs -> List.exists (any p) cs
    | Fuzz_gen.Ifs { t; f; _ } -> (
        any p t || match f with Some f -> any p f | None -> false)
    | Fuzz_gen.Whiles (_, b) -> any p b
  in
  let is_while = function Fuzz_gen.Whiles _ -> true | _ -> false in
  for seed = 0 to 300 do
    let spec = Fuzz_gen.spec_of_seed seed in
    if any is_while spec then begin
      has_while := true;
      let fails s = any is_while s in
      let min = Fuzz_gen.minimize ~fails spec in
      if not (fails min) then Alcotest.failf "seed %d: minimum lost bug" seed;
      (* The fixed point of while-preserving shrinking is a bare minimal
         loop: nothing inside it survives. *)
      match min with
      | Fuzz_gen.Whiles (1, Fuzz_gen.Act (Fuzz_gen.S_const _)) -> ()
      | m ->
          Alcotest.failf "seed %d: not fully minimized: %s" seed
            (Fuzz_gen.to_string m)
    end
  done;
  if not !has_while then Alcotest.fail "sweep produced no while loops"

(* ------------------------------------------------------------------ *)
(* Parity with the sequential order                                    *)
(* ------------------------------------------------------------------ *)

(* Validate.validate runs its Calyx half beside its RTL half. This is the
   sequential order it replaced, from public calls only: emit, Sim.create,
   Vinterp.load, load sim, load rtl, Sim.run, Vinterp.run, then the same
   comparisons, rendered field by field. *)
let sequential ?max_cycles ?(load = ignore) lowered =
  let sv = Calyx_verilog.Verilog.emit lowered in
  let sim = Calyx_sim.Sim.create lowered in
  let rtl = V.load ~top:lowered.Ir.entrypoint sv in
  let sim_io = Calyx_sim.Testbench.of_sim sim in
  let rtl_io = Validate.rtl_io rtl in
  load sim_io;
  load rtl_io;
  let cycles_sim = Calyx_sim.Sim.run ?max_cycles sim in
  let cycles_rtl = V.run ?max_cycles rtl in
  let regs, mems = Calyx_sim.Sim.state_cells lowered in
  let ints vs =
    String.concat ","
      (Array.to_list
         (Array.map (fun v -> Int64.to_string (Bitvec.to_int64 v)) vs))
  in
  let mismatches =
    (if cycles_sim = cycles_rtl then []
     else [ ("cycles", string_of_int cycles_sim, string_of_int cycles_rtl) ])
    @ List.filter_map
        (fun p ->
          let s = sim_io.read_register p and r = rtl_io.read_register p in
          if Bitvec.equal s r then None
          else Some (p, Bitvec.to_string s, Bitvec.to_string r))
        regs
    @ List.filter_map
        (fun p ->
          let s = sim_io.read_memory p and r = rtl_io.read_memory p in
          if Array.length s = Array.length r && Array.for_all2 Bitvec.equal s r
          then None
          else Some (p, ints s, ints r))
        mems
  in
  let nets, procs = V.stats rtl in
  ( cycles_sim,
    cycles_rtl,
    mismatches,
    List.length regs,
    List.length mems,
    nets,
    procs,
    V.evals rtl )

let fields (r : Validate.report) =
  ( r.cycles_sim,
    r.cycles_rtl,
    List.map
      (fun (m : Validate.mismatch) -> (m.path, m.sim_value, m.rtl_value))
      r.mismatches,
    r.registers_checked,
    r.memories_checked,
    r.nets,
    r.procs,
    r.evals )

let render = function
  | Ok (cs, cr, ms, regs, mems, nets, procs, evals) ->
      Printf.sprintf
        "cycles %d/%d; mismatches [%s]; %d registers, %d memories; %d nets, \
         %d procs, %d evals"
        cs cr
        (String.concat "; "
           (List.map (fun (p, s, r) -> Printf.sprintf "%s %s %s" p s r) ms))
        regs mems nets procs evals
  | Error e -> "raised " ^ Printexc.to_string e

let outcome f = match f () with v -> Ok v | exception e -> Error e

let check_parity ?max_cycles ?load what lowered =
  Alcotest.(check string) what
    (render (outcome (fun () -> sequential ?max_cycles ?load lowered)))
    (render
       (outcome (fun () ->
            fields (Validate.validate ?max_cycles ?load lowered))))

let test_parity_corpus () =
  List.iter
    (fun file -> check_parity file (Pipelines.compile (parse_example file)))
    [ "counter.futil"; "invoke.futil"; "dotprod.dahlia"; "histogram.dahlia" ];
  let rng = Fuzz_seed.state_of (Fuzz_seed.derive "validate-parity") in
  List.iter
    (fun ((k : Polybench.Kernels.kernel), unrolled) ->
      let prog = Polybench.Harness.program k ~unrolled in
      let inputs =
        List.map
          (fun (name, values) ->
            ( name,
              List.map
                (fun _ ->
                  Random.State.bits rng lor (Random.State.int rng 4 lsl 30))
                values ))
          k.inputs
      in
      let tb = Polybench.Harness.testbench { k with inputs } prog in
      check_parity ~load:tb.load
        (k.name ^ if unrolled then "-unrolled" else "")
        (Pipelines.compile (Dahlia.To_calyx.compile prog)))
    (List.map (fun k -> (k, false)) Polybench.Kernels.all
    @ List.map (fun k -> (k, true)) Polybench.Kernels.unrollable);
  List.iter
    (fun shape ->
      let name, (tb : Calyx_sim.Testbench.t), lowered = systolic shape in
      check_parity ~load:tb.load name lowered)
    [ (4, 4, 4); (12, 1, 12) ];
  for i = 1 to 100 do
    let spec = Fuzz_gen.generate rng in
    check_parity
      (Printf.sprintf "fuzz program %d: %s" i (Fuzz_gen.to_string spec))
      (Pipelines.compile (Fuzz_gen.build spec))
  done

(* Both halves failing raises what the sequential order raised first. *)
let test_parity_failures () =
  let lowered = Pipelines.compile (parse_example "counter.futil") in
  (match Validate.validate ~max_cycles:5 lowered with
  | exception Calyx_sim.Sim.Timeout _ -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a 5-cycle budget did not time out");
  check_parity ~max_cycles:5 "both halves time out" lowered;
  (* Only the RTL io raises Vinterp.Elab_error for a missing memory: a
     load that fails on it alone comes before the simulator's timeout. *)
  let load (io : Calyx_sim.Testbench.io) =
    match io.read_memory "no_such_memory" with
    | exception V.Elab_error _ -> failwith "rtl load"
    | exception _ | _ -> ()
  in
  Alcotest.check_raises "RTL load failure wins over the Calyx timeout"
    (Failure "rtl load") (fun () ->
      ignore (Validate.validate ~max_cycles:5 ~load lowered));
  check_parity ~max_cycles:5 ~load "rtl load fails, sim times out" lowered;
  (* A structured program is rejected before either side loads. *)
  let loads = ref 0 in
  (match
     Validate.validate
       ~load:(fun _ -> incr loads)
       (parse_example "counter.futil")
   with
  | exception Calyx_verilog.Verilog.Not_lowered _ -> ()
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a structured program validated");
  Alcotest.(check int) "nothing loaded" 0 !loads

(* ------------------------------------------------------------------ *)
(* Every primitive: three behaviours agree                             *)
(* ------------------------------------------------------------------ *)

(* Each primitive has three behaviours: Prim_state's reference model
   (the fixpoint engine), its staged model (the compiled engine) and the
   SystemVerilog module the emitter writes (run by Vinterp). One
   single-cell program per entry of [Prims.all] and width drives the cell
   from registers and captures its outputs in registers; the engines must
   agree up to 62 bits (above, both run the reference model) and the
   simulator must agree with the RTL at every width. *)

(* Parameters for [info] at width [w], drawn from [rng] where the table
   leaves a choice: a constant's value, the other width of a slice or
   pad (whichever way round the table accepts), a memory's sizes. *)
let prim_params rng (info : Prims.info) w =
  let accepts params =
    match info.make_ports params with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  match info.param_names with
  | [ "WIDTH" ] -> [ w ]
  | [ "WIDTH"; "VALUE" ] ->
      [ w; Random.State.bits rng land ((1 lsl min w 30) - 1) ]
  | [ _; _ ] ->
      let other = 1 + Random.State.int rng w in
      if accepts [ w; other ] then [ w; other ] else [ other; w ]
  | names ->
      let sizes =
        List.init ((List.length names - 1) / 2) (fun _ ->
            1 + Random.State.int rng 4)
      in
      (w :: sizes) @ List.map (fun n -> max 1 (Compile_control.clog2 n)) sizes

(* The single-cell program: [i_<port>] registers drive the cell's data
   inputs, [o_<port>] registers capture its data outputs. A register or
   memory is written in one group and read in the next, a memory through
   the [j_<addr>] registers; a pipelined unit runs under go until done. *)
let prim_program name params =
  let info = Prims.info name in
  let ports = Prims.ports name params in
  let data dir =
    List.filter
      (fun (p : Prims.prim_port) ->
        p.pp_dir = dir
        && not (List.mem p.pp_name [ "go"; "write_en"; "done" ]))
      ports
  in
  let ins = data Prims.In and outs = data Prims.Out in
  let addrs =
    List.filter
      (fun (p : Prims.prim_port) -> String.starts_with ~prefix:"addr" p.pp_name)
      ins
  in
  let b = Buffer.create 512 in
  let pr fmt = Printf.bprintf b fmt in
  let regs prefix =
    List.iter (fun (p : Prims.prim_port) ->
        pr "    %s_%s = std_reg(%d);\n" prefix p.pp_name p.pp_width)
  in
  let drive prefix =
    List.iter (fun (p : Prims.prim_port) ->
        pr "      p.%s = %s_%s.out;\n" p.pp_name prefix p.pp_name)
  in
  let capture guard =
    List.iter (fun (p : Prims.prim_port) ->
        pr "      o_%s.in = p.%s; o_%s.write_en = %s1'd1;\n" p.pp_name
          p.pp_name p.pp_name guard)
      outs
  in
  pr "component main(go: 1) -> (done: 1) {\n  cells {\n    p = %s(%s);\n" name
    (String.concat ", " (List.map string_of_int params));
  regs "i" ins;
  regs "j" addrs;
  regs "o" outs;
  pr "  }\n  wires {\n    group run {\n";
  drive "i" ins;
  let last =
    match info.kind with
    | Register | Memory ->
        pr "      p.write_en = 1'd1; run[done] = p.done;\n    }\n";
        pr "    group read {\n";
        drive "j" addrs;
        capture "";
        "read"
    | Pipelined ->
        pr "      p.go = !p.done ? 1'd1;\n";
        capture "p.done ? ";
        "run"
    | Combinational ->
        capture "";
        "run"
  in
  pr "      %s[done] = o_%s.done;\n    }\n  }\n" last (List.hd outs).pp_name;
  pr "  control { seq { run; %s} }\n}\n"
    (if last = "read" then "read; " else "");
  (Buffer.contents b, ins, addrs)

(* A load of the input registers: addresses in range, data uniform over
   its width or, with [small], at most the width (shift amounts and
   operands near each other). *)
let prim_load rng ~small ~sizes ins addrs : Calyx_sim.Testbench.io -> unit =
  let value (p : Prims.prim_port) =
    match List.assoc_opt p.pp_name sizes with
    | Some size -> Bitvec.of_int ~width:p.pp_width (Random.State.int rng size)
    | None when small ->
        Bitvec.make ~width:p.pp_width
          (Int64.of_int (Random.State.int rng (p.pp_width + 1)))
    | None ->
        let v = Random.State.bits64 rng in
        Bitvec.make ~width:p.pp_width
          (if p.pp_width = 64 then v
           else Int64.logand v (Int64.pred (Int64.shift_left 1L p.pp_width)))
  in
  let values prefix =
    List.map (fun (p : Prims.prim_port) -> (prefix ^ "_" ^ p.pp_name, value p))
  in
  let writes = values "i" ins @ values "j" addrs in
  fun io -> List.iter (fun (r, v) -> io.write_register r v) writes

let test_prim_behaviours () =
  let rng = Fuzz_seed.state_of (Fuzz_seed.derive "prim-behaviours") in
  List.iter
    (fun (info : Prims.info) ->
      List.iter
        (fun w ->
          let params = prim_params rng info w in
          let name = info.prim_name in
          let where =
            Printf.sprintf "%s(%s) at %d bits" name
              (String.concat ", " (List.map string_of_int params))
              w
          in
          let src, ins, addrs = prim_program name params in
          let lowered = Pipelines.compile (Parser.parse_string src) in
          (* Memory address ports index dimension i, sized by parameter
             i + 1. *)
          let sizes =
            List.mapi
              (fun i (p : Prims.prim_port) ->
                (p.pp_name, List.nth params (i + 1)))
              addrs
          in
          List.iter
            (fun small ->
              let load = prim_load rng ~small ~sizes ins addrs in
              if w <= 62 then
                Option.iter
                  (Alcotest.failf "%s: engines disagree: %s" where)
                  (Calyx_sim.Sim.disagreement
                     ~load:(fun sim -> load (Calyx_sim.Testbench.of_sim sim))
                     lowered);
              match Validate.validate ~load lowered with
              | r -> check_ok where r
              | exception e ->
                  Alcotest.failf "%s: validation raised %s" where
                    (Printexc.to_string e))
            [ false; true ])
        [ 1; 31; 32; 62; 63; 64 ])
    Prims.all

let () =
  Alcotest.run "vinterp"
    [
      ( "interpreter",
        [
          Alcotest.test_case "combinational operators" `Quick test_comb_ops;
          Alcotest.test_case "division and modulo" `Quick test_comb_divmod;
          Alcotest.test_case "non-blocking commit order" `Quick
            test_nonblocking_commit;
          Alcotest.test_case "always_ff counter" `Quick test_ff_counter;
          Alcotest.test_case "combinational cycle detection" `Quick
            test_unstable;
          Alcotest.test_case "alias chain across hierarchy" `Quick
            test_alias_chain;
          Alcotest.test_case "copy cycles" `Quick test_copy_cycles;
          Alcotest.test_case "double driver rejected" `Quick test_double_driver;
          Alcotest.test_case "negative array length" `Quick test_negative_array;
          Alcotest.test_case "repeated instance name" `Quick
            test_repeated_instance_name;
          Alcotest.test_case "memory write reads back" `Quick
            test_memory_readback;
          Alcotest.test_case "pokes between cycles" `Quick
            test_pokes_between_cycles;
          Alcotest.test_case "parse errors" `Quick test_parse_error;
          Alcotest.test_case "parse-error messages" `Quick
            test_parse_error_messages;
          Alcotest.test_case "lexer boundaries" `Quick test_lexer_boundaries;
          Alcotest.test_case "keyword-prefixed identifiers" `Quick
            test_keyword_prefixes;
          Alcotest.test_case "constructs the emitter never writes" `Quick
            test_outside_subset;
          Alcotest.test_case "hierarchy and parameters" `Quick
            test_hierarchy_params;
          Alcotest.test_case "62-bit nets and arrays" `Quick (test_width 62);
          Alcotest.test_case "63-bit nets and arrays" `Quick (test_width 63);
          Alcotest.test_case "64-bit nets and arrays" `Quick (test_width 64);
        ] );
      ( "corpus",
        [
          Alcotest.test_case "examples" `Quick test_examples;
          Alcotest.test_case "pass configurations" `Quick test_example_configs;
          Alcotest.test_case "widths 62, 63, 64" `Quick
            test_width_edges_validated;
          Alcotest.test_case "polybench (all kernels)" `Slow test_polybench_all;
          Alcotest.test_case "polybench (unrolled)" `Slow
            test_polybench_unrolled;
          Alcotest.test_case "systolic arrays" `Slow test_systolic;
          Alcotest.test_case "parity with the sequential order" `Slow
            test_parity_corpus;
          Alcotest.test_case "failure precedence" `Quick test_parity_failures;
          Alcotest.test_case "allocation per cycle" `Quick test_alloc_per_cycle;
          Alcotest.test_case "always_ff metrics" `Quick test_ff_metrics;
          Alcotest.test_case "load allocation" `Quick test_load_alloc;
          Alcotest.test_case "every primitive, three behaviours" `Quick
            test_prim_behaviours;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "fixed seeds 0..120" `Quick test_fuzz_fixed;
          QCheck_alcotest.to_alcotest prop_fuzz;
          QCheck_alcotest.to_alcotest prop_shrink_sound;
          Alcotest.test_case "greedy minimization" `Quick test_shrink_minimizes;
        ] );
    ]
