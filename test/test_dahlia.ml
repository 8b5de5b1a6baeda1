(* Dahlia frontend tests: parsing, type errors, lowering restrictions, and
   end-to-end execution of compiled programs against expected values. *)

open Calyx

let compile src = Dahlia.To_calyx.compile (Dahlia.Parser.parse_string src)

(* Run a Dahlia program, optionally loading memories; returns the sim. *)
let run ?(config = Pipelines.default_config) ?(mems = []) src =
  let ctx = Pipelines.compile ~config (compile src) in
  let sim = Calyx_sim.Sim.create ctx in
  List.iter
    (fun (name, width, data) -> Calyx_sim.Sim.write_memory_ints sim name ~width data)
    mems;
  let cycles = Calyx_sim.Sim.run sim in
  (sim, cycles)

let run_interp ?(mems = []) src =
  let ctx = compile src in
  let sim = Calyx_sim.Sim.create ctx in
  List.iter
    (fun (name, width, data) -> Calyx_sim.Sim.write_memory_ints sim name ~width data)
    mems;
  let cycles = Calyx_sim.Sim.run sim in
  (sim, cycles)

let mem_ints sim name = Calyx_sim.Sim.read_memory_ints sim name

(* --- parsing and checking --- *)

let test_parse_paper_example () =
  (* Section 6.2's running example. *)
  let src = {|
    let x: ubit<32> = 0
    ---
    if (x > 10) { x := 1 } else { x := 2 }
  |} in
  let prog = Dahlia.Parser.parse_string src in
  Dahlia.Typecheck.check prog;
  match prog.Dahlia.Ast.body with
  | Dahlia.Ast.SSeq [ Dahlia.Ast.SLet _; Dahlia.Ast.SIf _ ] -> ()
  | _ -> Alcotest.fail "unexpected AST shape"

let test_composition_parsing () =
  let src = {|
    decl a: ubit<32>[4];
    let x: ubit<32> = 1;
    let y: ubit<32> = 2
    ---
    a[0] := x + y
  |} in
  let prog = Dahlia.Parser.parse_string src in
  match prog.Dahlia.Ast.body with
  | Dahlia.Ast.SSeq [ Dahlia.Ast.SPar [ _; _ ]; Dahlia.Ast.SStore _ ] -> ()
  | s ->
      Alcotest.failf "unexpected shape: %s"
        (Format.asprintf "%a" Dahlia.Ast.pp_stmt s)

let expect_type_error src =
  let prog = Dahlia.Parser.parse_string src in
  match Dahlia.Typecheck.check prog with
  | exception Dahlia.Typecheck.Type_error _ -> ()
  | () -> Alcotest.fail "expected a type error"

let test_type_errors () =
  expect_type_error "x := 1";
  expect_type_error "let x: ubit<8> = 1 --- let x: ubit<8> = 2";
  expect_type_error "let x: ubit<8> = 1 --- let y: ubit<16> = x";
  expect_type_error "decl a: ubit<8>[4]; a[0][1] := 2";
  expect_type_error "decl a: ubit<8>[5 bank 2]; a[0] := 1";
  expect_type_error
    "for (let i: ubit<2> = 0..8) { let t: ubit<8> = 0 }" (* bound too wide *);
  expect_type_error
    "for (let i: ubit<4> = 0..8) unroll 3 { let t: ubit<8> = 0 }";
  expect_type_error "for (let i: ubit<4> = 0..4) { i := 2 }"

(* Every parse error names the line of the token the parser stopped at;
   end of input is on the line of the last token. *)
let test_parse_error_lines () =
  let check src want =
    match Dahlia.Parser.parse_string src with
    | exception Dahlia.Parser.Parse_error msg ->
        Alcotest.(check string) "message" want msg
    | _ -> Alcotest.failf "expected a parse error in %S" src
  in
  check "decl a: ubit<32>[4];\nfor (let i: ubit<3> = 0..4) {\n  a[i] := 1\n\n"
    "line 3:12: expected an identifier, found end of input";
  check "let x: ubit<32> = 1\n---\nx := x +\n---\nx := 2"
    "line 4:1: expected an expression, found '---'";
  check "decl a: ubit<32>[4]\nlet x: ubit<32> = 1"
    "line 2:1: expected ';' but found identifier \"let\"";
  check "let x: ubit<32> = 1\n\n  x := 2 $"
    "line 3:10: unexpected character '$'";
  (* Columns count bytes from 1 on the token's own line. *)
  check "let x: ubit<32> = 1;\nlet y: ubit<32> = x +;"
    "line 2:22: expected an expression, found ';'";
  check "decl a: ubit<32>[4];\n\tlet x: ubit<8> = a[0) ---"
    "line 2:22: expected ']' but found ')'";
  check "let x: ubit<32> =  \n\n"
    "line 1:18: expected an expression, found end of input";
  check "let x: ubit<32> = 1;\nx := 99999999999999999999"
    "line 2:6: number 99999999999999999999 is too large"

let expect_lowering_error src =
  let prog = Dahlia.Parser.parse_string src in
  match Dahlia.Lowering.lower prog with
  | exception Dahlia.Lowering.Lowering_error _ -> ()
  | _ -> Alcotest.fail "expected a lowering error"

let test_lowering_errors () =
  (* Banked memory indexed by a runtime value. *)
  expect_lowering_error
    {|decl a: ubit<32>[8 bank 2];
      for (let i: ubit<4> = 0..8) { a[i] := 1 }|};
  (* Parallel race on a variable. *)
  expect_lowering_error
    {|let x: ubit<8> = 0;
      let y: ubit<8> = 0
      ---
      x := 1; x := 2|};
  (* Parallel port conflict on an unbanked memory. *)
  expect_lowering_error
    {|decl a: ubit<8>[4];
      a[0] := 1; a[1] := 2|}

(* --- end-to-end programs --- *)

let test_scalar_if () =
  let sim, _ = run {|
    decl out: ubit<32>[1];
    let x: ubit<32> = 0
    ---
    if (x > 10) { x := 1 } else { x := 2 }
    ---
    out[0] := x
  |} in
  Alcotest.(check (list int)) "else branch" [ 2 ] (mem_ints sim "out")

let test_dot_product () =
  let src = {|
    decl a: ubit<32>[4];
    decl b: ubit<32>[4];
    decl out: ubit<32>[1];
    let acc: ubit<32> = 0
    ---
    for (let i: ubit<3> = 0..4) {
      let prod: ubit<32> = a[i] * b[i]
      ---
      acc := acc + prod
    }
    ---
    out[0] := acc
  |} in
  let mems =
    [ ("a", 32, [ 1; 2; 3; 4 ]); ("b", 32, [ 5; 6; 7; 8 ]) ]
  in
  let expected = (1 * 5) + (2 * 6) + (3 * 7) + (4 * 8) in
  let sim, _ = run ~mems src in
  Alcotest.(check (list int)) "compiled" [ expected ] (mem_ints sim "out");
  let sim_i, _ = run_interp ~mems src in
  Alcotest.(check (list int)) "interpreted" [ expected ] (mem_ints sim_i "out")

let test_unrolled_banked () =
  (* Fully unrolled parallel stores into a banked memory. *)
  let src = {|
    decl a: ubit<32>[4 bank 4];
    decl b: ubit<32>[4 bank 4];
    for (let i: ubit<3> = 0..4) unroll 4 {
      b[i] := a[i] + a[i]
    }
  |} in
  let prog = Dahlia.Parser.parse_string src in
  let names = Dahlia.To_calyx.memory_names prog in
  Alcotest.(check int) "eight banks" 8 (List.length names);
  let mems =
    List.filteri (fun i _ -> i < 4) names
    |> List.mapi (fun i n -> (n, 32, [ 10 + i ]))
  in
  let ctx = Pipelines.compile (Dahlia.To_calyx.compile prog) in
  let sim = Calyx_sim.Sim.create ctx in
  List.iter
    (fun (n, w, d) -> Calyx_sim.Sim.write_memory_ints sim n ~width:w d)
    mems;
  ignore (Calyx_sim.Sim.run sim);
  List.iteri
    (fun i n ->
      if i >= 4 then
        Alcotest.(check (list int))
          (Printf.sprintf "bank %s" n)
          [ 2 * (10 + i - 4) ]
          (mem_ints sim n))
    names

let test_division_and_remainder () =
  let sim, _ = run {|
    decl out: ubit<32>[2];
    let q: ubit<32> = 37 / 5;
    let r: ubit<32> = 37 % 5
    ---
    out[0] := q
    ---
    out[1] := r
  |} in
  Alcotest.(check (list int)) "div/rem" [ 7; 2 ] (mem_ints sim "out")

let test_sqrt_mixed_latency () =
  (* sqrt groups carry no static attribute; everything else does. The
     program must still compile and run under the static pipeline. *)
  let src = {|
    decl out: ubit<32>[1];
    let x: ubit<32> = sqrt(1444)
    ---
    out[0] := x + 1
  |} in
  let ctx = compile src in
  let main = Ir.entry ctx in
  let statics =
    List.map (fun g -> Attrs.static g.Ir.group_attrs) main.Ir.groups
  in
  Alcotest.(check bool) "one dynamic group" true (List.mem None statics);
  Alcotest.(check bool) "static groups too" true
    (List.exists (fun s -> s <> None) statics);
  let sim, _ = run src in
  Alcotest.(check (list int)) "sqrt result" [ 39 ] (mem_ints sim "out")

let test_while_loop () =
  let sim, _ = run {|
    decl out: ubit<32>[1];
    let i: ubit<32> = 0;
    let sum: ubit<32> = 0
    ---
    while (i < 10) {
      sum := sum + i
      ---
      i := i + 1
    }
    ---
    out[0] := sum
  |} in
  Alcotest.(check (list int)) "sum 0..9" [ 45 ] (mem_ints sim "out")

let test_nested_pipes_hoisted () =
  (* (a*b)*(c*d) must hoist inner multiplies into temporaries. *)
  let sim, _ = run {|
    decl out: ubit<32>[1];
    let x: ubit<32> = (3 * 4) * (5 * 6)
    ---
    out[0] := x
  |} in
  Alcotest.(check (list int)) "product" [ 360 ] (mem_ints sim "out")

let test_memory_port_hoisting () =
  (* a[0] + a[1] needs two reads of one port: hoisted into a temporary. *)
  let sim, _ = run
      ~mems:[ ("a", 32, [ 11; 22 ]) ]
      {|
    decl a: ubit<32>[2];
    decl out: ubit<32>[1];
    out[0] := a[0] + a[1]
  |} in
  Alcotest.(check (list int)) "sum" [ 33 ] (mem_ints sim "out")

let test_store_read_same_index () =
  let sim, _ = run ~mems:[ ("a", 32, [ 5 ]) ] {|
    decl a: ubit<32>[1];
    a[0] := a[0] + 1
  |} in
  Alcotest.(check (list int)) "incremented" [ 6 ] (mem_ints sim "a")

(* Bank-aware data movement: logical load/read round-trips through the
   physical banks for every banking shape. *)
let test_data_roundtrip () =
  let shapes =
    [
      "decl a: ubit<32>[8];";
      "decl a: ubit<32>[8 bank 2];";
      "decl a: ubit<32>[8 bank 8];";
      "decl a: ubit<32>[4][6];";
      "decl a: ubit<32>[4 bank 2][6 bank 3];";
      "decl a: ubit<32>[4][6 bank 6];";
    ]
  in
  List.iter
    (fun decl ->
      (* A trivial kernel that never touches [a], so its contents are
         exactly what the loader scattered. *)
      let src = decl ^ "\ndecl out: ubit<32>[1];\nout[0] := 1" in
      let prog = Dahlia.Parser.parse_string src in
      let ctx = Pipelines.compile (Dahlia.To_calyx.compile prog) in
      let sim = Calyx_sim.Testbench.of_sim (Calyx_sim.Sim.create ctx) in
      let d =
        List.find (fun d -> d.Dahlia.Ast.decl_name = "a") prog.Dahlia.Ast.decls
      in
      let size =
        List.fold_left (fun acc dim -> acc * dim.Dahlia.Ast.size) 1 d.Dahlia.Ast.dims
      in
      let values = List.init size (fun i -> (i * 17) + 3) in
      Polybench.Data.load prog sim "a" values;
      Alcotest.(check (list int)) decl values (Polybench.Data.read prog sim "a"))
    shapes

let test_lowering_internals () =
  (* Constant folding through substituted unroll indices. *)
  let prog =
    Dahlia.Parser.parse_string
      {|decl a: ubit<32>[4 bank 4];
        for (let i: ubit<3> = 0..4) unroll 4 { a[i] := 5 }|}
  in
  let lowered = Dahlia.Lowering.lower prog in
  Alcotest.(check int) "four banks" 4 (List.length lowered.Dahlia.Ast.decls);
  (match lowered.Dahlia.Ast.body with
  | Dahlia.Ast.SPar copies ->
      Alcotest.(check int) "four copies" 4 (List.length copies);
      List.iteri
        (fun k copy ->
          match copy with
          | Dahlia.Ast.SStore (name, [ Dahlia.Ast.EInt 0 ], _) ->
              Alcotest.(check string)
                (Printf.sprintf "copy %d bank" k)
                (Dahlia.Lowering.bank_name "a" [ k ])
                name
          | s ->
              Alcotest.failf "unexpected copy: %s"
                (Format.asprintf "%a" Dahlia.Ast.pp_stmt s))
        copies
  | s ->
      Alcotest.failf "expected par of stores, got %s"
        (Format.asprintf "%a" Dahlia.Ast.pp_stmt s));
  (* Hoisting gives nested multiplies unique temporaries. *)
  (* All-literal products constant-fold away; use a variable so the
     nested multiplies survive to the hoisting stage. *)
  let prog2 =
    Dahlia.Parser.parse_string
      {|decl out: ubit<32>[1];
        let a: ubit<32> = 2
        ---
        out[0] := (a * 3) * (a * 5)|}
  in
  let lowered2 = Dahlia.Lowering.lower prog2 in
  let rec count_lets = function
    | Dahlia.Ast.SLet _ -> 1
    | Dahlia.Ast.SSeq ss | Dahlia.Ast.SPar ss ->
        List.fold_left (fun acc s -> acc + count_lets s) 0 ss
    | Dahlia.Ast.SIf (_, t, f) -> count_lets t + count_lets f
    | Dahlia.Ast.SWhile (_, b) | Dahlia.Ast.SFor { body = b; _ } -> count_lets b
    | _ -> 0
  in
  (* let a, plus one hoisted temporary per inner multiply. *)
  Alcotest.(check int) "hoisted multiplies" 3
    (count_lets lowered2.Dahlia.Ast.body)

let test_static_matches_insensitive () =
  let src = {|
    decl a: ubit<32>[4];
    decl out: ubit<32>[1];
    let acc: ubit<32> = 0
    ---
    for (let i: ubit<3> = 0..4) {
      acc := acc + a[i]
    }
    ---
    out[0] := acc
  |} in
  let mems = [ ("a", 32, [ 3; 1 ; 4; 1 ]) ] in
  let sim_s, cycles_s = run ~mems src in
  let sim_d, cycles_d = run ~config:Pipelines.insensitive_config ~mems src in
  Alcotest.(check (list int)) "same results" (mem_ints sim_s "out")
    (mem_ints sim_d "out");
  Alcotest.(check bool)
    (Printf.sprintf "static %d < insensitive %d" cycles_s cycles_d)
    true (cycles_s < cycles_d)

let () =
  Alcotest.run "dahlia"
    [
      ( "frontend",
        [
          Alcotest.test_case "paper example parses" `Quick test_parse_paper_example;
          Alcotest.test_case "composition operators" `Quick test_composition_parsing;
          Alcotest.test_case "parse errors name their line" `Quick
            test_parse_error_lines;
          Alcotest.test_case "type errors" `Quick test_type_errors;
          Alcotest.test_case "lowering errors" `Quick test_lowering_errors;
        ] );
      ( "execution",
        [
          Alcotest.test_case "if/else" `Quick test_scalar_if;
          Alcotest.test_case "dot product" `Quick test_dot_product;
          Alcotest.test_case "unrolled + banked" `Quick test_unrolled_banked;
          Alcotest.test_case "division and remainder" `Quick
            test_division_and_remainder;
          Alcotest.test_case "sqrt mixes latencies" `Quick test_sqrt_mixed_latency;
          Alcotest.test_case "while loop" `Quick test_while_loop;
          Alcotest.test_case "nested multiplies hoisted" `Quick
            test_nested_pipes_hoisted;
          Alcotest.test_case "memory port hoisting" `Quick
            test_memory_port_hoisting;
          Alcotest.test_case "read-modify-write" `Quick
            test_store_read_same_index;
          Alcotest.test_case "static matches insensitive" `Quick
            test_static_matches_insensitive;
        ] );
      ( "lowering internals",
        [
          Alcotest.test_case "bank-aware data round trip" `Quick
            test_data_roundtrip;
          Alcotest.test_case "unrolling and hoisting shapes" `Quick
            test_lowering_internals;
        ] );
    ]
