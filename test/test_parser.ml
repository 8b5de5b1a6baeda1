(* Parser/printer tests: hand-written sources, error cases, and the
   round-trip property printer ∘ parser = id on sample programs. *)

open Calyx

let roundtrip ctx =
  let text = Printer.to_string ctx in
  let ctx' =
    try Parser.parse_string ~entrypoint:ctx.Ir.entrypoint text
    with Parser.Parse_error msg ->
      Alcotest.failf "re-parse failed: %s\nsource:\n%s" msg text
  in
  let text' = Printer.to_string ctx' in
  Alcotest.(check string) "round trip is stable" text text'

let test_roundtrip_samples () =
  List.iter roundtrip
    [
      Progs.two_writes_seq ();
      Progs.two_writes_par ();
      Progs.counter ~limit:5 ();
      Progs.if_program ~x:1 ~y:2 ();
      Progs.reduction_tree ();
      Progs.hierarchy ~input:3 ();
      Progs.mult_program ~x:3 ~y:4 ();
    ]

let source_counter =
  {|
// A counter written in surface syntax.
component main(go: 1) -> (done: 1) {
  cells {
    r = std_reg(8);
    a = std_add(8);
    lt = std_lt(8);
  }
  wires {
    group init {
      r.in = 8'd0;
      r.write_en = 1'd1;
      init[done] = r.done;
    }
    group incr<"static"=1> {
      a.left = r.out;
      a.right = 8'd1;
      r.in = a.out;
      r.write_en = 1'd1;
      incr[done] = r.done;
    }
    group cond {
      lt.left = r.out;
      lt.right = 8'd3;
      cond[done] = 1'd1;
    }
  }
  control {
    seq {
      init;
      while lt.out with cond {
        incr;
      }
    }
  }
}
|}

let test_parse_and_run () =
  let ctx = Parser.parse_string source_counter in
  Well_formed.check ctx;
  let sim = Calyx_sim.Sim.create ctx in
  ignore (Calyx_sim.Sim.run sim);
  Alcotest.(check int64) "counted to 3" 3L
    (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "r"))

let test_parse_attrs () =
  let ctx = Parser.parse_string source_counter in
  let main = Ir.entry ctx in
  let incr = Hashtbl.find (Ir.group_index main) "incr" in
  Alcotest.(check (option int)) "static attr" (Some 1)
    (Attrs.static incr.Ir.group_attrs)

let test_parse_guards () =
  let src =
    {|
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(8); f = std_reg(2); }
  wires {
    group g {
      r.in = f.out == 2'd1 & !r.done ? 8'd5;
      r.in = (f.out != 2'd1 | r.done) & f.out >= 2'd2 ? 8'd6;
      r.write_en = 1'd1;
      g[done] = r.done;
    }
  }
  control { g; }
}
|}
  in
  let ctx = Parser.parse_string src in
  let g = Hashtbl.find (Ir.group_index (Ir.entry ctx)) "g" in
  Alcotest.(check int) "four assignments" 4 (List.length g.Ir.assigns);
  roundtrip ctx

let test_parse_extern () =
  let src =
    {|
extern "sqrt.sv" {
  component sqrt(left: 32, right: 32, go: 1) -> (out: 32, done: 1);
}
component main(go: 1) -> (done: 1) {
  cells { s = sqrt(); r = std_reg(32); }
  wires {
    group foo {
      s.left = 32'd10;
      s.go = !s.done ? 1'd1;
      r.in = s.out;
      r.write_en = s.done;
      foo[done] = r.done;
    }
  }
  control { foo; }
}
|}
  in
  let ctx = Parser.parse_string src in
  let sqrt = Ir.find_component ctx "sqrt" in
  Alcotest.(check (option string)) "extern path" (Some "sqrt.sv")
    sqrt.Ir.is_extern;
  Well_formed.check ctx;
  roundtrip ctx

let test_parse_comments_and_import () =
  let src =
    {|
import "primitives/std.lib";
/* block comment
   spanning lines */
component main(go: 1) -> (done: 1) {
  cells { r = std_reg(4); } // trailing comment
  wires {
    group g { r.in = 4'd1; r.write_en = 1'd1; g[done] = r.done; }
  }
  control { g; }
}
|}
  in
  let ctx = Parser.parse_string src in
  Alcotest.(check int) "one component" 1 (List.length ctx.Ir.components)

let expect_parse_error src =
  match Parser.parse_string src with
  | exception Parser.Parse_error _ -> ()
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected a parse error"

let test_parse_errors () =
  expect_parse_error "component main( {";
  expect_parse_error "component main(go: 1) -> (done: 1) { cells { r = std_bogus(8); } wires {} control {} }";
  expect_parse_error
    "component main(go: 1) -> (done: 1) { cells {} wires { group g { r.in = 5; } } control {} }";
  expect_parse_error "component main(go: 1) -> (done: 1) { cells {} wires {} control { if x { } }";
  expect_parse_error "@#!"

(* Every parser and lexer error names the line and column of the token
   (or comment) it stopped at. *)
let test_error_locations () =
  let message src =
    match Parser.parse_string src with
    | exception Parser.Parse_error msg -> msg
    | exception Lexer.Lex_error msg -> msg
    | _ -> Alcotest.fail "expected a parse error"
  in
  let head = "component main(go: 1) -> (done: 1) {\n" in
  List.iter
    (fun (src, expected) -> Alcotest.(check string) src expected (message src))
    [
      ( head ^ "  cells {}\n  wires {}\n  control {}\n",
        "line 5:1: expected '}' but found end of input" );
      ( "component main(go 1) -> (done: 1) {}",
        "line 1:19: expected ':' but found number 1" );
      ( head ^ "  cells {\n    r = std_bogus(8);\n  }\n",
        "line 3:9: unknown primitive std_bogus (user components take no \
         parameters)" );
      ( head ^ "  cells {}\n  wires { group g { r.in = 5; } }\n",
        "line 3:28: bare numbers are not atoms; use a sized literal like \
         32'd5" );
      ( head ^ "  cells {}\n  wires { x.in = a.out & b.out; }\n",
        "line 3:18: expected an atom but found guard (a.out & b.out)" );
      ( head ^ "  cells {}\n  wires {}\n  control { if x { } }\n",
        "line 5:1: expected '}' but found end of input" );
      ("@#!", "line 1:2: unexpected character '#'");
      ( head ^ "  cells { r = std_reg(8); }\n  wires { r.in = 8'd1 - 1; }\n",
        "line 3:23: unexpected '-'" );
      (head ^ "  /* open", "line 2:3: unterminated comment");
      (head ^ "\n  extern \"x", "line 3:10: unterminated string");
      ( head ^ "  cells { r = std_reg(99999999999999999999); }",
        "line 2:23: number 99999999999999999999 is too large" );
    ]

(* Widths outside 1..64 end in a diagnostic, never an escaping
   Bitvec.Width_error: a register's is a CX002 "bad primitive" error, a
   literal's a lexer error carrying its line. *)
let test_out_of_range_widths () =
  let program cell lit =
    Printf.sprintf
      "component main(go: 1) -> (done: 1) {\n\
      \  cells { r = %s; }\n\
      \  wires { group g { r.in = %s; r.write_en = 1'd1; g[done] = r.done; } }\n\
      \  control { g; }\n\
       }"
      cell lit
  in
  List.iter
    (fun w ->
      let ctx = Parser.parse_string (program (Printf.sprintf "std_reg(%d)" w) "8'd1") in
      match Well_formed.diagnostics ctx with
      | [ d ] -> Alcotest.(check string) "bad primitive" "CX002" d.Diagnostics.code
      | ds ->
          Alcotest.failf "std_reg(%d): expected one CX002, got %d diagnostic(s)" w
            (List.length ds))
    [ 0; 70 ];
  List.iter
    (fun lit ->
      match Parser.parse_string (program "std_reg(8)" lit) with
      | exception Lexer.Lex_error msg ->
          Alcotest.(check bool)
            (lit ^ " error is located") true
            (String.length msg > 7 && String.sub msg 0 7 = "line 3:")
      | _ -> Alcotest.failf "%s: expected a lexer error" lit)
    [ "70'd1"; "0'd0"; "8'd99999999999999999999999" ]

let test_lexer_literals () =
  let toks = Array.to_list (fst (Lexer.lex "8'd255 4'b1010")) in
  match toks with
  | [ Lexer.LIT a; Lexer.LIT b; Lexer.EOF ] ->
      Alcotest.(check int64) "decimal" 255L (Bitvec.to_int64 a);
      Alcotest.(check int64) "binary" 10L (Bitvec.to_int64 b);
      Alcotest.(check int) "binary width" 4 (Bitvec.width b)
  | _ -> Alcotest.fail "unexpected tokens"

(* Property: random small programs built from the generators round-trip. *)
let arb_small_program =
  QCheck.make
    ~print:(fun ctx -> Printer.to_string ctx)
    QCheck.Gen.(
      let* limit = int_range 1 7 in
      let* choice = int_bound 3 in
      return
        (match choice with
        | 0 -> Progs.counter ~limit ()
        | 1 -> Progs.if_program ~x:limit ~y:3 ()
        | 2 -> Progs.two_writes_seq ~w:(limit + 1) ()
        | _ -> Progs.reduction_tree ~w:(8 * (1 + (limit mod 4))) ()))

let prop_roundtrip =
  QCheck.Test.make ~name:"printer/parser round trip" ~count:50 arb_small_program
    (fun ctx ->
      let text = Printer.to_string ctx in
      let ctx' = Parser.parse_string text in
      String.equal text (Printer.to_string ctx'))

let () =
  Alcotest.run "parser"
    [
      ( "round-trips",
        [
          Alcotest.test_case "sample programs" `Quick test_roundtrip_samples;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "surface syntax",
        [
          Alcotest.test_case "parse and simulate" `Quick test_parse_and_run;
          Alcotest.test_case "attributes" `Quick test_parse_attrs;
          Alcotest.test_case "guards" `Quick test_parse_guards;
          Alcotest.test_case "extern blocks" `Quick test_parse_extern;
          Alcotest.test_case "comments and imports" `Quick
            test_parse_comments_and_import;
        ] );
      ( "errors",
        [
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "errors name line and column" `Quick
            test_error_locations;
          Alcotest.test_case "lexer literals" `Quick test_lexer_literals;
          Alcotest.test_case "out-of-range widths" `Quick
            test_out_of_range_widths;
        ] );
    ]
