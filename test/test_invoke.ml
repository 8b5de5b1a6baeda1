(* The invoke control operator (a higher-level operator compiled into
   primitive control, in the spirit of the paper's Section 9). *)

open Calyx
open Calyx.Ir
open Calyx.Builder

(* main: invoke a doubler component, then store its result. *)
let program input =
  let doubler =
    component "doubler" ~inputs:[ ("x", 8) ] ~outputs:[ ("out", 8) ]
    |> with_cells [ reg "acc" 8; prim "a" "std_add" [ 8 ] ]
    |> with_groups
         [
           group "compute"
             [
               assign (port "a" "left") (thisa "x");
               assign (port "a" "right") (thisa "x");
               assign (port "acc" "in") (pa "a" "out");
               assign (port "acc" "write_en") (bit true);
               assign (hole "compute" "done") (pa "acc" "done");
             ];
         ]
    |> with_continuous [ assign (this "out") (pa "acc" "out") ]
    |> with_control (enable "compute")
  in
  let main =
    component "main"
    |> with_cells [ instance "d" "doubler"; reg "r" 8 ]
    |> with_groups
         [ Progs.write_group "store" ~reg:"r" ~value:(pa "d" "out") ]
    |> with_control
         (seq [ invoke "d" [ ("x", lit ~width:8 input) ]; enable "store" ])
  in
  context [ doubler; main ]

let test_lowering_shape () =
  let ctx = Pass.run Compile_invoke.pass (program 21) in
  let main = entry ctx in
  Alcotest.(check bool) "invoke group created" true
    (Hashtbl.mem (group_index main) "invoke_d");
  let no_invokes = ref true in
  iter_control
    (function Invoke _ -> no_invokes := false | _ -> ())
    main.control;
  Alcotest.(check bool) "no invoke statements remain" true !no_invokes

let test_end_to_end () =
  List.iter
    (fun config ->
      let lowered = Pipelines.compile ~config (program 21) in
      let sim = Calyx_sim.Sim.create lowered in
      ignore (Calyx_sim.Sim.run sim);
      Alcotest.(check int64) "doubled" 42L
        (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "r")))
    [ Pipelines.insensitive_config; Pipelines.default_config ]

let test_latency_inferred_through_invoke () =
  let ctx =
    Pass.run_all [ Compile_invoke.pass; Infer_latency.pass ] (program 3)
  in
  let main = entry ctx in
  (* doubler has latency 1; the generated invoke group inherits it. *)
  Alcotest.(check (option int)) "invoke group static" (Some 1)
    (Attrs.static (Hashtbl.find (group_index main) "invoke_d").group_attrs);
  Alcotest.(check (option int)) "main static" (Some 2)
    (Attrs.static main.comp_attrs)

let test_parse_print_roundtrip () =
  let src =
    {|
component helper(x: 8, go: 1) -> (out: 8, done: 1) {
  cells { acc = std_reg(8); }
  wires {
    group w { acc.in = x; acc.write_en = 1'd1; w[done] = acc.done; }
    out = acc.out;
  }
  control { w; }
}
component main(go: 1) -> (done: 1) {
  cells { h = helper(); r = std_reg(8); }
  wires {
    group store { r.in = h.out; r.write_en = 1'd1; store[done] = r.done; }
  }
  control {
    seq {
      invoke h(x = 8'd7);
      store;
    }
  }
}
|}
  in
  let ctx = Parser.parse_string src in
  Well_formed.check ctx;
  (let main = entry ctx in
   match main.control with
   | Seq ([ Invoke { cell = "h"; invoke_inputs = [ ("x", Lit v) ]; _ }; _ ], _)
     ->
       Alcotest.(check int64) "argument" 7L (Bitvec.to_int64 v)
   | _ -> Alcotest.fail "unexpected control shape");
  let text = Printer.to_string ctx in
  let ctx' = Parser.parse_string text in
  Alcotest.(check string) "round trip" text (Printer.to_string ctx');
  (* And it runs. *)
  let sim = Calyx_sim.Sim.create (Pipelines.compile ctx) in
  ignore (Calyx_sim.Sim.run sim);
  Alcotest.(check int64) "stored" 7L
    (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "r"))

let expect_errors ctx fragment =
  match Well_formed.errors ctx with
  | [] -> Alcotest.failf "expected error about %s" fragment
  | errs ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec go i =
          i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1))
        in
        go 0
      in
      if not (List.exists (fun e -> contains e fragment) errs) then
        Alcotest.failf "no error mentions %S: %s" fragment
          (String.concat " | " errs)

let test_well_formedness_errors () =
  let base cells control =
    context
      [ component "main" |> with_cells cells |> with_control control ]
  in
  expect_errors
    (base [] (invoke "nope" []))
    "invoke of unknown cell";
  expect_errors
    (base [ prim "a" "std_add" [ 8 ] ] (invoke "a" []))
    "no go/done interface";
  expect_errors
    (base
       [ prim "m" "std_mult_pipe" [ 8 ] ]
       (invoke "m" [ ("left", lit ~width:16 1) ]))
    "width mismatch";
  expect_errors
    (base
       [ prim "m" "std_mult_pipe" [ 8 ] ]
       (invoke "m" [ ("out", lit ~width:8 1) ]))
    "not an input"

let test_invoke_primitive () =
  (* Invoking a pipelined primitive directly. *)
  let main =
    component "main"
    |> with_cells [ prim "m" "std_mult_pipe" [ 16 ]; reg "r" 16 ]
    |> with_groups
         [ Progs.write_group "store" ~reg:"r" ~value:(pa "m" "out") ]
    |> with_control
         (seq
            [
              invoke "m" [ ("left", lit ~width:16 6); ("right", lit ~width:16 7) ];
              enable "store";
            ])
  in
  let lowered = Pipelines.compile (context [ main ]) in
  let sim = Calyx_sim.Sim.create lowered in
  ignore (Calyx_sim.Sim.run sim);
  Alcotest.(check int64) "product" 42L
    (Bitvec.to_int64 (Calyx_sim.Sim.read_register sim "r"))

let () =
  Alcotest.run "invoke"
    [
      ( "invoke",
        [
          Alcotest.test_case "lowering shape" `Quick test_lowering_shape;
          Alcotest.test_case "end to end" `Quick test_end_to_end;
          Alcotest.test_case "latency inference" `Quick
            test_latency_inferred_through_invoke;
          Alcotest.test_case "parse/print round trip" `Quick
            test_parse_print_roundtrip;
          Alcotest.test_case "well-formedness errors" `Quick
            test_well_formedness_errors;
          Alcotest.test_case "invoke a pipelined primitive" `Quick
            test_invoke_primitive;
        ] );
    ]
