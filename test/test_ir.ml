(* Unit tests for IR utilities, attributes, and well-formedness checking. *)

open Calyx
open Calyx.Ir
open Calyx.Builder

let test_attrs () =
  let a = Attrs.of_list [ ("static", 3); ("share", 1) ] in
  Alcotest.(check (option int)) "static" (Some 3) (Attrs.static a);
  Alcotest.(check bool) "shareable" true (Attrs.shareable a);
  Alcotest.(check bool) "not external" false (Attrs.external_mem a);
  let a = Attrs.with_static 7 a in
  Alcotest.(check (option int)) "updated" (Some 7) (Attrs.static a);
  Alcotest.(check (list (pair string int))) "sorted bindings"
    [ ("share", 1); ("static", 7) ]
    (Attrs.to_list a)

let test_implicit_interface_ports () =
  let c = component "c" ~inputs:[ ("x", 8) ] ~outputs:[ ("y", 8) ] in
  Alcotest.(check (list string)) "inputs" [ "x"; "go" ]
    (List.map (fun pd -> pd.pd_name) c.inputs);
  Alcotest.(check (list string)) "outputs" [ "y"; "done" ]
    (List.map (fun pd -> pd.pd_name) c.outputs)

let test_fresh_names () =
  let c =
    component "c" |> with_cells [ reg "r" 8; reg "r0" 8 ]
  in
  let fresh = name_supply (List.map (fun c -> c.cell_name) c.cells) in
  Alcotest.(check string) "skips taken" "r1" (fresh "r");
  Alcotest.(check string) "base free" "s" (fresh "s");
  Alcotest.(check string) "skips its own names" "r2" (fresh "r")

let test_widths () =
  let ctx = Progs.reduction_tree () in
  let main = entry ctx in
  Alcotest.(check int) "adder out" 32
    (port_ref_width ctx main (Cell_port ("a0", "out")));
  Alcotest.(check int) "mem addr" 3
    (port_ref_width ctx main (Cell_port ("m0", "addr0")));
  Alcotest.(check int) "hole" 1 (port_ref_width ctx main (Hole ("add0", "go")));
  Alcotest.(check int) "this go" 1 (port_ref_width ctx main (This "go"))

let test_enabled_groups () =
  let ctx = Progs.reduction_tree () in
  let main = entry ctx in
  Alcotest.(check (list string)) "in visit order, with cond groups"
    [ "cond"; "add0"; "add1"; "add2"; "write"; "incr_idx" ]
    (enabled_groups main.control)

let test_control_size () =
  let ctx = Progs.reduction_tree () in
  (* while + seq + par + 5 enables + cond-group references don't count. *)
  Alcotest.(check int) "statements" 8 (control_size (entry ctx).control)

let test_rename_enables () =
  let ctrl = seq [ enable "a"; while_ ~cond:"c" (This "go") (enable "b") ] in
  let renamed = rename_enables (fun g -> g ^ "_x") ctrl in
  Alcotest.(check (list string)) "renamed" [ "a_x"; "c_x"; "b_x" ]
    (enabled_groups renamed)

let test_well_formed_ok () =
  List.iter Well_formed.check
    [
      Progs.two_writes_seq ();
      Progs.counter ~limit:3 ();
      Progs.reduction_tree ();
      Progs.hierarchy ~input:1 ();
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let expect_error ctx fragment =
  match Well_formed.errors ctx with
  | [] -> Alcotest.failf "expected an error mentioning %S" fragment
  | errs ->
      if not (List.exists (fun e -> contains e fragment) errs) then
        Alcotest.failf "no error mentions %S; got: %s" fragment
          (String.concat " | " errs)

let test_wf_missing_done () =
  let main =
    component "main"
    |> with_cells [ reg "r" 8 ]
    |> with_groups [ group "g" [ assign (port "r" "in") (lit ~width:8 1) ] ]
    |> with_control (enable "g")
  in
  expect_error (context [ main ]) "does not drive its done hole"

let test_wf_width_mismatch () =
  let main =
    component "main"
    |> with_cells [ reg "r" 8 ]
    |> with_groups
         [
           group "g"
             [
               assign (port "r" "in") (lit ~width:16 1);
               assign (hole "g" "done") (pa "r" "done");
             ];
         ]
    |> with_control (enable "g")
  in
  expect_error (context [ main ]) "width mismatch"

let test_wf_unknown_group () =
  let main = component "main" |> with_control (enable "nope") in
  expect_error (context [ main ]) "unknown group"

let test_wf_unwritable_dst () =
  let main =
    component "main"
    |> with_cells [ reg "r" 8 ]
    |> with_groups
         [
           group "g"
             [
               assign (port "r" "out") (lit ~width:8 1);
               assign (hole "g" "done") (pa "r" "done");
             ];
         ]
    |> with_control (enable "g")
  in
  expect_error (context [ main ]) "not writable"

let test_wf_bad_entrypoint () =
  let ctx = context ~entrypoint:"nothere" [ component "main" ] in
  expect_error ctx "entrypoint"

let test_wf_duplicate_cells () =
  let main =
    { (component "main") with cells = [ reg "r" 8; reg "r" 8 ] }
  in
  expect_error (context [ main ]) "duplicate cell"

let test_wf_unknown_prim_params () =
  let main =
    component "main" |> with_cells [ prim "r" "std_reg" [ 8; 9 ] ]
  in
  expect_error (context [ main ]) "std_reg expects 1 parameter"

let test_prims_metadata () =
  let info = Prims.info "std_reg" in
  Alcotest.(check bool) "stateful" true info.Prims.stateful;
  Alcotest.(check (option int)) "latency" (Some 1) info.Prims.latency;
  let add = Prims.info "std_add" in
  Alcotest.(check bool) "add shareable" true add.Prims.shareable;
  Alcotest.(check bool) "add comb" true add.Prims.combinational;
  Alcotest.(check (option int)) "lt out width" (Some 1)
    (Prims.port_width "std_lt" [ 32 ] "out");
  Alcotest.(check (option int)) "mem read width" (Some 16)
    (Prims.port_width "std_mem_d2" [ 16; 4; 4; 2; 2 ] "read_data");
  Alcotest.(check bool) "unknown prim" true
    (try ignore (Prims.info "std_bogus"); false
     with Prims.Unknown_primitive _ -> true)

let () =
  Alcotest.run "ir"
    [
      ( "attrs",
        [ Alcotest.test_case "attribute maps" `Quick test_attrs ] );
      ( "construction",
        [
          Alcotest.test_case "implicit go/done" `Quick test_implicit_interface_ports;
          Alcotest.test_case "fresh names" `Quick test_fresh_names;
        ] );
      ( "queries",
        [
          Alcotest.test_case "port widths" `Quick test_widths;
          Alcotest.test_case "enabled groups" `Quick test_enabled_groups;
          Alcotest.test_case "control size" `Quick test_control_size;
          Alcotest.test_case "rename enables" `Quick test_rename_enables;
        ] );
      ( "well-formedness",
        [
          Alcotest.test_case "valid programs" `Quick test_well_formed_ok;
          Alcotest.test_case "missing done" `Quick test_wf_missing_done;
          Alcotest.test_case "width mismatch" `Quick test_wf_width_mismatch;
          Alcotest.test_case "unknown group" `Quick test_wf_unknown_group;
          Alcotest.test_case "unwritable destination" `Quick test_wf_unwritable_dst;
          Alcotest.test_case "bad entrypoint" `Quick test_wf_bad_entrypoint;
          Alcotest.test_case "duplicate cells" `Quick test_wf_duplicate_cells;
          Alcotest.test_case "bad prim params" `Quick test_wf_unknown_prim_params;
        ] );
      ( "primitives",
        [ Alcotest.test_case "metadata" `Quick test_prims_metadata ] );
    ]
