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
  let ports = Ports.create ctx (entry ctx) in
  Alcotest.(check int) "adder out" 32
    (Ports.width ports (Cell_port ("a0", "out")));
  Alcotest.(check int) "mem addr" 3
    (Ports.width ports (Cell_port ("m0", "addr0")));
  Alcotest.(check int) "hole" 1 (Ports.width ports (Hole ("add0", "go")));
  Alcotest.(check int) "this go" 1 (Ports.width ports (This "go"))

(* Port tables against the linear scans they replace. The reference
   resolves a width by scanning the component's cells and the prototype's
   ports, raising what the scan-based width queries raised, and numbers
   ports the way the simulator interned them: signature ports, each
   group's go and done hole, then each cell's ports; a repeated name keeps
   its first number and a cell whose prototype does not resolve gets
   none. *)
let ref_width ctx comp = function
  | Cell_port (c, p) -> (
      match List.find_opt (fun x -> String.equal x.cell_name c) comp.cells with
      | None -> ir_error "unknown cell %s in component %s" c comp.comp_name
      | Some cell -> (
          match
            List.find_opt
              (fun (n, _, _) -> String.equal n p)
              (cell_ports ctx cell.cell_proto)
          with
          | Some (_, w, _) -> w
          | None ->
              ir_error "cell %s (in %s) has no port %s" c comp.comp_name p))
  | Hole _ -> 1
  | This p -> (
      match
        List.find_opt
          (fun pd -> String.equal pd.pd_name p)
          (signature_ports comp)
      with
      | Some pd -> pd.pd_width
      | None -> ir_error "component %s has no port %s" comp.comp_name p)

let ref_numbering ctx comp =
  let seen = Hashtbl.create 64 and order = ref [] in
  let intern p w d =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      order := (p, w, d) :: !order
    end
  in
  List.iter (fun pd -> intern (This pd.pd_name) pd.pd_width pd.pd_dir)
    (signature_ports comp);
  List.iter
    (fun g ->
      intern (Hole (g.group_name, "go")) 1 Input;
      intern (Hole (g.group_name, "done")) 1 Output)
    comp.groups;
  let cells = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if not (Hashtbl.mem cells c.cell_name) then begin
        Hashtbl.add cells c.cell_name ();
        match cell_ports ctx c.cell_proto with
        | ports ->
            List.iter
              (fun (p, w, d) -> intern (Cell_port (c.cell_name, p)) w d)
              ports
        | exception
            (Ir_error _ | Prims.Unknown_primitive _ | Invalid_argument _) ->
            ()
      end)
    comp.cells;
  List.rev !order

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* Every port the component mentions or declares, and probes that miss:
   an unknown cell, a missing port on every cell, an unknown signature
   port, a hole of an unknown group and an unknown hole. *)
let port_queries ctx comp =
  let atoms a =
    List.filter_map
      (function Port p -> Some p | Lit _ -> None)
      (assignment_atoms a)
  in
  let conds = ref [] in
  iter_control
    (function
      | If { cond_port; _ } | While { cond_port; _ } -> conds := cond_port :: !conds
      | _ -> ())
    comp.control;
  List.concat_map (fun a -> a.dst :: atoms a) (all_assignments comp)
  @ !conds
  @ List.map (fun pd -> This pd.pd_name) (signature_ports comp)
  @ List.concat_map
      (fun c ->
        Cell_port (c.cell_name, "no_such_port")
        :: (try
              List.map (fun (p, _, _) -> Cell_port (c.cell_name, p))
                (cell_ports ctx c.cell_proto)
            with _ -> []))
      comp.cells
  @ List.concat_map
      (fun g ->
        List.map (fun h -> Hole (g.group_name, h)) [ "go"; "done"; "bogus" ])
      comp.groups
  @ [
      Cell_port ("no_such_cell", "out");
      This "no_such_port";
      Hole ("no_such_group", "go");
    ]

(* [None] when the table agrees with the reference on [ctx], else what
   differed first. *)
let ports_disagreement ctx =
  let exception Differ of string in
  let fail fmt = Format.kasprintf (fun m -> raise (Differ m)) fmt in
  try
    List.iter
      (fun comp ->
        let t = Ports.create ctx comp in
        let name = comp.comp_name in
        List.iter
          (fun p ->
            let got = outcome (fun () -> Ports.width t p)
            and want = outcome (fun () -> ref_width ctx comp p) in
            if got <> want then
              fail "%s: width of %a: table %s, reference %s" name pp_port_ref p
                (match got with Ok w -> string_of_int w | Error e -> e)
                (match want with Ok w -> string_of_int w | Error e -> e))
          (port_queries ctx comp);
        let numbering = ref_numbering ctx comp in
        if List.length numbering <> Ports.count t then
          fail "%s: %d ports, reference %d" name (Ports.count t)
            (List.length numbering);
        List.iteri
          (fun i (p, w, d) ->
            if not (equal_port_ref (Ports.port t i) p) then
              fail "%s: id %d is %a, reference %a" name i pp_port_ref
                (Ports.port t i) pp_port_ref p;
            if Ports.id t p <> i || Ports.width_of_id t i <> w
               || Ports.direction_of_id t i <> d
            then fail "%s: id, width or direction of %a" name pp_port_ref p)
          numbering;
        (* A cell's base is its first port's id; a repeated name has none. *)
        List.iteri
          (fun i c ->
            let first =
              List.find (fun c' -> String.equal c'.cell_name c.cell_name) comp.cells
            in
            let want =
              if first != c then Some (-1)
              else
                List.find_index
                  (function
                    | Cell_port (c', _), _, _ -> String.equal c' c.cell_name
                    | _ -> false)
                  numbering
            in
            match want with
            | Some w when w <> Ports.cell_base t i ->
                fail "%s: cell %s (#%d) has base %d, reference %d" name
                  c.cell_name i (Ports.cell_base t i) w
            | Some _ | None -> ())
          comp.cells)
      ctx.components;
    None
  with Differ m -> Some m

let check_ports_agree label ctx =
  match ports_disagreement ctx with
  | None -> ()
  | Some m -> Alcotest.failf "%s: %s" label m

let test_ports_corpus () =
  let example f =
    (* dune runtest runs in the test directory; dune exec from the root. *)
    Parser.parse_file
      (List.find Sys.file_exists
         [ "../examples/sources/" ^ f; "examples/sources/" ^ f ])
  in
  let programs =
    [
      ("counter.futil", example "counter.futil");
      ("invoke.futil", example "invoke.futil");
      ("reduction tree", Progs.reduction_tree ());
      ("hierarchy", Progs.hierarchy ~input:1 ());
      ( "systolic 3x3",
        Systolic.generate { Systolic.rows = 3; cols = 3; depth = 3; width = 32 } );
    ]
    @ List.map
        (fun (k : Polybench.Kernels.kernel) ->
          (k.name, Polybench.Harness.build k ~unrolled:false))
        (List.filteri (fun i _ -> i < 4) Polybench.Kernels.all)
  in
  List.iter
    (fun (label, ctx) ->
      check_ports_agree label ctx;
      check_ports_agree (label ^ " (lowered)") (Pipelines.compile ctx))
    programs

(* First declarations win, and an unresolved prototype's ports raise what
   resolving it raised. *)
let test_ports_malformed () =
  let main =
    {
      (component "main" ~inputs:[ ("x", 8); ("x", 4) ]) with
      cells =
        [
          reg "r" 8;
          prim "r" "std_add" [ 4 ];
          prim "bad" "std_bogus" [ 1 ];
          prim "params" "std_reg" [ 8; 9 ];
          { cell_name = "sub"; cell_proto = Comp "missing"; cell_attrs = Attrs.empty };
        ];
      groups =
        [
          group "g" [ assign (hole "g" "done") (pa "r" "done") ];
          group "g" [ assign (hole "g" "done") (lit ~width:1 1) ];
        ];
    }
  in
  check_ports_agree "malformed" (context [ main ]);
  let t = Ports.create (context [ main ]) main in
  Alcotest.(check int) "first x" 8 (Ports.width t (This "x"));
  Alcotest.(check int) "first r" 8 (Ports.width t (Cell_port ("r", "in")));
  Alcotest.(check bool) "second r's ports are not r's" true
    (Ports.resolve t (Cell_port ("r", "left")) = Ports.No_port)

let prop_ports_fuzz =
  QCheck.Test.make ~name:"port tables agree with the linear scans" ~count:60
    (Fuzz_seed.spec_arb "ports-reference")
    (fun spec ->
      let ctx = Fuzz_gen.build spec in
      match
        (ports_disagreement ctx, ports_disagreement (Pipelines.compile ctx))
      with
      | None, None -> true
      | Some m, _ | None, Some m -> QCheck.Test.fail_report m)

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

(* The parser takes a signature as written: a component that omits go or
   done is reported by the checker, not left to fail in remove-groups. *)
let test_wf_missing_interface () =
  let src iface =
    Printf.sprintf
      {|component main%s {
  cells { r = std_reg(8); }
  wires { group g { r.in = 8'd1; r.write_en = 1'd1; g[done] = r.done; } }
  control { g; }
}|}
      iface
  in
  let codes iface =
    List.filter_map
      (fun (d : Diagnostics.t) ->
        if String.equal d.code "CX013" then Some d.message else None)
      (Well_formed.diagnostics (Parser.parse_string (src iface)))
  in
  Alcotest.(check (list string)) "both present" [] (codes "(go: 1) -> (done: 1)");
  Alcotest.(check (list string)) "no go"
    [ "component main has no go: 1 input (the go/done interface)" ]
    (codes "() -> (done: 1)");
  Alcotest.(check (list string)) "no done"
    [ "component main has no done: 1 output (the go/done interface)" ]
    (codes "(go: 1) -> ()");
  Alcotest.(check int) "wrong width and direction" 2
    (List.length (codes "(done: 1) -> (go: 2)"));
  (* An extern declares a signature only and is exempt. *)
  let ext =
    Parser.parse_string
      ({|extern "ip.sv" { component ip(x: 8) -> (y: 8); }
|}
      ^ src "(go: 1) -> (done: 1)")
  in
  Alcotest.(check int) "extern exempt" 0
    (List.length
       (List.filter
          (fun (d : Diagnostics.t) -> String.equal d.code "CX013")
          (Well_formed.diagnostics ext)));
  Alcotest.(check (option string)) "registered"
    (Some "component lacks the go: 1 input or done: 1 output interface")
    (Diagnostics.describe "CX013")

let test_prims_metadata () =
  let info = Prims.info "std_reg" in
  Alcotest.(check bool) "stateful" true (info.Prims.kind = Prims.Register);
  Alcotest.(check (option int)) "latency" (Some 1) info.Prims.latency;
  let add = Prims.info "std_add" in
  Alcotest.(check bool) "add shareable" true add.Prims.shareable;
  Alcotest.(check bool) "add comb" true (add.Prims.kind = Prims.Combinational);
  Alcotest.(check (option int)) "lt out width" (Some 1)
    (Prims.port_width "std_lt" [ 32 ] "out");
  Alcotest.(check (option int)) "mem read width" (Some 16)
    (Prims.port_width "std_mem_d2" [ 16; 4; 4; 2; 2 ] "read_data");
  Alcotest.(check bool) "unknown prim" true
    (try ignore (Prims.info "std_bogus"); false
     with Prims.Unknown_primitive _ -> true)

(* Name lookups that fail raise Ir_error with these texts, whichever
   analysis does the lookup. *)
let check_ir_error msg f =
  Alcotest.check_raises msg (Ir_error msg) (fun () -> ignore (f ()))

let test_unknown_group_latency () =
  let main =
    component "main"
    |> with_cells [ reg "r" 8 ]
    |> with_groups [ Progs.write_group "w" ~reg:"r" ~value:(lit ~width:8 1) ]
    |> with_control (seq [ enable "w"; enable "g" ])
  in
  check_ir_error "unknown group g in component main" (fun () ->
      Static_timing.control_latency (group_index main) main main.control)

let test_unknown_cell_latency () =
  let g = group "g" [ assign (hole "g" "done") (pa "c" "done") ] in
  let main = component "main" |> with_groups [ g ] in
  check_ir_error "unknown cell c in component main" (fun () ->
      Infer_latency.derived_group_latency (context [ main ]) (cell_index main)
        main g)

let test_duplicate_names () =
  let done_group name = group name [ assign (hole name "done") (bit true) ] in
  check_ir_error "cell b already exists in main" (fun () ->
      component "main" |> with_cells [ reg "a" 8; reg "b" 8; reg "b" 8; reg "a" 8 ]);
  check_ir_error "cell a already exists in main" (fun () ->
      component "main" |> with_cells [ reg "a" 8 ]
      |> with_cells [ reg "c" 8; reg "a" 8; reg "c" 8 ]);
  check_ir_error "group y already exists in main" (fun () ->
      component "main"
      |> with_groups [ done_group "x"; done_group "y"; done_group "y"; done_group "x" ]);
  check_ir_error "group x already exists in main" (fun () ->
      component "main" |> with_groups [ done_group "x" ]
      |> with_groups [ done_group "z"; done_group "x"; done_group "z" ])

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
          Alcotest.test_case "port tables on the corpus" `Quick test_ports_corpus;
          Alcotest.test_case "port tables, first declaration wins" `Quick
            test_ports_malformed;
          QCheck_alcotest.to_alcotest prop_ports_fuzz;
          Alcotest.test_case "enabled groups" `Quick test_enabled_groups;
          Alcotest.test_case "control size" `Quick test_control_size;
          Alcotest.test_case "rename enables" `Quick test_rename_enables;
        ] );
      ( "lookup errors",
        [
          Alcotest.test_case "unknown group in control latency" `Quick
            test_unknown_group_latency;
          Alcotest.test_case "unknown cell in derived latency" `Quick
            test_unknown_cell_latency;
          Alcotest.test_case "duplicate names" `Quick test_duplicate_names;
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
          Alcotest.test_case "missing go/done interface" `Quick
            test_wf_missing_interface;
        ] );
      ( "primitives",
        [ Alcotest.test_case "metadata" `Quick test_prims_metadata ] );
    ]
