(* The well-formedness re-check after each pass: its incremental form
   (Well_formed.recheck ~before) against the full check over every pass
   prefix of the fuzz, example, PolyBench and systolic corpora, and over
   damaged pass outputs; hand-written passes that keep a group's
   assignments but break what they refer to; and the copy-on-change maps
   and passes the re-check's reuse depends on. *)

open Calyx
open Calyx.Ir

(* ------------------------------------------------------------------ *)
(* Incremental = full, over every pass prefix                          *)
(* ------------------------------------------------------------------ *)

let outcome f = match f () with l -> Ok l | exception e -> Error e

(* The incremental result must be the full check's list, or both raise. *)
let agree label ~before after =
  match
    ( outcome (fun () -> Well_formed.errors after),
      outcome (fun () -> (Well_formed.recheck ~before after).Well_formed.errors) )
  with
  | Ok full, Ok incremental ->
      Alcotest.(check (list string)) label full incremental
  | Error _, Error _ -> ()
  | Ok _, Error e ->
      Alcotest.failf "%s: only the incremental check raised %s" label
        (Printexc.to_string e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: only the full check raised %s" label
        (Printexc.to_string e)

(* Damage that keeps most of a pass output's lists shared, so the
   incremental check has to find what the damage broke. [None] where the
   damage does not apply. *)
let map_entry f ctx =
  let main = entry ctx in
  Option.map (update_component ctx) (f main)

let last_dropped l =
  match List.rev l with [] -> None | _ :: r -> Some (List.rev r)

let wide a = { a with src = Lit (Bitvec.of_int ~width:13 1) }

let damages : (string * (context -> context option)) list =
  [
    ( "drop the last cell",
      map_entry (fun c ->
          Option.map (fun cells -> { c with cells }) (last_dropped c.cells)) );
    ( "drop the first group",
      map_entry (fun c ->
          match c.groups with
          | [] -> None
          | _ :: groups -> Some { c with groups }) );
    ( "duplicate the first cell",
      map_entry (fun c ->
          match c.cells with
          | [] -> None
          | first :: _ -> Some { c with cells = c.cells @ [ first ] }) );
    ( "duplicate the first group's name",
      map_entry (fun c ->
          match c.groups with
          | [] -> None
          | first :: _ ->
              let copy = { first with assigns = [] } in
              Some { c with groups = c.groups @ [ copy ] }) );
    ( "widen the first input",
      map_entry (fun c ->
          match c.inputs with
          | [] -> None
          | pd :: rest ->
              let pd = { pd with pd_width = pd.pd_width + 1 } in
              Some { c with inputs = pd :: rest }) );
    ( "widen the first group's first source",
      map_entry (fun c ->
          match c.groups with
          | ({ assigns = a :: rest; _ } as g) :: others ->
              let g = { g with assigns = wide a :: rest } in
              Some { c with groups = g :: others }
          | _ -> None) );
    ( "widen the first continuous source",
      map_entry (fun c ->
          match c.continuous with
          | a :: rest -> Some { c with continuous = wide a :: rest }
          | [] -> None) );
    ( "rename the first group",
      map_entry (fun c ->
          match c.groups with
          | g :: rest ->
              Some { c with groups = { g with group_name = "renamed" } :: rest }
          | [] -> None) );
    ( "append a cell of an unknown primitive",
      map_entry (fun c ->
          let odd = Builder.prim "odd" "std_none" [ 1 ] in
          Some { c with cells = c.cells @ [ odd ] }) );
    ( "enable a missing group",
      map_entry (fun c ->
          let control =
            Builder.seq [ c.control; Builder.enable "nowhere" ]
          in
          Some { c with control }) );
  ]

(* Folds the default pipeline's passes over a well-formed program,
   comparing the two checks on each output and on each damaged output. *)
let check_prefixes ?(damage = false) label ctx =
  Alcotest.(check (list string))
    (label ^ ": input") [] (Well_formed.errors ctx);
  ignore
    (List.fold_left
       (fun ctx (p : Pass.t) ->
         let ctx' = p.Pass.transform ctx in
         let at = Printf.sprintf "%s after %s" label p.Pass.name in
         agree at ~before:ctx ctx';
         if damage then
           List.iter
             (fun (what, f) ->
               Option.iter
                 (fun broken -> agree (at ^ ", " ^ what) ~before:ctx broken)
                 (f ctx'))
             damages;
         Alcotest.(check (list string)) at [] (Well_formed.errors ctx');
         ctx')
       ctx
       (Pipelines.passes Pipelines.default_config))

let test_fuzz () =
  for seed = 0 to 199 do
    check_prefixes ~damage:true
      (Printf.sprintf "fuzz seed %d" seed)
      (Fuzz_gen.program_of_seed seed)
  done

let example_dir =
  List.find Sys.file_exists [ "../examples/sources"; "examples/sources" ]

let parse_example file =
  let path = Filename.concat example_dir file in
  if Filename.check_suffix file ".dahlia" then begin
    let ic = open_in path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Dahlia.To_calyx.compile (Dahlia.Parser.parse_string src)
  end
  else Parser.parse_file path

let test_examples () =
  let files =
    List.filter
      (fun f -> Filename.check_suffix f ".futil" || Filename.check_suffix f ".dahlia")
      (List.sort compare (Array.to_list (Sys.readdir example_dir)))
  in
  Alcotest.(check bool) "examples found" true (files <> []);
  List.iter (fun f -> check_prefixes ~damage:true f (parse_example f)) files

let test_polybench () =
  List.iter
    (fun (k : Polybench.Kernels.kernel) ->
      List.iter
        (fun unrolled ->
          if (not unrolled) || k.unrolled <> None then
            check_prefixes
              (if unrolled then k.name ^ "-unrolled" else k.name)
              (Polybench.Harness.build k ~unrolled))
        [ false; true ])
    Polybench.Kernels.all

let test_systolic () =
  List.iter
    (fun (rows, cols, depth) ->
      check_prefixes
        (Printf.sprintf "systolic %dx%dx%d" rows cols depth)
        (Systolic.generate { Systolic.rows; cols; depth; width = 32 }))
    [ (4, 4, 4); (8, 8, 8); (12, 12, 12); (5, 12, 7) ]

(* The damages themselves must break the programs they apply to, or the
   damaged cases above compare two empty lists. *)
let test_damage_detected () =
  let counter = parse_example "counter.futil" in
  let programs =
    [
      Pass.run_all (Pipelines.optimize Pipelines.default_config) counter;
      Pipelines.compile counter;
    ]
  in
  List.iter
    (fun (what, f) ->
      let broken = List.filter_map f programs in
      Alcotest.(check bool) (what ^ " applies") true (broken <> []);
      List.iter
        (fun b -> Alcotest.(check bool) what true (Well_formed.errors b <> []))
        broken)
    damages

(* ------------------------------------------------------------------ *)
(* Passes that keep a group's assignments but break its environment    *)
(* ------------------------------------------------------------------ *)

(* [pass] applied with [Pass.run ~checked:true] to a well-formed [ctx]
   must raise what the full check of its output reports, each message
   prefixed with the pass name. [kept] names a group whose assignment
   list the pass keeps physically. *)
let expect_caught (pass : Pass.t) ~kept ctx =
  Alcotest.(check (list string)) "input" [] (Well_formed.errors ctx);
  let out = pass.Pass.transform ctx in
  let assigns c g =
    (Hashtbl.find (group_index (find_component c "main")) g).assigns
  in
  Alcotest.(check bool) "group kept" true (assigns ctx kept == assigns out kept);
  let full = Well_formed.errors out in
  Alcotest.(check bool) "the output is malformed" true (full <> []);
  let expected =
    List.map (fun e -> Printf.sprintf "[after %s] %s" pass.Pass.name e) full
  in
  match Pass.run ~checked:true pass ctx with
  | _ -> Alcotest.failf "%s: the re-check missed it" pass.Pass.name
  | exception Well_formed.Malformed got ->
      Alcotest.(check (list string)) pass.Pass.name expected got

let main_only f =
  Pass.per_component (fun _ c -> if c.comp_name = "main" then f c else c)

(* main reads cell [r] and, from group [reads], the done hole of group
   [first], which the control never enables. *)
let hole_reader () =
  let open Builder in
  let main =
    component "main"
    |> with_cells [ reg "r" 8; reg "s" 8 ]
    |> with_groups
         [
           group "first"
             [
               assign (port "s" "in") (lit ~width:8 1);
               assign (port "s" "write_en") (bit true);
               assign (hole "first" "done") (pa "s" "done");
             ];
           group "reads"
             [
               assign (port "r" "in") (pa "s" "out");
               assign (port "r" "write_en") (bit true);
               assign ~guard:(g_hole "first" "done") (hole "reads" "done")
                 (pa "r" "done");
             ];
         ]
    |> with_control (enable "reads")
  in
  context [ main ]

let test_removed_cell () =
  expect_caught ~kept:"reads"
    (Pass.make ~name:"drop-s" ~description:"remove cell s"
       (main_only (fun c ->
            let cells = List.filter (fun x -> x.cell_name <> "s") c.cells in
            { c with cells })))
    (hole_reader ())

let test_renamed_cell () =
  expect_caught ~kept:"reads"
    (Pass.make ~name:"rename-s" ~description:"rename cell s to t"
       (main_only (fun c ->
            let rename x =
              if x.cell_name = "s" then { x with cell_name = "t" } else x
            in
            { c with cells = List.map rename c.cells })))
    (hole_reader ())

let test_removed_hole_group () =
  expect_caught ~kept:"reads"
    (Pass.make ~name:"drop-first" ~description:"remove group first"
       (main_only (fun c ->
            {
              c with
              groups = List.filter (fun g -> g.group_name <> "first") c.groups;
            })))
    (hole_reader ())

(* invoke.futil's main reads [s.out], a port of component square. *)
let test_sub_signature () =
  let ctx = parse_example "invoke.futil" in
  expect_caught ~kept:"store"
    (Pass.make ~name:"narrow-square-out" ~description:"square.out to 8 bits"
       (fun ctx ->
         {
           ctx with
           components =
             List.map
               (fun c ->
                 if c.comp_name <> "square" then c
                 else
                   {
                     c with
                     outputs =
                       List.map
                         (fun pd ->
                           if pd.pd_name = "out" then { pd with pd_width = 8 }
                           else pd)
                         c.outputs;
                   })
               ctx.components;
         }))
    ctx

(* Without [checked], a pass output is checked in full. *)
let test_unchecked_full () =
  let broken = hole_reader () in
  let broken =
    update_component broken
      { (entry broken) with cells = [ Builder.reg "r" 8 ] }
  in
  let identity = Pass.make ~name:"identity" ~description:"" Fun.id in
  match Pass.run identity broken with
  | _ -> Alcotest.fail "an unchecked input must be checked in full"
  | exception Well_formed.Malformed got ->
      Alcotest.(check (list string))
        "full"
        (List.map
           (fun e -> "[after identity] " ^ e)
           (Well_formed.errors broken))
        got

(* ------------------------------------------------------------------ *)
(* Copy-on-change maps and passes                                      *)
(* ------------------------------------------------------------------ *)

let test_identity_maps () =
  List.iter
    (fun ctx ->
      List.iter
        (fun c ->
          List.iter
            (fun a ->
              Alcotest.(check bool) "assignment" true
                (map_assignment_ports Fun.id a == a))
            (all_assignments c);
          Alcotest.(check bool) "component" true
            (map_assignments Fun.id c == c);
          Alcotest.(check bool) "control" true
            (map_control Fun.id c.control == c.control))
        ctx.components)
    [
      parse_example "counter.futil";
      parse_example "invoke.futil";
      Fuzz_gen.program_of_seed 7;
      Systolic.generate { Systolic.rows = 2; cols = 2; depth = 2; width = 32 };
    ]

(* A change is still made, and only where it is. *)
let test_maps_change () =
  let ctx = parse_example "counter.futil" in
  let main = entry ctx in
  let rename = function Cell_port (c, p) -> Cell_port (c ^ "_x", p) | p -> p in
  let main' = map_assignments (map_assignment_ports rename) main in
  Alcotest.(check bool) "rebuilt" false (main' == main);
  List.iter
    (fun a ->
      match a.dst with
      | Cell_port (c, _) ->
          Alcotest.(check bool) "renamed" true (Filename.check_suffix c "_x")
      | _ -> ())
    (all_assignments main')

let test_invoke_free () =
  let ctx = parse_example "counter.futil" in
  let out = Compile_invoke.pass.Pass.transform ctx in
  Alcotest.(check bool) "control kept" true
    ((entry out).control == (entry ctx).control);
  Alcotest.(check bool) "component kept" true (entry out == entry ctx)

let test_empty_sharing () =
  let ctx = parse_example "counter.futil" in
  let main = entry ctx in
  Alcotest.(check bool) "empty map" true
    (Resource_sharing.apply_map main String_map.empty == main);
  let identity =
    List.fold_left
      (fun m c -> String_map.add c.cell_name c.cell_name m)
      String_map.empty main.cells
  in
  Alcotest.(check bool) "identity map" true
    (Resource_sharing.apply_map main identity == main);
  (* counter.futil shares nothing: both passes return main itself. *)
  List.iter
    (fun (p : Pass.t) ->
      Alcotest.(check bool) p.Pass.name true (entry (p.Pass.transform ctx) == main))
    [ Resource_sharing.pass; Register_sharing.pass ]

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let test_span_metrics () =
  let module T = Calyx_telemetry in
  let ctx = parse_example "counter.futil" in
  let _, spans = T.Trace.collect (fun () -> Pipelines.compile ctx) in
  let revalidate =
    List.filter (fun (sp : T.Trace.span) -> sp.sp_name = "revalidate") spans
  in
  Alcotest.(check int) "one per pass"
    (List.length (Pipelines.passes Pipelines.default_config))
    (List.length revalidate);
  List.iter
    (fun sp ->
      let m = T.Trace.metrics sp in
      List.iter
        (fun k -> Alcotest.(check bool) k true (List.mem_assoc k m))
        [ "reused_assignments"; "rechecked_assignments" ])
    revalidate

let () =
  Alcotest.run "revalidate"
    [
      ( "incremental = full",
        [
          Alcotest.test_case "fuzz programs, 200 seeds, damaged" `Quick test_fuzz;
          Alcotest.test_case "examples, damaged" `Quick test_examples;
          Alcotest.test_case "polybench variants" `Quick test_polybench;
          Alcotest.test_case "systolic 4, 8, 12 and 5x12x7" `Quick test_systolic;
          Alcotest.test_case "damages break programs" `Quick test_damage_detected;
        ] );
      ( "adversarial passes",
        [
          Alcotest.test_case "removed cell" `Quick test_removed_cell;
          Alcotest.test_case "renamed cell" `Quick test_renamed_cell;
          Alcotest.test_case "removed hole group" `Quick test_removed_hole_group;
          Alcotest.test_case "sub-component port width" `Quick test_sub_signature;
          Alcotest.test_case "unchecked input checked in full" `Quick
            test_unchecked_full;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "identity maps return their input" `Quick
            test_identity_maps;
          Alcotest.test_case "maps still rewrite" `Quick test_maps_change;
          Alcotest.test_case "compile-invoke without invoke" `Quick
            test_invoke_free;
          Alcotest.test_case "sharing with an empty mapping" `Quick
            test_empty_sharing;
        ] );
      ( "observability",
        [ Alcotest.test_case "revalidate span metrics" `Quick test_span_metrics ]
      );
    ]
