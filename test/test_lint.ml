(* The semantic lint suite: one positive (diagnostic fires) and one
   negative (clean program) case per CX02x code, plus the well-formedness
   checks added alongside it (invoke output bindings, condition-port
   readability). *)

open Calyx
open Calyx.Ir
open Calyx.Builder

let lint ctx =
  Well_formed.check ctx;
  Lint.diagnostics ctx

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diagnostics.code) ds)

let check_codes msg expected ds =
  Alcotest.(check (list string)) msg expected (codes ds)

let has msg code ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s: reports %s" msg code)
    true
    (List.exists (fun d -> String.equal d.Diagnostics.code code) ds)

let clean msg ds =
  Alcotest.(check (list string)) (msg ^ ": clean") [] (List.map Diagnostics.render ds)

(* A register-write group (1 derived cycle). *)
let write ?attrs name ~reg:r ~value =
  group ?attrs name
    [
      assign (port r "in") value;
      assign (port r "write_en") (bit true);
      assign (hole name "done") (pa r "done");
    ]

let main_with ?(cells = []) ?(groups = []) ?(continuous = []) control =
  context
    [
      component "main" |> with_cells cells |> with_groups groups
      |> with_continuous continuous |> with_control control;
    ]

(* ------------------------------------------------------------------ *)
(* CX020: par data races                                               *)
(* ------------------------------------------------------------------ *)

let test_par_race_write_write () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8 ]
      ~groups:
        [
          write "one" ~reg:"x" ~value:(lit ~width:8 1);
          write "two" ~reg:"x" ~value:(lit ~width:8 2);
        ]
      (par [ enable "one"; enable "two" ])
  in
  has "write/write" "CX020" (lint ctx);
  Alcotest.(check bool)
    "compile rejects it" true
    (try
       ignore (Pipelines.compile ctx);
       false
     with Lint.Rejected _ -> true)

let test_par_race_comb_read () =
  (* Arm one drives the adder; arm two latches its combinational output. *)
  let ctx =
    main_with
      ~cells:[ reg "p" 8; reg "q" 8; prim "a" "std_add" [ 8 ] ]
      ~groups:
        [
          group "one"
            [
              assign (port "a" "left") (lit ~width:8 1);
              assign (port "a" "right") (lit ~width:8 2);
              assign (port "p" "in") (pa "a" "out");
              assign (port "p" "write_en") (bit true);
              assign (hole "one" "done") (pa "p" "done");
            ];
          write "two" ~reg:"q" ~value:(pa "a" "out");
        ]
      (par [ enable "one"; enable "two" ])
  in
  has "combinational read/write" "CX020" (lint ctx)

let test_par_shift_idiom_clean () =
  (* One arm writes a register another arm reads: the systolic shift
     idiom. Register outputs hold last cycle's value, so this is fine. *)
  let ctx =
    main_with
      ~cells:[ reg "x" 8; reg "y" 8 ]
      ~groups:
        [
          write "one" ~reg:"x" ~value:(lit ~width:8 1);
          write "two" ~reg:"y" ~value:(pa "x" "out");
        ]
      (par [ enable "one"; enable "two" ])
  in
  clean "register shift across arms" (lint ctx)

let test_par_disjoint_clean () =
  clean "disjoint par writes" (lint (Progs.two_writes_par ()))

(* ------------------------------------------------------------------ *)
(* CX021: combinational cycles                                         *)
(* ------------------------------------------------------------------ *)

let test_comb_cycle_continuous () =
  let ctx =
    main_with
      ~cells:[ prim "a" "std_add" [ 8 ] ]
      ~continuous:
        [
          assign (port "a" "left") (pa "a" "out");
          assign (port "a" "right") (lit ~width:8 1);
          assign (this "done") (bit true);
        ]
      Empty
  in
  has "self-feeding adder" "CX021" (lint ctx)

let test_comb_cycle_in_group () =
  (* The cycle goes through two combinational cells and only closes when
     the group's assignments join the continuous ones. *)
  let ctx =
    main_with
      ~cells:[ reg "r" 8; prim "a" "std_add" [ 8 ]; prim "b" "std_add" [ 8 ] ]
      ~continuous:[ assign (port "b" "left") (pa "a" "out") ]
      ~groups:
        [
          group "g"
            [
              assign (port "a" "left") (pa "b" "out");
              assign (port "a" "right") (lit ~width:8 1);
              assign (port "b" "right") (lit ~width:8 1);
              assign (port "r" "in") (pa "a" "out");
              assign (port "r" "write_en") (bit true);
              assign (hole "g" "done") (pa "r" "done");
            ];
        ]
      (enable "g")
  in
  let ds = lint ctx in
  has "cross-scope cycle" "CX021" ds;
  Alcotest.(check bool)
    "located in the group" true
    (List.exists
       (fun d ->
         match d.Diagnostics.loc with
         | Diagnostics.Group { group = "g"; _ } -> true
         | _ -> false)
       ds)

let test_register_breaks_cycle () =
  (* a.left = r.out; r.in = a.out — sequential feedback, not a cycle. *)
  let ctx =
    main_with
      ~cells:[ reg "r" 8; prim "a" "std_add" [ 8 ] ]
      ~groups:
        [
          group "g"
            [
              assign (port "a" "left") (pa "r" "out");
              assign (port "a" "right") (lit ~width:8 1);
              assign (port "r" "in") (pa "a" "out");
              assign (port "r" "write_en") (bit true);
              assign (hole "g" "done") (pa "r" "done");
            ];
        ]
      (enable "g")
  in
  clean "register feedback" (lint ctx)

(* ------------------------------------------------------------------ *)
(* CX022: overlapping guarded drivers                                  *)
(* ------------------------------------------------------------------ *)

let overlap_prog ?(cells = [ reg "r" 8; reg "c" 1; reg "d" 1 ]) guard1 guard2
    =
  main_with ~cells
    ~groups:
      [
        group "g"
          [
            assign ~guard:guard1 (port "r" "in") (lit ~width:8 1);
            assign ~guard:guard2 (port "r" "in") (lit ~width:8 2);
            assign (port "r" "write_en") (bit true);
            assign (hole "g" "done") (pa "r" "done");
          ];
      ]
    (enable "g")

let test_overlap_flagged () =
  (* Guards over two unrelated registers: nothing proves exclusivity. *)
  let ds = lint (overlap_prog (g_port "c" "out") (g_port "d" "out")) in
  has "unrelated guards" "CX022" ds;
  Alcotest.(check bool)
    "only a warning" true
    (Diagnostics.errors_of ds = [])

let test_overlap_with_continuous () =
  (* Conflicting drivers split across a group and a continuous
     assignment. *)
  let main =
    component "main"
    |> with_cells [ reg "r" 8; reg "c" 1 ]
    |> with_continuous [ assign (port "r" "in") (lit ~width:8 7) ]
    |> with_groups
         [
           group "g"
             [
               assign ~guard:(g_port "c" "out") (port "r" "in")
                 (lit ~width:8 1);
               assign (port "r" "write_en") (bit true);
               assign (hole "g" "done") (pa "r" "done");
             ];
         ]
    |> with_control (enable "g")
  in
  has "group vs continuous" "CX022" (lint (context [ main ]))

(* Two groups drive one port under unrelated guards. They never share a
   scope, so the pair is not reported. *)
let two_groups_prog () =
  let drive name value guard =
    group name
      [
        assign ~guard (port "r" "in") (lit ~width:8 value);
        assign (port "r" "write_en") (bit true);
        assign (hole name "done") (pa "r" "done");
      ]
  in
  main_with
    ~cells:[ reg "r" 8; reg "c" 1; reg "d" 1 ]
    ~groups:
      [ drive "a" 1 (g_port "c" "out"); drive "b" 2 (g_port "d" "out") ]
    (seq [ enable "a"; enable "b" ])

let test_two_groups_clean () = clean "two groups" (lint (two_groups_prog ()))

let one_bit_cells = [ reg "r" 8; reg "c" 1 ]

let test_complementary_guards_clean () =
  clean "g vs !g"
    (lint
       (overlap_prog ~cells:one_bit_cells (g_port "c" "out")
          (g_not (g_port "c" "out"))))

let test_distinct_constants_clean () =
  clean "x == 0 vs x == 1"
    (lint
       (overlap_prog ~cells:one_bit_cells
          (g_eq (pa "c" "out") (lit ~width:1 0))
          (g_eq (pa "c" "out") (lit ~width:1 1))))

let test_complementary_cmps_clean () =
  clean "x < y vs x >= y"
    (lint
       (overlap_prog
          (g_lt (pa "c" "out") (pa "d" "out"))
          (g_ge (pa "c" "out") (pa "d" "out"))))

(* ------------------------------------------------------------------ *)
(* CX023 / CX024: dead code                                            *)
(* ------------------------------------------------------------------ *)

let test_dead_group () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8 ]
      ~groups:
        [
          write "used" ~reg:"x" ~value:(lit ~width:8 1);
          write "zombie" ~reg:"x" ~value:(lit ~width:8 2);
        ]
      (enable "used")
  in
  let ds = lint ctx in
  check_codes "dead group" [ "CX023" ] ds;
  has "dead group" "CX023" ds

let test_dead_cell () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8; reg "zombie" 8 ]
      ~groups:[ write "g" ~reg:"x" ~value:(lit ~width:8 1) ]
      (enable "g")
  in
  check_codes "dead cell" [ "CX024" ] (lint ctx)

let test_external_memory_not_dead () =
  (* External memories are the design's interface: never dead. *)
  let ctx =
    main_with
      ~cells:
        [ reg "x" 8; mem_d1 ~external_:true "m" ~width:8 ~size:4 ~idx:2 ]
      ~groups:[ write "g" ~reg:"x" ~value:(lit ~width:8 1) ]
      (enable "g")
  in
  clean "external memory" (lint ctx)

(* ------------------------------------------------------------------ *)
(* CX025: latency contracts                                            *)
(* ------------------------------------------------------------------ *)

let test_latency_contract_violation () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8 ]
      ~groups:
        [
          write
            ~attrs:(Attrs.with_static 3 Attrs.empty)
            "g" ~reg:"x" ~value:(lit ~width:8 1);
        ]
      (enable "g")
  in
  has "group annotated 3, derives 1" "CX025" (lint ctx)

let test_latency_annotation_correct () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8 ]
      ~groups:
        [
          write
            ~attrs:(Attrs.with_static 1 Attrs.empty)
            "g" ~reg:"x" ~value:(lit ~width:8 1);
        ]
      (enable "g")
  in
  clean "correct annotation" (lint ctx)

let test_component_latency_contract () =
  let main =
    component ~attrs:(Attrs.with_static 5 Attrs.empty) "main"
    |> with_cells [ reg "x" 8 ]
    |> with_groups
         [
           write
             ~attrs:(Attrs.with_static 1 Attrs.empty)
             "one" ~reg:"x" ~value:(lit ~width:8 1);
           write
             ~attrs:(Attrs.with_static 1 Attrs.empty)
             "two" ~reg:"x" ~value:(lit ~width:8 2);
         ]
    |> with_control (seq [ enable "one"; enable "two" ])
  in
  let ds = lint (context [ main ]) in
  has "component annotated 5, control takes 2" "CX025" ds

(* ------------------------------------------------------------------ *)
(* Well-formedness companions: invoke outputs, condition ports         *)
(* ------------------------------------------------------------------ *)

let sub_component () =
  component "sub" ~inputs:[ ("x", 8) ] ~outputs:[ ("res", 8) ]
  |> with_continuous
       [ assign (this "res") (lit ~width:8 0); assign (this "done") (bit true) ]

let invoke_prog outputs =
  context
    [
      sub_component ();
      component "main"
      |> with_cells [ instance "s" "sub"; reg "r" 8 ]
      |> with_control (invoke ~outputs "s" [ ("x", lit ~width:8 1) ]);
    ]

let wf ctx = Well_formed.diagnostics ctx

let test_invoke_outputs_ok () =
  clean "valid output binding"
    (wf (invoke_prog [ ("res", port "r" "in") ]))

let test_invoke_output_unknown_port () =
  has "no such output" "CX011" (wf (invoke_prog [ ("nope", port "r" "in") ]))

let test_invoke_output_unwritable_dst () =
  has "destination not writable" "CX011"
    (wf (invoke_prog [ ("res", port "r" "out") ]))

let test_invoke_output_width_mismatch () =
  let ctx =
    context
      [
        sub_component ();
        component "main"
        |> with_cells [ instance "s" "sub"; reg "r" 4 ]
        |> with_control
             (invoke ~outputs:[ ("res", port "r" "in") ] "s"
                [ ("x", lit ~width:8 1) ]);
      ]
  in
  has "width mismatch" "CX011" (wf ctx)

let test_cond_port_not_readable () =
  let ctx =
    main_with
      ~cells:[ reg "x" 8; prim "lt" "std_lt" [ 8 ] ]
      ~groups:[ write "g" ~reg:"x" ~value:(lit ~width:8 1) ]
      (while_ (Cell_port ("lt", "left")) (enable "g"))
  in
  has "condition reads an input port" "CX010" (wf ctx)

(* End-to-end: the corpus stays warning-free. *)
let example file =
  (* dune runtest runs in the test directory; dune exec from the root. *)
  List.find Sys.file_exists
    [ "../examples/sources/" ^ file; "examples/sources/" ^ file ]

let test_examples_clean () =
  List.iter
    (fun file ->
      let ctx = Parser.parse_file (example file) in
      clean file (lint ctx))
    [ "counter.futil"; "invoke.futil" ]

let test_systolic_clean () =
  let ctx =
    Systolic.generate { Systolic.rows = 2; cols = 2; depth = 2; width = 32 }
  in
  clean "generated systolic array" (lint ctx)

(* ------------------------------------------------------------------ *)
(* CX021 and CX022 against the reference reporters                     *)
(* ------------------------------------------------------------------ *)

(* The reference reporters, keyed by printed port names and rebuilt per
   scope. *)
module Reference = struct
  let port_key p = Format.asprintf "%a" pp_port_ref p

  (* CX021: one graph per evaluation scope over printed port names, built
     from the scope's assignments and the arcs of the cells they touch,
     searched from every port. The continuous assignments are one scope;
     each group's assignments with them another. A cycle is reported
     once, in the first scope that finds it. *)
  let cell_arcs cells c =
    match Hashtbl.find_opt cells c with
    | Some { cell_proto = Prim (name, params); _ } -> (
        try Prims.comb_arcs name params
        with Prims.Unknown_primitive _ | Invalid_argument _ -> [])
    | Some { cell_proto = Comp _; _ } | None -> []

  let scope_cycles ~cells ~seen assigns =
    let succ : (string, string list ref) Hashtbl.t = Hashtbl.create 64 in
    let edges = Hashtbl.create 64 in
    let edge a b =
      if not (Hashtbl.mem edges (a, b)) then begin
        Hashtbl.replace edges (a, b) ();
        match Hashtbl.find_opt succ a with
        | Some l -> l := b :: !l
        | None -> Hashtbl.replace succ a (ref [ b ])
      end
    in
    let used = ref String_set.empty in
    let note_port = function
      | Cell_port (c, _) -> used := String_set.add c !used
      | _ -> ()
    in
    List.iter
      (fun a ->
        note_port a.dst;
        List.iter
          (function
            | Port p ->
                note_port p;
                edge (port_key p) (port_key a.dst)
            | Lit _ -> ())
          (assignment_atoms a))
      assigns;
    String_set.iter
      (fun c ->
        List.iter
          (fun (i, o) ->
            edge (port_key (Cell_port (c, i))) (port_key (Cell_port (c, o))))
          (cell_arcs cells c))
      !used;
    let state = Hashtbl.create 64 in
    let cycles = ref [] in
    let rec dfs path node =
      match Hashtbl.find_opt state node with
      | Some `Done -> ()
      | Some `Active ->
          let rec take acc = function
            | [] -> List.rev acc
            | n :: rest ->
                if String.equal n node then List.rev (n :: acc)
                else take (n :: acc) rest
          in
          let cycle = take [] path in
          let key = String.concat "\x00" (List.sort String.compare cycle) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            cycles := cycle :: !cycles
          end
      | None ->
          Hashtbl.replace state node `Active;
          (match Hashtbl.find_opt succ node with
          | Some l -> List.iter (dfs (node :: path)) !l
          | None -> ());
          Hashtbl.replace state node `Done
    in
    Hashtbl.iter (fun node _ -> dfs [ node ] node) succ;
    List.rev !cycles

  let comb_cycles comp =
    let cells = cell_index comp in
    let seen = Hashtbl.create 16 in
    let diag loc cycle =
      Diagnostics.error ~code:"CX021" ~loc "combinational cycle: %s"
        (String.concat " -> " (cycle @ [ List.hd cycle ]))
    in
    List.map
      (diag (Diagnostics.Component comp.comp_name))
      (scope_cycles ~cells ~seen comp.continuous)
    @ List.concat_map
        (fun g ->
          List.map
            (diag
               (Diagnostics.Group
                  { comp = comp.comp_name; group = g.group_name }))
            (scope_cycles ~cells ~seen (g.assigns @ comp.continuous)))
        comp.groups

  (* CX022: one scope for the continuous assignments and one per group
     holding that group's assignments and the continuous ones, every pair
     of a port's drivers tested within a scope. A group scope reports only
     the pairs that involve one of its own assignments; continuous pairs
     are reported once, by the component scope. *)
  let overlapping_drivers comp =
    let exclusive = Lint.exclusive comp in
    let diags = ref [] in
    let scope ~loc ~in_scope assigns =
      let by_dst = Hashtbl.create 16 in
      List.iter
        (fun (a, own) ->
          let k = port_key a.dst in
          let prev =
            match Hashtbl.find_opt by_dst k with Some l -> l | None -> []
          in
          Hashtbl.replace by_dst k ((a, own) :: prev))
        (List.map (fun a -> (a, in_scope a)) assigns);
      Hashtbl.iter
        (fun dst drivers ->
          let rec pairs = function
            | [] -> ()
            | (a1, own1) :: rest ->
                List.iter
                  (fun (a2, own2) ->
                    if
                      (own1 || own2)
                      && not (a1.guard = True && a2.guard = True)
                      && not (exclusive a1.guard a2.guard)
                    then
                      diags :=
                        Diagnostics.warning ~code:"CX022" ~loc
                          "port %s has multiple drivers whose guards are not \
                           provably exclusive: [%a] vs [%a]"
                          dst pp_guard a1.guard pp_guard a2.guard
                        :: !diags)
                  rest;
                pairs rest
          in
          pairs drivers)
        by_dst
    in
    scope
      ~loc:(Diagnostics.Component comp.comp_name)
      ~in_scope:(fun _ -> true)
      comp.continuous;
    List.iter
      (fun g ->
        let mine a = List.exists (fun a' -> a' == a) g.assigns in
        scope
          ~loc:(Diagnostics.Group { comp = comp.comp_name; group = g.group_name })
          ~in_scope:mine
          (g.assigns @ comp.continuous))
      comp.groups;
    !diags
end

(* The program as given and lowered. *)
let stages ctx =
  [
    ("structured", ctx);
    ( "lowered",
      Pipelines.compile
        ~config:{ Pipelines.default_config with lint = false }
        ctx );
  ]

(* A CX021 diagnostic as its location and the set of ports on its cycle,
   so two reporters that walk a cycle from different ports agree. *)
let cycle_of (d : Diagnostics.t) =
  let prefix = "combinational cycle: " in
  let p = String.length prefix in
  let ports =
    String.sub d.message p (String.length d.message - p)
    |> String.split_on_char ' '
    |> List.filter (fun w -> w <> "->")
  in
  (d.loc, List.sort_uniq String.compare ports)

(* Every component's [code] diagnostics equal [reference]'s, compared
   sorted after [norm]. Returns how many diagnostics the two agreed on. *)
let same ~code ~reference ~norm name ctx =
  List.fold_left
    (fun total comp ->
      if comp.is_extern <> None then total
      else
        let got =
          List.filter
            (fun d -> String.equal d.Diagnostics.code code)
            (Lint.component_diagnostics ctx comp)
        in
        let expected = reference comp in
        let sorted ds = List.sort compare (List.map norm ds) in
        if sorted expected <> sorted got then
          Alcotest.failf
            "%s, component %s: %s differs from the reference\n\
            \  reference (%d):\n%s\n  rule (%d):\n%s"
            name comp.comp_name code (List.length expected)
            (Diagnostics.render_all expected)
            (List.length got) (Diagnostics.render_all got);
        total + List.length got)
    0 ctx.components

(* [same] on the program as given and lowered. *)
let agrees ~code ~reference ~norm name ctx =
  List.fold_left
    (fun n (stage, ctx) ->
      n + same ~code ~reference ~norm (Printf.sprintf "%s (%s)" name stage) ctx)
    0 (stages ctx)

(* CX022 compares whole diagnostics, locations and messages included;
   CX021 compares each cycle as a set of ports, locations included. *)
let cx022_agrees =
  agrees ~code:"CX022" ~reference:Reference.overlapping_drivers ~norm:Fun.id

let cx021_same =
  same ~code:"CX021" ~reference:Reference.comb_cycles ~norm:cycle_of

let cx021_agrees =
  agrees ~code:"CX021" ~reference:Reference.comb_cycles ~norm:cycle_of

let prop_cx022_fuzz =
  QCheck.Test.make ~name:"random programs: CX022 = pairwise reference"
    ~count:1000
    (Fuzz_seed.spec_arb "cx022-reference")
    (fun spec ->
      ignore (cx022_agrees (Fuzz_gen.to_string spec) (Fuzz_gen.build spec));
      true)

let parse_source path =
  if Filename.check_suffix path ".dahlia" then
    Dahlia.To_calyx.compile
      (Dahlia.Parser.parse_string
         (In_channel.with_open_bin path In_channel.input_all))
  else Parser.parse_file path

(* The examples, the 30 PolyBench variants and four systolic arrays. *)
let corpus () =
  let examples =
    ("two groups", two_groups_prog ())
    :: List.map
         (fun file -> (file, parse_source (example file)))
         [ "counter.futil"; "invoke.futil"; "dotprod.dahlia"; "histogram.dahlia" ]
  in
  let polybench =
    List.concat_map
      (fun (k : Polybench.Kernels.kernel) ->
        (k.name, Polybench.Harness.build k ~unrolled:false)
        ::
        (if k.unrolled <> None then
           [ (k.name ^ "-unrolled", Polybench.Harness.build k ~unrolled:true) ]
         else []))
      Polybench.Kernels.all
  in
  let systolic =
    List.map
      (fun (rows, depth, cols) ->
        ( Printf.sprintf "systolic-%dx%dx%d" rows depth cols,
          Systolic.generate { Systolic.rows; cols; depth; width = 32 } ))
      [ (4, 4, 4); (8, 8, 8); (12, 12, 12); (5, 12, 7) ]
  in
  Alcotest.(check int) "PolyBench variants" 30 (List.length polybench);
  examples @ polybench @ systolic

let test_cx022_corpus () =
  let warnings =
    List.fold_left
      (fun n (name, ctx) -> n + cx022_agrees name ctx)
      0 (corpus ())
  in
  (* The lowered systolic arrays alone carry thousands of warnings, so an
     empty comparison would show nothing. *)
  Alcotest.(check bool) "the corpus has CX022 warnings" true (warnings > 1000)

let prop_cx021_fuzz =
  QCheck.Test.make ~name:"random programs: CX021 = reference" ~count:1000
    (Fuzz_seed.spec_arb "cx021-reference")
    (fun spec ->
      ignore (cx021_agrees (Fuzz_gen.to_string spec) (Fuzz_gen.build spec));
      true)

(* The corpus compiles, so it is cycle-free: the rule must stay as silent
   as the reference on it. The fixtures below carry the cycles. *)
let test_cx021_corpus () =
  Alcotest.(check int)
    "no cycles" 0
    (List.fold_left
       (fun n (name, ctx) -> n + cx021_agrees name ctx)
       0 (corpus ()))

(* The rule's CX021 locations on [ctx], after checking it against the
   reference. *)
let cycle_locs name ctx =
  Well_formed.check ctx;
  ignore (cx021_same name ctx);
  List.filter_map
    (fun d ->
      if String.equal d.Diagnostics.code "CX021" then Some d.Diagnostics.loc
      else None)
    (Lint.diagnostics ctx)

let at_group g = Diagnostics.Group { comp = "main"; group = g }

let test_two_disjoint_cycles () =
  let ctx =
    main_with
      ~cells:
        [
          prim "a" "std_add" [ 8 ];
          prim "b" "std_add" [ 8 ];
          prim "c" "std_add" [ 8 ];
        ]
      ~continuous:
        [
          assign (port "a" "left") (pa "a" "out");
          assign (port "b" "left") (pa "c" "out");
          assign (port "c" "left") (pa "b" "out");
        ]
      Empty
  in
  Alcotest.(check int)
    "two cycles in the continuous scope" 2
    (List.length (cycle_locs "two disjoint cycles" ctx))

let test_cycle_through_hole () =
  (* g[done] = n.out; n.in = g[done]: the cycle runs through the hole. *)
  let ctx =
    main_with
      ~cells:[ prim "n" "std_not" [ 1 ] ]
      ~groups:
        [
          group "g"
            [
              assign (port "n" "in") (ha "g" "done");
              assign (hole "g" "done") (pa "n" "out");
            ];
        ]
      (enable "g")
  in
  Alcotest.(check bool)
    "one cycle, in g" true
    (cycle_locs "cycle through a hole" ctx = [ at_group "g" ])

(* [a.left = b.out] in each named group closes [b.left = a.out]. *)
let closing_groups closing =
  let drive name closes =
    group name
      [
        assign (port "a" "left")
          (if closes then pa "b" "out" else pa "r" "out");
        assign (hole name "done") (bit true);
      ]
  in
  main_with
    ~cells:[ reg "r" 8; prim "a" "std_add" [ 8 ]; prim "b" "std_add" [ 8 ] ]
    ~continuous:[ assign (port "b" "left") (pa "a" "out") ]
    ~groups:(List.map (fun (g, closes) -> drive g closes) closing)
    (seq (List.map (fun (g, _) -> enable g) closing))

let test_cycle_closed_by_group () =
  (* [h] runs after [g]; it must not see [g]'s edges. *)
  Alcotest.(check bool)
    "one cycle, in g" true
    (cycle_locs "closed by one group"
       (closing_groups [ ("g", true); ("h", false) ])
    = [ at_group "g" ])

let test_halves_in_two_groups_clean () =
  (* g drives a.left from b.out and h drives b.left from a.out: the two
     edges never share a scope. *)
  let ctx =
    main_with
      ~cells:[ prim "a" "std_add" [ 8 ]; prim "b" "std_add" [ 8 ] ]
      ~groups:
        [
          group "g"
            [
              assign (port "a" "left") (pa "b" "out");
              assign (hole "g" "done") (bit true);
            ];
          group "h"
            [
              assign (port "b" "left") (pa "a" "out");
              assign (hole "h" "done") (bit true);
            ];
        ]
      (seq [ enable "g"; enable "h" ])
  in
  Alcotest.(check int)
    "no cycle" 0
    (List.length (cycle_locs "halves in two groups" ctx))

let test_cycle_closed_by_two_groups () =
  Alcotest.(check bool)
    "one cycle, at the first group" true
    (cycle_locs "closed by two groups"
       (closing_groups [ ("g1", true); ("g2", true) ])
    = [ at_group "g1" ])

(* ------------------------------------------------------------------ *)
(* Primitive arcs                                                      *)
(* ------------------------------------------------------------------ *)

let arcs msg name params expected =
  Alcotest.(check (list (pair string string)))
    msg expected (Prims.comb_arcs name params)

let test_comb_arcs () =
  arcs "binop" "std_add" [ 8 ] [ ("left", "out"); ("right", "out") ];
  arcs "comparison" "std_lt" [ 8 ] [ ("left", "out"); ("right", "out") ];
  arcs "std_not" "std_not" [ 4 ] [ ("in", "out") ];
  arcs "std_const" "std_const" [ 4; 3 ] [];
  arcs "std_slice" "std_slice" [ 8; 4 ] [ ("in", "out") ];
  arcs "std_reg" "std_reg" [ 8 ] [];
  arcs "std_mult_pipe" "std_mult_pipe" [ 32 ] [];
  arcs "std_div_pipe" "std_div_pipe" [ 32 ] [];
  arcs "std_sqrt" "std_sqrt" [ 32 ] [];
  arcs "std_mem_d1" "std_mem_d1" [ 32; 4; 2 ] [ ("addr0", "read_data") ];
  arcs "std_mem_d2" "std_mem_d2" [ 32; 4; 4; 2; 2 ]
    [ ("addr0", "read_data"); ("addr1", "read_data") ]

let () =
  Alcotest.run "lint"
    [
      ( "par races",
        [
          Alcotest.test_case "write/write flagged" `Quick
            test_par_race_write_write;
          Alcotest.test_case "combinational read flagged" `Quick
            test_par_race_comb_read;
          Alcotest.test_case "register shift clean" `Quick
            test_par_shift_idiom_clean;
          Alcotest.test_case "disjoint arms clean" `Quick
            test_par_disjoint_clean;
        ] );
      ( "combinational cycles",
        [
          Alcotest.test_case "continuous cycle flagged" `Quick
            test_comb_cycle_continuous;
          Alcotest.test_case "group cycle flagged" `Quick
            test_comb_cycle_in_group;
          Alcotest.test_case "register feedback clean" `Quick
            test_register_breaks_cycle;
        ] );
      ( "overlapping drivers",
        [
          Alcotest.test_case "unrelated guards flagged" `Quick
            test_overlap_flagged;
          Alcotest.test_case "group vs continuous flagged" `Quick
            test_overlap_with_continuous;
          Alcotest.test_case "complementary guards clean" `Quick
            test_complementary_guards_clean;
          Alcotest.test_case "distinct constants clean" `Quick
            test_distinct_constants_clean;
          Alcotest.test_case "complementary comparisons clean" `Quick
            test_complementary_cmps_clean;
          Alcotest.test_case "drivers of two groups clean" `Quick
            test_two_groups_clean;
        ] );
      ( "dead code",
        [
          Alcotest.test_case "dead group flagged" `Quick test_dead_group;
          Alcotest.test_case "dead cell flagged" `Quick test_dead_cell;
          Alcotest.test_case "external memory exempt" `Quick
            test_external_memory_not_dead;
        ] );
      ( "latency contracts",
        [
          Alcotest.test_case "wrong group annotation flagged" `Quick
            test_latency_contract_violation;
          Alcotest.test_case "correct annotation clean" `Quick
            test_latency_annotation_correct;
          Alcotest.test_case "wrong component annotation flagged" `Quick
            test_component_latency_contract;
        ] );
      ( "well-formedness",
        [
          Alcotest.test_case "invoke outputs accepted" `Quick
            test_invoke_outputs_ok;
          Alcotest.test_case "unknown output port" `Quick
            test_invoke_output_unknown_port;
          Alcotest.test_case "unwritable destination" `Quick
            test_invoke_output_unwritable_dst;
          Alcotest.test_case "output width mismatch" `Quick
            test_invoke_output_width_mismatch;
          Alcotest.test_case "unreadable condition port" `Quick
            test_cond_port_not_readable;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "example sources clean" `Quick
            test_examples_clean;
          Alcotest.test_case "systolic array clean" `Quick
            test_systolic_clean;
        ] );
      ( "CX022 reference",
        [
          QCheck_alcotest.to_alcotest prop_cx022_fuzz;
          Alcotest.test_case "examples, polybench, systolic" `Quick
            test_cx022_corpus;
        ] );
      ( "CX021 reference",
        [
          QCheck_alcotest.to_alcotest prop_cx021_fuzz;
          Alcotest.test_case "examples, polybench, systolic" `Quick
            test_cx021_corpus;
          Alcotest.test_case "two disjoint cycles" `Quick
            test_two_disjoint_cycles;
          Alcotest.test_case "cycle through a hole" `Quick
            test_cycle_through_hole;
          Alcotest.test_case "closed by one group" `Quick
            test_cycle_closed_by_group;
          Alcotest.test_case "closed by two groups" `Quick
            test_cycle_closed_by_two_groups;
          Alcotest.test_case "halves in two groups clean" `Quick
            test_halves_in_two_groups_clean;
        ] );
      ("primitive arcs", [ Alcotest.test_case "comb_arcs" `Quick test_comb_arcs ]);
    ]
