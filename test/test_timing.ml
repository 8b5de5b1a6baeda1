(* The delay-annotated static timing analysis (Calyx_synth.Timing): the
   width-aware delay model, exact primitive input->output arcs (no false
   paths through registers), mux and guard delay, hierarchical flattening,
   the clock/wall-time helpers, attribution back to groups and control,
   and a cross-check of the STA's port graph against the simulator's
   Sched levelization. *)

open Calyx
open Calyx.Builder
module Timing = Calyx_synth.Timing
module Sched = Calyx_sim.Sched
module Json = Calyx_telemetry.Json

let example file =
  List.find Sys.file_exists
    [ "../examples/sources/" ^ file; "examples/sources/" ^ file ]

let timing ctx = Timing.context_timing ctx
let delay ctx = (timing ctx).Timing.delay_ps

(* x -> prim -> y, continuous only. *)
let unop_ctx name params =
  let w = match params with w :: _ -> w | [] -> 1 in
  let main =
    component "main" ~inputs:[ ("x", w) ] ~outputs:[ ("y", w) ]
    |> with_cells [ prim "u" name params ]
    |> with_continuous
         [
           assign (port "u" "left") (thisa "x");
           assign (port "u" "right") (lit ~width:w 1);
           assign (this "y") (pa "u" "out");
           assign (this "done") (bit true);
         ]
  in
  context [ main ]

(* ------------------------------------------------------------------ *)
(* Delay model                                                         *)
(* ------------------------------------------------------------------ *)

let test_width_aware () =
  Alcotest.(check bool) "wider adder slower" true
    (delay (unop_ctx "std_add" [ 64 ]) > delay (unop_ctx "std_add" [ 8 ]));
  Alcotest.(check bool) "multiply slower than add" true
    (delay (unop_ctx "std_mult" [ 32 ]) > delay (unop_ctx "std_add" [ 32 ]));
  Alcotest.(check bool) "wide multiply pays DSP cascade" true
    (delay (unop_ctx "std_mult" [ 64 ]) > delay (unop_ctx "std_mult" [ 16 ]))

let test_delay_constants () =
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (List.mem_assoc key Timing.delay_constants))
    [ "t_lut"; "t_carry"; "t_dsp"; "t_clk_q"; "t_setup"; "min_period_ps" ];
  List.iter
    (fun (k, v) -> Alcotest.(check bool) (k ^ " positive") true (v > 0))
    Timing.delay_constants

let test_mux_adds_delay () =
  let wire_ctx two =
    let drivers =
      if two then
        [
          assign ~guard:(g_this "go") (port "w" "in") (thisa "x");
          assign ~guard:(g_not (g_this "go")) (port "w" "in") (lit ~width:8 0);
        ]
      else [ assign (port "w" "in") (thisa "x") ]
    in
    let main =
      component "main" ~inputs:[ ("x", 8) ] ~outputs:[ ("y", 8) ]
      |> with_cells [ prim "w" "std_wire" [ 8 ] ]
      |> with_continuous
           (drivers
           @ [ assign (this "y") (pa "w" "out"); assign (this "done") (bit true) ])
    in
    context [ main ]
  in
  Alcotest.(check bool) "second driver adds mux+guard delay" true
    (delay (wire_ctx true) > delay (wire_ctx false))

(* ------------------------------------------------------------------ *)
(* Exact arcs (no false paths)                                         *)
(* ------------------------------------------------------------------ *)

let reachable edges src dst =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun (s, d) ->
      Hashtbl.replace adj s (d :: Option.value ~default:[] (Hashtbl.find_opt adj s)))
    edges;
  let seen = Hashtbl.create 64 in
  let rec go n =
    n = dst
    || (not (Hashtbl.mem seen n))
       && begin
            Hashtbl.replace seen n ();
            List.exists go (Option.value ~default:[] (Hashtbl.find_opt adj n))
          end
  in
  go src

let test_register_has_no_input_output_arc () =
  let main =
    component "main" ~inputs:[ ("x", 8) ] ~outputs:[ ("y", 8) ]
    |> with_cells [ reg "r" 8 ]
    |> with_continuous
         [
           assign (port "r" "in") (thisa "x");
           assign (port "r" "write_en") (g_this "go" |> fun _ -> bit true);
           assign (this "y") (pa "r" "out");
           assign (this "done") (pa "r" "done");
         ]
  in
  let ctx = context [ main ] in
  let edges = Timing.port_edges ctx (Ir.entry ctx) in
  Alcotest.(check bool) "x does not combinationally reach y" false
    (reachable edges "x" "y");
  Alcotest.(check bool) "x reaches the register input" true
    (reachable edges "x" "r.in")

(* A child whose input only feeds a register must not leak a false
   input->output arc into the parent (the old conservative assumption);
   a combinational child must still propagate. *)
let test_child_arcs_exact () =
  let child_regged =
    component "regged" ~inputs:[ ("a", 8) ] ~outputs:[ ("b", 8) ]
    |> with_cells [ reg "r" 8 ]
    |> with_continuous
         [
           assign (port "r" "in") (thisa "a");
           assign (port "r" "write_en") (g_this "go" |> fun _ -> bit true);
           assign (this "b") (pa "r" "out");
           assign (this "done") (pa "r" "done");
         ]
  in
  let child_comb =
    component "comb" ~inputs:[ ("a", 8) ] ~outputs:[ ("b", 8) ]
    |> with_cells [ prim "n" "std_not" [ 8 ] ]
    |> with_continuous
         [
           assign (port "n" "in") (thisa "a");
           assign (this "b") (pa "n" "out");
           assign (this "done") (bit true);
         ]
  in
  let main which =
    let m =
      component "main" ~inputs:[ ("x", 8) ] ~outputs:[ ("y", 8) ]
      |> with_cells [ instance "c" which ]
      |> with_continuous
           [
             assign (port "c" "a") (thisa "x");
             assign (this "y") (pa "c" "b");
             assign (this "done") (bit true);
           ]
    in
    context [ m; (if which = "regged" then child_regged else child_comb) ]
  in
  let ctx_reg = main "regged" and ctx_comb = main "comb" in
  let edges_reg = Timing.port_edges ctx_reg (Ir.entry ctx_reg) in
  let edges_comb = Timing.port_edges ctx_comb (Ir.entry ctx_comb) in
  Alcotest.(check bool) "registered child cuts the path" false
    (reachable edges_reg "x" "y");
  Alcotest.(check bool) "combinational child propagates" true
    (reachable edges_comb "x" "y")

(* ------------------------------------------------------------------ *)
(* Register insertion never lengthens the critical path                *)
(* ------------------------------------------------------------------ *)

(* A chain of W-bit adders x -> a0 -> a1 -> ... -> y, optionally with a
   register spliced in after adder [cut]. *)
let adder_chain ~w ~len ~cut =
  let cells =
    List.init len (fun i -> prim (Printf.sprintf "a%d" i) "std_add" [ w ])
    @ (match cut with None -> [] | Some _ -> [ reg "r" w ])
  in
  let feed i =
    (* The atom driving adder [i]'s left input. *)
    if i = 0 then thisa "x"
    else if cut = Some (i - 1) then pa "r" "out"
    else pa (Printf.sprintf "a%d" (i - 1)) "out"
  in
  let assigns =
    List.concat
      (List.init len (fun i ->
           [
             assign (port (Printf.sprintf "a%d" i) "left") (feed i);
             assign (port (Printf.sprintf "a%d" i) "right") (lit ~width:w 1);
           ]))
    @ (match cut with
      | None -> []
      | Some c ->
          [
            assign (port "r" "in") (pa (Printf.sprintf "a%d" c) "out");
            assign (port "r" "write_en") (bit true);
          ])
    @ [
        assign (this "y") (pa (Printf.sprintf "a%d" (len - 1)) "out");
        assign (this "done") (bit true);
      ]
  in
  let main =
    component "main" ~inputs:[ ("x", w) ] ~outputs:[ ("y", w) ]
    |> with_cells cells |> with_continuous assigns
  in
  context [ main ]

let prop_register_cuts =
  QCheck.Test.make
    ~name:"inserting a register on the critical path never increases delay"
    ~count:100
    (Fuzz_seed.seed_arb "timing-register-cut")
    (fun seed ->
      let st = Fuzz_seed.state_of seed in
      let w = 2 + Random.State.int st 62 in
      let len = 2 + Random.State.int st 5 in
      let cut = Random.State.int st (len - 1) in
      delay (adder_chain ~w ~len ~cut:(Some cut))
      <= delay (adder_chain ~w ~len ~cut:None))

let test_register_cut_strict () =
  (* Splicing mid-chain strictly shortens a long combinational chain. *)
  Alcotest.(check bool) "mid-chain register shortens the path" true
    (delay (adder_chain ~w:32 ~len:6 ~cut:(Some 2))
    < delay (adder_chain ~w:32 ~len:6 ~cut:None))

(* ------------------------------------------------------------------ *)
(* Clock helpers                                                       *)
(* ------------------------------------------------------------------ *)

let test_clock_helpers () =
  Alcotest.(check (float 1e-9)) "fmax of 2 ns" 500. (Timing.fmax_of_ps 2000);
  Alcotest.(check (float 1e-9)) "fmax clamps to the fabric floor"
    (Timing.fmax_of_ps Timing.min_period_ps)
    (Timing.fmax_of_ps 1);
  let r = timing (unop_ctx "std_add" [ 32 ]) in
  Alcotest.(check bool) "period floors at min_period_ps" true
    (Timing.period_ps r >= Timing.min_period_ps);
  Alcotest.(check (float 1e-6)) "wall = cycles * period"
    (10. *. Timing.period_ns r)
    (Timing.wall_ns r ~cycles:10);
  Alcotest.(check bool) "slack sign" true
    (Timing.slack_ps r ~period_ps:(r.Timing.delay_ps + 5) = 5
    && Timing.slack_ps r ~period_ps:(r.Timing.delay_ps - 5) = -5)

(* ------------------------------------------------------------------ *)
(* End-to-end on the examples                                          *)
(* ------------------------------------------------------------------ *)

let counter_ctx () = Parser.parse_file (example "counter.futil")

let test_counter_report () =
  let ctx = counter_ctx () in
  let lowered = Pipelines.compile ctx in
  let r = Timing.context_timing ~paths:3 lowered in
  Alcotest.(check bool) "positive delay" true (r.Timing.delay_ps > 0);
  Alcotest.(check bool) "fmax positive" true (r.Timing.fmax_mhz > 0.);
  Alcotest.(check bool) "paths reported" true (List.length r.Timing.paths >= 1);
  Alcotest.(check bool) "critical is the worst path" true
    (r.Timing.critical = (List.hd r.Timing.paths).Timing.p_ports);
  (* Attribution through the structured program: the critical path runs
     through the incr group's adder. *)
  let ats = Timing.attribute ctx r.Timing.critical in
  let groups = List.concat_map (fun a -> a.Timing.at_groups) ats in
  Alcotest.(check bool) "some cell attributed to a group" true (groups <> []);
  Alcotest.(check bool) "control nodes named" true
    (List.exists (fun a -> a.Timing.at_control <> []) ats)

let test_json_parses () =
  let ctx = counter_ctx () in
  let lowered = Pipelines.compile ctx in
  let r = Timing.context_timing ~paths:3 lowered in
  let j =
    Json.parse (Timing.to_json ~attribute_ctx:ctx ~target_period_ps:4000 r)
  in
  let field k = Option.get (Json.member k j) in
  Alcotest.(check bool) "delay_ps numeric" true
    (Json.to_float (field "delay_ps") <> None);
  Alcotest.(check bool) "slack present" true (Json.member "slack_ps" j <> None);
  match field "paths" with
  | Json.Array (p :: _) ->
      Alcotest.(check bool) "path has cells" true (Json.member "cells" p <> None)
  | _ -> Alcotest.fail "no paths in JSON"

(* ------------------------------------------------------------------ *)
(* Path order                                                          *)
(* ------------------------------------------------------------------ *)

(* What [paths:k] promises for k = 1..8: a prefix of [paths:(k+1)],
   worst first with equal delays ordered by (start, end), one path per
   endpoint, each running from its start to its end, with [critical] and
   [delay_ps] the head's; [paths:0] reports no path but the same delay
   and levels. A program whose structured form has a combinational loop
   checks nothing. *)
let check_path_order what ctx =
  match Timing.context_timing ~paths:0 ctx with
  | exception Timing.Combinational_loop _ -> ()
  | r0 ->
      let fail fmt =
        Printf.ksprintf (fun m -> Alcotest.fail (what ^ ": " ^ m)) fmt
      in
      if r0.Timing.paths <> [] then fail "paths:0 reports paths";
      let run k = Timing.context_timing ~paths:k ctx in
      let prev = ref (run 1) in
      for k = 1 to 8 do
        let r = !prev in
        let next = run (k + 1) in
        let ps = r.Timing.paths in
        if List.length ps > k then
          fail "paths:%d keeps %d paths" k (List.length ps);
        if List.filteri (fun i _ -> i < List.length ps) next.Timing.paths <> ps
        then fail "paths:%d is not a prefix of paths:%d" k (k + 1);
        if
          r.Timing.delay_ps <> r0.Timing.delay_ps
          || r.Timing.levels <> r0.Timing.levels
        then fail "paths:%d and paths:0 disagree on delay or levels" k;
        (match ps with
        | [] -> fail "paths:%d reports no path" k
        | p :: _ ->
            if r.Timing.critical <> p.Timing.p_ports then
              fail "paths:%d: critical is not the head path" k;
            if r.Timing.delay_ps <> p.Timing.p_delay_ps then
              fail "paths:%d: delay_ps is not the head path's" k);
        List.iter
          (fun (p : Timing.path) ->
            match p.p_ports with
            | [] -> fail "empty path %s -> %s" p.p_start p.p_end
            | first :: _ ->
                let last = List.nth p.p_ports (List.length p.p_ports - 1) in
                if first <> p.p_start || last <> p.p_end then
                  fail "path %s -> %s runs elsewhere" p.p_start p.p_end)
          ps;
        let ends =
          List.sort_uniq compare
            (List.map (fun (p : Timing.path) -> p.p_end) ps)
        in
        if List.length ends <> List.length ps then
          fail "paths:%d repeats an endpoint" k;
        let rec ordered = function
          | (a : Timing.path) :: (b :: _ as rest) ->
              (a.p_delay_ps > b.p_delay_ps
              || (a.p_delay_ps = b.p_delay_ps
                 && compare (a.p_start, a.p_end) (b.p_start, b.p_end) < 0))
              && ordered rest
          | _ -> true
        in
        if not (ordered ps) then fail "paths:%d out of order" k;
        prev := next
      done

let check_compiled what structured =
  check_path_order (what ^ " structured") structured;
  List.iter
    (fun (cname, config) ->
      check_path_order
        (what ^ " lowered " ^ cname)
        (Pipelines.compile ~config structured))
    [
      ("default", Pipelines.default_config);
      ("insensitive", Pipelines.insensitive_config);
    ]

let prop_path_order =
  QCheck.Test.make ~name:"path order on fuzzed programs" ~count:30
    (Fuzz_seed.seed_arb "timing-path-order")
    (fun seed ->
      check_compiled (Fuzz_seed.print_seed "timing-path-order" seed)
        (Fuzz_gen.program_of_seed seed);
      true)

let test_path_order_systolic () =
  List.iter
    (fun (rows, cols, depth) ->
      check_compiled
        (Printf.sprintf "systolic %dx%dx%d" rows cols depth)
        (Systolic.generate Systolic.{ rows; cols; depth; width = 32 }))
    [ (4, 4, 4); (5, 12, 7) ]

(* ------------------------------------------------------------------ *)
(* Cross-check against the simulator's Sched levelization             *)
(* ------------------------------------------------------------------ *)

(* Build a Sched graph whose nodes are the STA's port edges: node i reads
   its edge's source slot and writes its destination slot. Consecutive
   edges along the reported critical path must then sit on strictly
   increasing Sched levels — the same partial order the simulator's
   compiled engine derives independently. *)
let test_sched_levels_agree () =
  let lowered = Pipelines.compile (counter_ctx ()) in
  let edges = Timing.port_edges lowered (Ir.entry lowered) in
  let slot = Hashtbl.create 64 in
  let slot_of p =
    match Hashtbl.find_opt slot p with
    | Some i -> i
    | None ->
        let i = Hashtbl.length slot in
        Hashtbl.replace slot p i;
        i
  in
  let nodes =
    Array.of_list
      (List.map (fun (s, d) -> ([ slot_of s ], [], [ slot_of d ])) edges)
  in
  let g = Sched.build ~slots:(Hashtbl.length slot) ~nodes in
  let edge_index = Hashtbl.create 64 in
  List.iteri (fun i e -> Hashtbl.replace edge_index e i) edges;
  let r = Timing.context_timing lowered in
  let path = Array.of_list r.Timing.critical in
  Alcotest.(check bool) "critical path long enough" true (Array.length path >= 2);
  for i = 0 to Array.length path - 3 do
    let e1 = Hashtbl.find edge_index (path.(i), path.(i + 1)) in
    let e2 = Hashtbl.find edge_index (path.(i + 1), path.(i + 2)) in
    if not (Sched.cyclic g e1 || Sched.cyclic g e2) then
      Alcotest.(check bool)
        (Printf.sprintf "level increases at %s" path.(i + 1))
        true
        (Sched.level g e1 < Sched.level g e2)
  done

(* Loop reports are deterministic: the search walks ports in id order
   (signature, then each cell's ports), so here it enters the w1/w2 cycle
   from w0 at w2.in, although w1.in is numbered lower. *)
let test_loop_port () =
  let main =
    component "main"
    |> with_cells
         (List.map (fun w -> prim w "std_wire" [ 1 ]) [ "w0"; "w1"; "w2" ])
    |> with_continuous
         [
           assign (port "w2" "in") (pa "w0" "out");
           assign (port "w1" "in") (pa "w2" "out");
           assign (port "w2" "in") (pa "w1" "out");
           assign (this "done") (pa "w1" "out");
         ]
  in
  Alcotest.(check string) "first looping port reached" "w2.in"
    (try
       ignore (timing (context [ main ]));
       "no loop"
     with Timing.Combinational_loop port -> port)

let () =
  Alcotest.run "timing"
    [
      ( "delay model",
        [
          Alcotest.test_case "width-aware" `Quick test_width_aware;
          Alcotest.test_case "calibration table" `Quick test_delay_constants;
          Alcotest.test_case "mux delay" `Quick test_mux_adds_delay;
        ] );
      ( "exact arcs",
        [
          Alcotest.test_case "register input/output" `Quick
            test_register_has_no_input_output_arc;
          Alcotest.test_case "child components" `Quick test_child_arcs_exact;
        ] );
      ( "register insertion",
        [
          Alcotest.test_case "strict mid-chain cut" `Quick
            test_register_cut_strict;
          QCheck_alcotest.to_alcotest prop_register_cuts;
        ] );
      ( "clock helpers",
        [ Alcotest.test_case "fmax/period/wall/slack" `Quick test_clock_helpers ] );
      ( "end to end",
        [
          Alcotest.test_case "counter report + attribution" `Quick
            test_counter_report;
          Alcotest.test_case "json round-trips" `Quick test_json_parses;
          Alcotest.test_case "combinational loop port" `Quick test_loop_port;
        ] );
      ( "path order",
        [
          QCheck_alcotest.to_alcotest prop_path_order;
          Alcotest.test_case "systolic" `Quick test_path_order_systolic;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "Sched levelization agrees" `Quick
            test_sched_levels_agree;
        ] );
    ]
