(* Semantics tests for the reference interpreter (structured programs). *)

open Calyx

(* The reference interpreter is the fixpoint engine. *)
let create ctx = Calyx_sim.Sim.create ~engine:`Fixpoint ctx

let run_ctx ?max_cycles ctx =
  Well_formed.check ctx;
  let sim = create ctx in
  let cycles = Calyx_sim.Sim.run ?max_cycles sim in
  (sim, cycles)

let reg_int sim path = Bitvec.to_int (Calyx_sim.Sim.read_register sim path)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_seq_writes () =
  let sim, cycles = run_ctx (Progs.two_writes_seq ()) in
  (* Each register write takes two latency-insensitive cycles. *)
  Alcotest.(check int) "latency" 4 cycles;
  Alcotest.(check int) "final value" 2 (reg_int sim "x")

let test_par_writes () =
  let sim, cycles = run_ctx (Progs.two_writes_par ()) in
  Alcotest.(check int) "latency" 2 cycles;
  Alcotest.(check int) "x" 1 (reg_int sim "x");
  Alcotest.(check int) "y" 2 (reg_int sim "y")

let test_counter () =
  let sim, cycles = run_ctx (Progs.counter ~limit:5 ()) in
  Alcotest.(check int) "count" 5 (reg_int sim "r");
  (* init (2) + 5 * (cond 1 + incr 2) + final cond (1) = 18. *)
  Alcotest.(check int) "latency" 18 cycles

let test_if_true () =
  let sim, _ = run_ctx (Progs.if_program ~x:1 ~y:9 ()) in
  Alcotest.(check int) "then branch" 1 (reg_int sim "r")

let test_if_false () =
  let sim, cycles = run_ctx (Progs.if_program ~x:9 ~y:1 ()) in
  Alcotest.(check int) "else branch" 2 (reg_int sim "r");
  (* cond (1 cycle, combinational done) + branch write (2). *)
  Alcotest.(check int) "latency" 3 cycles

let test_reduction_tree () =
  let ctx = Progs.reduction_tree ~len:4 () in
  let sim = create ctx in
  let m0 = [ 1; 2; 3; 4 ]
  and m1 = [ 10; 20; 30; 40 ]
  and m2 = [ 100; 200; 300; 400 ]
  and m3 = [ 5; 6; 7; 8 ] in
  Calyx_sim.Sim.write_memory_ints sim "m0" ~width:32 m0;
  Calyx_sim.Sim.write_memory_ints sim "m1" ~width:32 m1;
  Calyx_sim.Sim.write_memory_ints sim "m2" ~width:32 m2;
  Calyx_sim.Sim.write_memory_ints sim "m3" ~width:32 m3;
  let cycles = Calyx_sim.Sim.run sim in
  Alcotest.(check bool) "terminates" true (cycles > 0);
  let expected =
    List.map2 ( + ) (List.map2 ( + ) m0 m1) (List.map2 ( + ) m2 m3)
  in
  Alcotest.(check (list int)) "sums" expected
    (Calyx_sim.Sim.read_memory_ints sim "out")

let test_external_memories () =
  let ctx = Progs.reduction_tree () in
  let sim = create ctx in
  Alcotest.(check (list string)) "externals"
    [ "m0"; "m1"; "m2"; "m3"; "out" ]
    (Calyx_sim.Sim.external_memories sim)

let test_hierarchy () =
  let sim, _ = run_ctx (Progs.hierarchy ~input:21 ()) in
  Alcotest.(check int) "doubled" 42 (reg_int sim "r");
  Alcotest.(check int) "child register" 42 (reg_int sim "d.acc")

let test_mult_pipe () =
  let sim, cycles = run_ctx (Progs.mult_program ~x:7 ~y:6 ()) in
  Alcotest.(check int) "product" 42 (reg_int sim "r");
  (* go during cycles 0..3, multiplier done at cycle 4, register write
     commits at the end of cycle 4, register done observed at cycle 5. *)
  Alcotest.(check int) "latency" 6 cycles

let test_conflict_detected () =
  let ctx = Progs.conflict_program () in
  let sim = create ctx in
  match Calyx_sim.Sim.run sim with
  | (_ : int) -> Alcotest.fail "expected Conflict"
  | exception Calyx_sim.Sim.Conflict { cycle; message; snapshot } ->
      (* Both drivers are live from the first cycle, and the payload names
         the fought-over port and carries a status snapshot like Timeout. *)
      Alcotest.(check int) "conflict cycle" 0 cycle;
      Alcotest.(check bool) "message names the port" true
        (contains ~needle:"x.in" message);
      Alcotest.(check bool) "snapshot present" true (snapshot <> "")

let test_unstable_detected () =
  let ctx = Progs.unstable_program () in
  let sim = create ctx in
  match Calyx_sim.Sim.run sim with
  | (_ : int) -> Alcotest.fail "expected Unstable"
  | exception Calyx_sim.Sim.Unstable { cycle; message; snapshot } ->
      Alcotest.(check int) "unstable cycle" 0 cycle;
      Alcotest.(check bool) "message non-empty" true (message <> "");
      Alcotest.(check bool) "snapshot present" true (snapshot <> "")

let test_timeout () =
  (* A group whose done never rises. *)
  let sim = create (Progs.stuck_program ()) in
  match Calyx_sim.Sim.run ~max_cycles:100 sim with
  | (_ : int) -> Alcotest.fail "expected Timeout"
  | exception Calyx_sim.Sim.Timeout { budget; snapshot } ->
      Alcotest.(check int) "budget" 100 budget;
      (* The snapshot names the stuck group and the done wiring it is
         waiting on. *)
      Alcotest.(check bool) "snapshot mentions stuck group" true
        (contains ~needle:"stuck" snapshot);
      Alcotest.(check bool) "snapshot shows the done wiring" true
        (contains ~needle:"r.done" snapshot)

(* Without the checker, a source narrower than its destination is refused
   when the simulator is built, by either engine; a port that does not
   resolve is reported before the widths are compared. *)
let test_width_mismatch_unchecked () =
  let program src =
    Parser.parse_string
      (Printf.sprintf
         {|component main(go: 1) -> (done: 1) {
  cells { r = std_reg(8); }
  wires {
    group g { r.in = %s; r.write_en = 1'd1; g[done] = r.done; }
  }
  control { g; }
}|}
         src)
  in
  let raises name expected ctx =
    List.iter
      (fun engine ->
        match Calyx_sim.Sim.create ~engine ctx with
        | _ -> Alcotest.failf "%s: expected Ir_error" name
        | exception Ir.Ir_error msg -> Alcotest.(check string) name expected msg)
      [ `Fixpoint; `Compiled ]
  in
  raises "mismatched literal"
    "simulator: width mismatch in r.in = 1'd1 (8 vs 1)" (program "1'd1");
  raises "mismatched port" "simulator: width mismatch in r.in = r.done (8 vs 1)"
    (program "r.done");
  raises "unknown cell first" "unknown cell x in component main"
    (program "x.out")

let test_empty_control_times_out_without_done () =
  (* An empty control program finishes immediately. *)
  let open Calyx.Builder in
  let main =
    component "main" |> with_control (seq [])
  in
  let sim = create (context [ main ]) in
  (* seq [] is structurally Empty-like; control Seq([],_) is non-Empty so the
     component is structured and finishes in one cycle. *)
  let cycles = Calyx_sim.Sim.run sim in
  Alcotest.(check int) "one cycle" 1 cycles

let test_mem_d2 () =
  (* A 2-D memory store and read through a small program. *)
  let open Calyx.Builder in
  let main =
    component "main"
    |> with_cells
         [
           prim ~attrs:(Attrs.of_list [ ("external", 1) ]) "m" "std_mem_d2"
             [ 16; 3; 4; 2; 2 ];
           reg "r" 16;
         ]
    |> with_groups
         [
           group "store"
             [
               assign (port "m" "addr0") (lit ~width:2 2);
               assign (port "m" "addr1") (lit ~width:2 3);
               assign (port "m" "write_data") (lit ~width:16 777);
               assign (port "m" "write_en") (bit true);
               assign (hole "store" "done") (pa "m" "done");
             ];
           group "load"
             [
               assign (port "m" "addr0") (lit ~width:2 2);
               assign (port "m" "addr1") (lit ~width:2 3);
               assign (port "r" "in") (pa "m" "read_data");
               assign (port "r" "write_en") (bit true);
               assign (hole "load" "done") (pa "r" "done");
             ];
         ]
    |> with_control (seq [ enable "store"; enable "load" ])
  in
  let sim = create (context [ main ]) in
  ignore (Calyx_sim.Sim.run sim);
  Alcotest.(check int) "read back" 777
    (Bitvec.to_int (Calyx_sim.Sim.read_register sim "r"));
  (* Row-major flattening: index 2*4 + 3 = 11. *)
  let contents = Calyx_sim.Sim.read_memory_ints sim "m" in
  Alcotest.(check int) "flat position" 777 (List.nth contents 11)

let test_width_adapters_and_ops () =
  (* slice, pad, div, shifts through a single combinational group. *)
  let open Calyx.Builder in
  let store target src =
    [
      assign (port target "in") src;
      assign (port target "write_en") (bit true);
    ]
  in
  let main =
    component "main"
    |> with_cells
         [
           prim "sl" "std_slice" [ 16; 4 ];
           prim "pd" "std_pad" [ 4; 16 ];
           prim "sh" "std_lsh" [ 16 ];
           prim "xr" "std_xor" [ 16 ];
           reg "a" 4; reg "b" 16; reg "c" 16; reg "d" 16;
         ]
    |> with_groups
         [
           group "go_all"
             ([
                assign (port "sl" "in") (lit ~width:16 0xABCD);
                assign (port "pd" "in") (lit ~width:4 9);
                assign (port "sh" "left") (lit ~width:16 3);
                assign (port "sh" "right") (lit ~width:16 4);
                assign (port "xr" "left") (lit ~width:16 0xF0F0);
                assign (port "xr" "right") (lit ~width:16 0x0FF0);
              ]
             @ store "a" (pa "sl" "out")
             @ store "b" (pa "pd" "out")
             @ store "c" (pa "sh" "out")
             @ store "d" (pa "xr" "out")
             @ [ assign (hole "go_all" "done") (pa "a" "done") ])
         ]
    |> with_control (enable "go_all")
  in
  let sim = create (context [ main ]) in
  ignore (Calyx_sim.Sim.run sim);
  let reg r = Bitvec.to_int (Calyx_sim.Sim.read_register sim r) in
  Alcotest.(check int) "slice" 0xD (reg "a");
  Alcotest.(check int) "pad" 9 (reg "b");
  Alcotest.(check int) "shift" 48 (reg "c");
  Alcotest.(check int) "xor" 0xFF00 (reg "d")

let test_div_pipe () =
  let open Calyx.Builder in
  let main =
    component "main"
    |> with_cells [ prim "dv" "std_div_pipe" [ 16 ]; reg "q" 16; reg "m" 16 ]
    |> with_groups
         [
           group "divide"
             [
               assign (port "dv" "left") (lit ~width:16 103);
               assign (port "dv" "right") (lit ~width:16 10);
               assign ~guard:(g_not (g_port "dv" "done")) (port "dv" "go")
                 (bit true);
               assign (port "q" "in") (pa "dv" "out_quotient");
               assign (port "q" "write_en") (pa "dv" "done");
               assign (port "m" "in") (pa "dv" "out_remainder");
               assign (port "m" "write_en") (pa "dv" "done");
               assign (hole "divide" "done") (pa "q" "done");
             ];
         ]
    |> with_control (enable "divide")
  in
  let sim = create (context [ main ]) in
  let cycles = Calyx_sim.Sim.run sim in
  Alcotest.(check int) "quotient" 10
    (Bitvec.to_int (Calyx_sim.Sim.read_register sim "q"));
  Alcotest.(check int) "remainder" 3
    (Bitvec.to_int (Calyx_sim.Sim.read_register sim "m"));
  Alcotest.(check int) "latency" (Prims.div_latency + 2) cycles

(* Section 6.2: an extern black-box component is RTL linked at code
   generation; the simulator has no model of it and refuses the program,
   structured or compiled. *)
let test_extern_behavioural_model () =
  let src = {|
extern "sqrt.sv" {
  component ext_sqrt(in: 32, go: 1) -> (out: 32, done: 1);
}
component main(go: 1) -> (done: 1) {
  cells { s = ext_sqrt(); r = std_reg(32); }
  wires {
    group foo {
      s.in = 32'd1764;
      s.go = !s.done ? 1'd1;
      r.in = s.out;
      r.write_en = s.done;
      foo[done] = r.done;
    }
  }
  control { foo; }
}
|} in
  let ctx = Parser.parse_string src in
  Well_formed.check ctx;
  List.iter
    (fun ctx' ->
      Alcotest.(check bool) "unlinked extern rejected" true
        (try
           ignore (create ctx');
           false
         with Ir.Ir_error _ -> true))
    [ ctx; Pipelines.compile ctx ]

let test_status_lifecycle () =
  let sim = create (Progs.two_writes_seq ()) in
  Alcotest.(check bool) "idle before run" true
    (contains ~needle:"idle" (Calyx_sim.Sim.status sim));
  ignore (Calyx_sim.Sim.run sim);
  Alcotest.(check bool) "presenting done after run" true
    (contains ~needle:"presenting done" (Calyx_sim.Sim.status sim))

let test_add_sink_composes () =
  (* add_sink composes with whatever is installed: both observers see every
     cycle, in attachment order. *)
  let sim = create (Progs.two_writes_seq ()) in
  let calls = ref [] in
  Calyx_sim.Sim.add_sink sim (fun ev ->
      calls := ("a", ev.Calyx_sim.Sim.ev_cycle) :: !calls);
  Calyx_sim.Sim.add_sink sim (fun ev ->
      calls := ("b", ev.Calyx_sim.Sim.ev_cycle) :: !calls);
  let cycles = Calyx_sim.Sim.run sim in
  let log = List.rev !calls in
  Alcotest.(check int) "both sinks saw every cycle" (2 * cycles)
    (List.length log);
  List.iteri
    (fun i (tag, cyc) ->
      Alcotest.(check string) "attachment order" (if i mod 2 = 0 then "a" else "b") tag;
      Alcotest.(check int) "cycle stamp" (i / 2) cyc)
    log

(* ------------------------------------------------------------------ *)
(* State cells and the engine differential                             *)
(* ------------------------------------------------------------------ *)

(* Three levels of hierarchy: main holds registers on both sides of its
   child, mid a grandchild and a register, leaf a register and a memory.
   Only leaf's [c] is ever written; the rest is state a test bench may
   load. *)
let nested_program () =
  let open Calyx.Builder in
  let leaf =
    component "leaf"
    |> with_cells [ reg "c" 4; mem_d1 "lm" ~width:8 ~size:2 ~idx:1 ]
    |> with_groups
         [ Progs.write_group "touch" ~reg:"c" ~value:(lit ~width:4 1) ]
    |> with_control (enable "touch")
  in
  let run_child name cell =
    group name
      [
        assign (port cell "go") (bit true);
        assign (hole name "done") (pa cell "done");
      ]
  in
  let mid =
    component "mid"
    |> with_cells [ instance "l" "leaf"; reg "b" 4 ]
    |> with_groups [ run_child "run_l" "l" ]
    |> with_control (enable "run_l")
  in
  let main =
    component "main"
    |> with_cells
         [
           reg "a" 4;
           instance "m" "mid";
           reg "z" 4;
           mem_d1 "top" ~width:8 ~size:2 ~idx:1;
         ]
    |> with_groups [ run_child "run_m" "m" ]
    |> with_control (enable "run_m")
  in
  context [ leaf; mid; main ]

let check_state_cells name ctx (regs, mems) =
  let r, m = Calyx_sim.Sim.state_cells ctx in
  Alcotest.(check (list string)) (name ^ " registers") regs r;
  Alcotest.(check (list string)) (name ^ " memories") mems m

let test_state_cells_flat () =
  check_state_cells "counter" (Progs.counter ~limit:3 ()) ([ "r" ], []);
  check_state_cells "par" (Progs.two_writes_par ()) ([ "x"; "y" ], [])

let test_state_cells_memories () =
  check_state_cells "reduction tree" (Progs.reduction_tree ())
    ([ "r0"; "r1"; "r2"; "idx" ], [ "m0"; "m1"; "m2"; "m3"; "out" ])

let test_state_cells_child () =
  check_state_cells "hierarchy" (Progs.hierarchy ~input:1 ())
    ([ "d.acc"; "r" ], [])

let test_state_cells_nested () =
  check_state_cells "nested" (nested_program ())
    ([ "a"; "m.l.c"; "m.b"; "z" ], [ "m.l.lm"; "top" ])

(* Every path state_cells reports names a cell the test bench can read,
   under both engines. *)
let test_state_cells_resolve () =
  List.iter
    (fun ctx ->
      let regs, mems = Calyx_sim.Sim.state_cells ctx in
      List.iter
        (fun (_, engine) ->
          let sim = Calyx_sim.Sim.create ~engine ctx in
          ignore (Calyx_sim.Sim.run sim);
          List.iter
            (fun r -> ignore (Calyx_sim.Sim.read_register sim r))
            regs;
          List.iter (fun m -> ignore (Calyx_sim.Sim.read_memory sim m)) mems)
        Calyx_sim.Sim.engines)
    [
      Progs.counter ~limit:3 ();
      Progs.reduction_tree ();
      Progs.hierarchy ~input:4 ();
      nested_program ();
    ]

let check_agree name ?load ctx =
  Alcotest.(check (option string))
    (name ^ ": engines agree") None
    (Calyx_sim.Sim.disagreement ?load ctx)

let test_differential_samples () =
  List.iter
    (fun (name, ctx) -> check_agree name ctx)
    [
      ("counter", Progs.counter ~limit:4 ());
      ("seq", Progs.two_writes_seq ());
      ("par", Progs.two_writes_par ());
      ("if", Progs.if_program ~x:3 ~y:7 ());
      ("hierarchy", Progs.hierarchy ~input:9 ());
      ("mult", Progs.mult_program ~x:5 ~y:6 ());
      ("nested", nested_program ());
      ("lowered nested", Pipelines.compile (nested_program ()));
    ]

(* Both engines raise the same error at the same cycle: no disagreement. *)
let test_differential_errors () =
  check_agree "conflict" (Progs.conflict_program ());
  check_agree "unstable" (Progs.unstable_program ())

let test_differential_load () =
  let load sim =
    List.iteri
      (fun i m ->
        Calyx_sim.Sim.write_memory_ints sim m ~width:32
          (List.init 4 (fun j -> (5 * i) + j)))
      [ "m0"; "m1"; "m2"; "m3" ]
  in
  check_agree "reduction tree" ~load (Progs.reduction_tree ())

(* The differential bites: state that only the compiled run was given
   ends up in its final values, and [disagreement] names what differs —
   for an entry register, a grandchild's register and a grandchild's
   memory alike. *)
let check_bites name load expected =
  let load sim = if Calyx_sim.Sim.engine sim = `Compiled then load sim in
  Alcotest.(check (option string))
    name (Some expected)
    (Calyx_sim.Sim.disagreement ~load (nested_program ()))

let test_differential_entry_register () =
  check_bites "entry register"
    (fun sim ->
      Calyx_sim.Sim.write_register sim "a" (Bitvec.of_int ~width:4 3))
    "fixpoint vs compiled: final registers differ"

let test_differential_child_register () =
  check_bites "child register"
    (fun sim ->
      Calyx_sim.Sim.write_register sim "m.b" (Bitvec.of_int ~width:4 3))
    "fixpoint vs compiled: final registers differ"

let test_differential_child_memory () =
  check_bites "child memory"
    (fun sim -> Calyx_sim.Sim.write_memory_ints sim "m.l.lm" ~width:8 [ 7; 9 ])
    "fixpoint vs compiled: final memories differ"

(* Memories are compared at full width: a 64-bit element of 2^62 or more
   is a value like any other, not an error both engines share. The loader
   runs once per engine; only its second call pokes m[0] differently, and
   no register sees m[0]. *)
let test_differential_wide_memory () =
  let ctx =
    Parser.parse_string
      {|
component main(go: 1) -> (done: 1) {
  cells {
    m = std_mem_d1(64, 2, 1);
    r = std_reg(64);
    add = std_add(64);
  }
  wires {
    group load {
      m.addr0 = 1'd1; r.in = m.read_data; r.write_en = 1'd1;
      load[done] = r.done;
    }
    group double {
      add.left = r.out; add.right = r.out; r.in = add.out; r.write_en = 1'd1;
      double[done] = r.done;
    }
    group store {
      m.addr0 = 1'd1; m.write_data = r.out; m.write_en = 1'd1;
      store[done] = m.done;
    }
  }
  control { seq { load; double; store; } }
}
|}
  in
  let loader second =
    let calls = ref 0 in
    fun sim ->
      incr calls;
      let m0 = if !calls = 2 then second else Int64.shift_left 1L 62 in
      Calyx_sim.Sim.write_memory sim "m"
        [| Bitvec.make ~width:64 m0; Bitvec.of_int ~width:64 3 |]
  in
  Alcotest.(check (option string))
    "equal wide memories agree" None
    (Calyx_sim.Sim.disagreement ~load:(loader (Int64.shift_left 1L 62)) ctx);
  Alcotest.(check (option string))
    "a wide element differs" (Some "fixpoint vs compiled: final memories differ")
    (Calyx_sim.Sim.disagreement ~load:(loader (-1L)) ctx)

(* Clock-edge exactness under pokes: both engines step in lockstep, the
   test bench pokes state between cycles, and every register and memory
   must agree after every cycle. The compiled engine latches only the
   primitives whose edge inputs changed (or whose edge is not
   idempotent), so a poke must make its primitive latch again. *)
let lockstep name src ~cycles pokes =
  let ctx = Parser.parse_string src in
  let regs, mems = Calyx_sim.Sim.state_cells ctx in
  let sims =
    List.map
      (fun (_, engine) -> Calyx_sim.Sim.create ~engine ctx)
      Calyx_sim.Sim.engines
  in
  let state sim =
    ( List.map (fun r -> (r, reg_int sim r)) regs,
      List.map (fun m -> (m, Calyx_sim.Sim.read_memory_ints sim m)) mems )
  in
  let trace = ref [] in
  for c = 0 to cycles - 1 do
    List.iter
      (fun sim ->
        pokes c sim;
        Calyx_sim.Sim.cycle sim)
      sims;
    match List.map state sims with
    | reference :: others ->
        List.iter
          (fun st ->
            if st <> reference then
              Alcotest.failf "%s: engines disagree after cycle %d" name c)
          others;
        trace := reference :: !trace
    | [] -> ()
  done;
  List.rev !trace

let test_poke_register_held () =
  let src =
    {|component main(go: 1) -> (done: 1) {
  cells { r = std_reg(8); c = std_reg(8); a = std_add(8); }
  wires {
    r.in = 8'd5; r.write_en = 1'd1;
    a.left = c.out; a.right = 8'd1; c.in = a.out; c.write_en = 1'd1;
  }
  control {}
}|}
  in
  let trace =
    lockstep "register" src ~cycles:8 (fun c sim ->
        if c = 3 then
          Calyx_sim.Sim.write_register sim "r" (Bitvec.of_int ~width:8 99);
        if c = 5 then
          Calyx_sim.Sim.write_register sim "c" (Bitvec.of_int ~width:8 200))
  in
  (* The edge after each poke overwrites it: write_en is still high. *)
  let regs c = fst (List.nth trace c) in
  Alcotest.(check int) "poked r is latched over" 5 (List.assoc "r" (regs 3));
  Alcotest.(check int) "poked c counts on" 201 (List.assoc "c" (regs 5))

let test_poke_memory_held () =
  let src =
    {|component main(go: 1) -> (done: 1) {
  cells { m = std_mem_d1(8, 4, 2); }
  wires { m.addr0 = 2'd1; m.write_data = 8'd7; m.write_en = 1'd1; }
  control {}
}|}
  in
  let trace =
    lockstep "memory" src ~cycles:6 (fun c sim ->
        if c = 2 then Calyx_sim.Sim.write_memory_ints sim "m" ~width:8 [ 1; 2; 3; 4 ])
  in
  Alcotest.(check (list int)) "the held write lands on the poke"
    [ 1; 7; 3; 4 ]
    (List.assoc "m" (snd (List.nth trace 2)))

let test_poke_pipe_midway () =
  let src =
    {|component main(go: 1) -> (done: 1) {
  cells { mp = std_mult_pipe(8); x = std_reg(8); res = std_reg(8); n = std_reg(8); a = std_add(8); }
  wires {
    mp.left = x.out; mp.right = 8'd3; mp.go = 1'd1;
    res.in = mp.out; res.write_en = mp.done;
    a.left = n.out; a.right = 8'd1; n.in = a.out; n.write_en = mp.done;
  }
  control {}
}|}
  in
  let trace =
    lockstep "pipelined multiplier" src ~cycles:24 (fun c sim ->
        if c = 1 || c = 7 || c = 14 then
          Calyx_sim.Sim.write_register sim "x" (Bitvec.of_int ~width:8 (c + 2));
        if c = 9 then
          Calyx_sim.Sim.write_register sim "res" (Bitvec.of_int ~width:8 77))
  in
  (* With go held high the unit keeps restarting: it must latch at every
     edge even though none of its inputs change between pokes. *)
  let final = fst (List.nth trace 23) in
  Alcotest.(check bool) "operations completed" true (List.assoc "n" final > 2);
  Alcotest.(check int) "last product" (16 * 3) (List.assoc "res" final)

let test_sqrt_prim () =
  Alcotest.(check int64) "isqrt 0" 0L (Calyx_sim.Prim_state.isqrt 0L);
  Alcotest.(check int64) "isqrt 1" 1L (Calyx_sim.Prim_state.isqrt 1L);
  Alcotest.(check int64) "isqrt 99" 9L (Calyx_sim.Prim_state.isqrt 99L);
  Alcotest.(check int64) "isqrt 100" 10L (Calyx_sim.Prim_state.isqrt 100L);
  (* Operands of 2^63 and above are unsigned 64-bit values. *)
  Alcotest.(check int64) "isqrt 2^63" 3037000499L
    (Calyx_sim.Prim_state.isqrt Int64.min_int);
  Alcotest.(check int64) "isqrt 2^64 - 1" 4294967295L
    (Calyx_sim.Prim_state.isqrt (-1L));
  for i = 0 to 2000 do
    let v = Int64.of_int i in
    let r = Calyx_sim.Prim_state.isqrt v in
    let r2 = Int64.mul r r in
    let r1 = Int64.mul (Int64.add r 1L) (Int64.add r 1L) in
    if not (Int64.compare r2 v <= 0 && Int64.compare r1 v > 0) then
      Alcotest.failf "isqrt %d wrong: %Ld" i r
  done

(* Values at the edges of the simulator's storage: a slot of up to 62
   bits holds a native int, a wider one an int64. The compiled engine
   computes on native ints only, so asked for at 63 or 64 bits it runs
   the design on the fixpoint engine; at 62 bits and below it runs it
   itself. One program per width ([Progs.width_program]) adds, subtracts
   and compares two registers, picks the larger through guard
   comparisons, slices and pads, multiplies on the pipelined unit and
   stores into a memory; the test bench pokes the operands and a memory
   word and peeks every result through [Testbench.io]. *)
let test_width_edges () =
  let mask w = if w = 64 then -1L else Int64.pred (Int64.shift_left 1L w) in
  List.iter
    (fun w ->
      let m = mask w and h = (w + 1) / 2 in
      let ones = m and alt = Int64.logand 0x5555555555555555L m in
      let alt' = Int64.logand 0xAAAAAAAAAAAAAAAAL m in
      let ctx = Parser.parse_string (Progs.width_program w) in
      Well_formed.check ctx;
      let bits v = Bitvec.make ~width:w v in
      List.iter
        (fun (engine, (a, b)) ->
          let what = Printf.sprintf "width %d, %s, a=%Lx b=%Lx" w
              (Calyx_sim.Sim.engine_name engine) a b in
          let sim = Calyx_sim.Sim.create ~engine ctx in
          if engine = `Compiled then begin
            let runs = if w <= 62 then `Compiled else `Fixpoint in
            Alcotest.(check string) (what ^ ": engine that runs")
              (Calyx_sim.Sim.engine_name runs)
              (Calyx_sim.Sim.engine_name (Calyx_sim.Sim.engine sim));
            Alcotest.(check bool) (what ^ ": compiled plan") (w <= 62)
              (Calyx_sim.Sim.compiled_plan sim <> None)
          end;
          let io = Calyx_sim.Testbench.of_sim sim in
          io.write_register "a" (bits a);
          io.write_register "b" (bits b);
          io.write_memory "m" [| bits ones; bits 0L; bits 0L; bits alt |];
          ignore (Calyx_sim.Sim.run sim);
          let reg name = Bitvec.to_int64 (io.read_register name) in
          let check name expected =
            Alcotest.(check int64) (what ^ ": " ^ name) expected (reg name)
          in
          let sum = Int64.logand (Int64.add a b) m in
          check "sum" sum;
          check "diff" (Int64.logand (Int64.sub a b) m);
          check "less" (if Int64.unsigned_compare a b < 0 then 1L else 0L);
          check "big" (if Int64.unsigned_compare a b > 0 then a else b);
          check "low" (Int64.logand a (mask h));
          check "prod" (Int64.logand (Int64.mul a b) m);
          Alcotest.(check (list int64)) (what ^ ": memory")
            [ ones; sum; 0L; alt ]
            (Array.to_list (Array.map Bitvec.to_int64 (io.read_memory "m")));
          Alcotest.(check int) (what ^ ": result width") w
            (Bitvec.width (io.read_register "sum")))
        (List.concat_map
           (fun e ->
             [ (e, (ones, alt)); (e, (alt, ones)); (e, (ones, ones));
               (e, (alt', alt)) ])
           [ `Fixpoint; `Compiled ]))
    [ 1; 8; 62; 63; 64 ]

let () =
  Alcotest.run "sim"
    [
      ( "interpreter",
        [
          Alcotest.test_case "seq writes" `Quick test_seq_writes;
          Alcotest.test_case "par writes" `Quick test_par_writes;
          Alcotest.test_case "counter loop" `Quick test_counter;
          Alcotest.test_case "if true branch" `Quick test_if_true;
          Alcotest.test_case "if false branch" `Quick test_if_false;
          Alcotest.test_case "reduction tree" `Quick test_reduction_tree;
          Alcotest.test_case "external memories" `Quick test_external_memories;
          Alcotest.test_case "hierarchical invoke" `Quick test_hierarchy;
          Alcotest.test_case "pipelined multiplier" `Quick test_mult_pipe;
          Alcotest.test_case "empty control" `Quick
            test_empty_control_times_out_without_done;
          Alcotest.test_case "status lifecycle" `Quick test_status_lifecycle;
          Alcotest.test_case "add_sink composes" `Quick test_add_sink_composes;
        ] );
      ( "errors",
        [
          Alcotest.test_case "conflicting drivers" `Quick test_conflict_detected;
          Alcotest.test_case "combinational cycle" `Quick test_unstable_detected;
          Alcotest.test_case "timeout" `Quick test_timeout;
          Alcotest.test_case "width mismatch, unchecked" `Quick
            test_width_mismatch_unchecked;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "integer sqrt" `Quick test_sqrt_prim;
          Alcotest.test_case "extern behavioural model" `Quick
            test_extern_behavioural_model;
          Alcotest.test_case "2-D memory" `Quick test_mem_d2;
          Alcotest.test_case "widths 1, 8, 62, 63, 64" `Quick test_width_edges;
          Alcotest.test_case "slice/pad/shift/xor" `Quick
            test_width_adapters_and_ops;
          Alcotest.test_case "pipelined divider" `Quick test_div_pipe;
        ] );
      ( "state cells",
        [
          Alcotest.test_case "flat registers" `Quick test_state_cells_flat;
          Alcotest.test_case "memories" `Quick test_state_cells_memories;
          Alcotest.test_case "child paths" `Quick test_state_cells_child;
          Alcotest.test_case "nested depth first" `Quick
            test_state_cells_nested;
          Alcotest.test_case "paths resolve" `Quick test_state_cells_resolve;
        ] );
      ( "differential",
        [
          Alcotest.test_case "samples agree" `Quick test_differential_samples;
          Alcotest.test_case "error paths agree" `Quick
            test_differential_errors;
          Alcotest.test_case "loaded memories agree" `Quick
            test_differential_load;
          Alcotest.test_case "entry register bites" `Quick
            test_differential_entry_register;
          Alcotest.test_case "child register bites" `Quick
            test_differential_child_register;
          Alcotest.test_case "child memory bites" `Quick
            test_differential_child_memory;
          Alcotest.test_case "wide memory element bites" `Quick
            test_differential_wide_memory;
          Alcotest.test_case "register poked, write_en held" `Quick
            test_poke_register_held;
          Alcotest.test_case "memory poked, write_en held" `Quick
            test_poke_memory_held;
          Alcotest.test_case "pipelined unit poked midway" `Quick
            test_poke_pipe_midway;
        ] );
    ]
