(* Shared sample programs for the test suites. *)

open Calyx.Ir
open Calyx.Builder

(* A register-write group: one logical step, two latency-insensitive cycles. *)
let write_group ?attrs name ~reg:r ~value =
  group ?attrs name
    [
      assign (port r "in") value;
      assign (port r "write_en") (bit true);
      assign (hole name "done") (pa r "done");
    ]

(* seq { one; two } writing two values into the same register. *)
let two_writes_seq ?(w = 8) () =
  let main =
    component "main"
    |> with_cells [ reg "x" w ]
    |> with_groups
         [
           write_group "one" ~reg:"x" ~value:(lit ~width:w 1);
           write_group "two" ~reg:"x" ~value:(lit ~width:w 2);
         ]
    |> with_control (seq [ enable "one"; enable "two" ])
  in
  context [ main ]

(* par { one; two } into two different registers. *)
let two_writes_par ?(w = 8) () =
  let main =
    component "main"
    |> with_cells [ reg "x" w; reg "y" w ]
    |> with_groups
         [
           write_group "one" ~reg:"x" ~value:(lit ~width:w 1);
           write_group "two" ~reg:"y" ~value:(lit ~width:w 2);
         ]
    |> with_control (par [ enable "one"; enable "two" ])
  in
  context [ main ]

(* A counter: while (r < limit) r := r + 1. *)
let counter ?(w = 8) ~limit () =
  let main =
    component "main"
    |> with_cells [ reg "r" w; prim "a" "std_add" [ w ]; prim "lt" "std_lt" [ w ] ]
    |> with_groups
         [
           write_group "init" ~reg:"r" ~value:(lit ~width:w 0);
           group "incr"
             [
               assign (port "a" "left") (pa "r" "out");
               assign (port "a" "right") (lit ~width:w 1);
               assign (port "r" "in") (pa "a" "out");
               assign (port "r" "write_en") (bit true);
               assign (hole "incr" "done") (pa "r" "done");
             ];
           group "cond"
             [
               assign (port "lt" "left") (pa "r" "out");
               assign (port "lt" "right") (lit ~width:w limit);
               assign (hole "cond" "done") (bit true);
             ];
         ]
    |> with_control
         (seq
            [
              enable "init";
              while_ ~cond:"cond" (Cell_port ("lt", "out")) (enable "incr");
            ])
  in
  context [ main ]

(* if (x < y) { r := 1 } else { r := 2 } with x, y as literals. *)
let if_program ?(w = 8) ~x ~y () =
  let main =
    component "main"
    |> with_cells [ reg "r" w; prim "lt" "std_lt" [ w ] ]
    |> with_groups
         [
           group "cond"
             [
               assign (port "lt" "left") (lit ~width:w x);
               assign (port "lt" "right") (lit ~width:w y);
               assign (hole "cond" "done") (bit true);
             ];
           write_group "tbr" ~reg:"r" ~value:(lit ~width:w 1);
           write_group "fbr" ~reg:"r" ~value:(lit ~width:w 2);
         ]
    |> with_control
         (if_ ~cond:"cond" (Cell_port ("lt", "out")) (enable "tbr") (enable "fbr"))
  in
  context [ main ]

(* The paper's Figure 1: a 4-way reduction tree over [len]-element
   memories, out[i] = m0[i] + m1[i] + m2[i] + m3[i]. *)
let reduction_tree ?(w = 32) ?(len = 4) () =
  let idx_w =
    let rec bits n acc = if n = 0 then max acc 1 else bits (n / 2) (acc + 1) in
    bits len 0
  in
  let mem name = mem_d1 ~external_:true name ~width:w ~size:len ~idx:idx_w in
  let layer_group name adder lmem rmem dst =
    group name
      [
        assign (port lmem "addr0") (pa "idx" "out");
        assign (port rmem "addr0") (pa "idx" "out");
        assign (port adder "left") (pa lmem "read_data");
        assign (port adder "right") (pa rmem "read_data");
        assign (port dst "in") (pa adder "out");
        assign (port dst "write_en") (bit true);
        assign (hole name "done") (pa dst "done");
      ]
  in
  let main =
    component "main"
    |> with_cells
         [
           mem "m0"; mem "m1"; mem "m2"; mem "m3";
           mem_d1 ~external_:true "out" ~width:w ~size:len ~idx:idx_w;
           reg "r0" w; reg "r1" w; reg "r2" w;
           reg "idx" idx_w;
           prim "a0" "std_add" [ w ];
           prim "a1" "std_add" [ w ];
           prim "a2" "std_add" [ w ];
           prim "idx_add" "std_add" [ idx_w ];
           prim "lt" "std_lt" [ idx_w ];
         ]
    |> with_groups
         [
           layer_group "add0" "a0" "m0" "m1" "r0";
           layer_group "add1" "a1" "m2" "m3" "r1";
           group "add2"
             [
               assign (port "a2" "left") (pa "r0" "out");
               assign (port "a2" "right") (pa "r1" "out");
               assign (port "r2" "in") (pa "a2" "out");
               assign (port "r2" "write_en") (bit true);
               assign (hole "add2" "done") (pa "r2" "done");
             ];
           group "write"
             [
               assign (port "out" "addr0") (pa "idx" "out");
               assign (port "out" "write_data") (pa "r2" "out");
               assign (port "out" "write_en") (bit true);
               assign (hole "write" "done") (pa "out" "done");
             ];
           group "incr_idx"
             [
               assign (port "idx_add" "left") (pa "idx" "out");
               assign (port "idx_add" "right") (lit ~width:idx_w 1);
               assign (port "idx" "in") (pa "idx_add" "out");
               assign (port "idx" "write_en") (bit true);
               assign (hole "incr_idx" "done") (pa "idx" "done");
             ];
           group "cond"
             [
               assign (port "lt" "left") (pa "idx" "out");
               assign (port "lt" "right") (lit ~width:idx_w len);
               assign (hole "cond" "done") (bit true);
             ];
         ]
    |> with_control
         (while_ ~cond:"cond" (Cell_port ("lt", "out"))
            (seq
               [
                 par [ enable "add0"; enable "add1" ];
                 enable "add2";
                 enable "write";
                 enable "incr_idx";
               ]))
  in
  context [ main ]

(* A hierarchical design: main invokes a sub-component that doubles its
   input, then stores the result. *)
let hierarchy ?(w = 8) ~input () =
  let doubler =
    component "doubler" ~inputs:[ ("x", w) ] ~outputs:[ ("out", w) ]
    |> with_cells [ reg "acc" w; prim "a" "std_add" [ w ] ]
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
    |> with_cells [ instance "d" "doubler"; reg "r" w ]
    |> with_groups
         [
           group "call_d"
             [
               assign (port "d" "x") (lit ~width:w input);
               assign (port "d" "go") (bit true);
               assign (hole "call_d" "done") (pa "d" "done");
             ];
           write_group "store" ~reg:"r" ~value:(pa "d" "out");
         ]
    |> with_control (seq [ enable "call_d"; enable "store" ])
  in
  context [ doubler; main ]

(* Multiply two constants with the 4-cycle pipelined multiplier. *)
let mult_program ?(w = 16) ~x ~y () =
  let main =
    component "main"
    |> with_cells [ reg "r" w; prim "m" "std_mult_pipe" [ w ] ]
    |> with_groups
         [
           group "mul"
             [
               assign (port "m" "left") (lit ~width:w x);
               assign (port "m" "right") (lit ~width:w y);
               assign ~guard:(g_not (g_port "m" "done")) (port "m" "go") (bit true);
               assign (port "r" "in") (pa "m" "out");
               assign (port "r" "write_en") (pa "m" "done");
               assign (hole "mul" "done") (pa "r" "done");
             ];
         ]
    |> with_control (enable "mul")
  in
  context [ main ]

(* Conflicting drivers: two unconditioned writes of different values to the
   same port, both active in the same cycle. *)
let conflict_program () =
  let main =
    component "main"
    |> with_cells [ reg "x" 8 ]
    |> with_groups
         [
           group "bad"
             [
               assign (port "x" "in") (lit ~width:8 1);
               assign ~guard:(g_not (g_port "x" "done")) (port "x" "in")
                 (lit ~width:8 2);
               assign (port "x" "write_en") (bit true);
               assign (hole "bad" "done") (pa "x" "done");
             ];
         ]
    |> with_control (enable "bad")
  in
  context [ main ]

(* A group whose done never rises: the run hits its cycle budget. *)
let stuck_program () =
  let main =
    component "main"
    |> with_cells [ reg "r" 8 ]
    |> with_groups
         [ group "stuck" [ assign (hole "stuck" "done") (pa "r" "done") ] ]
    |> with_control (enable "stuck")
  in
  context [ main ]

(* A combinational oscillator: n.in = !n.in through std_not. *)
let unstable_program () =
  let main =
    component "main"
    |> with_cells [ prim "n" "std_not" [ 1 ]; reg "r" 1 ]
    |> with_continuous [ assign (port "n" "in") (pa "n" "out") ]
    |> with_groups [ write_group "w" ~reg:"r" ~value:(lit ~width:1 1) ]
    |> with_control (enable "w")
  in
  context [ main ]

(* Random well-formed, race-free, terminating programs — shared between
   the differential fuzzer (test_random) and the observability tests
   (test_obs). The generator itself now lives in Calyx.Fuzz_gen (it is a
   shrinkable spec-based generator used by `calyx farm --fuzz` too);
   this module keeps the historical entry point.

   Construction invariants (enforced by Fuzz_gen.build):
   - every action group writes its own dedicated register, and groups may
     only read registers whose (unique) writer is sequentially before
     them — never a register written by a sibling [par] branch;
   - every [while] loop owns a dedicated counter register incremented
     once per iteration with a strict bound (so programs terminate);
   - [if] conditions compare a readable register against a constant via a
     combinational condition group. *)
module Fuzz = struct
  let width = Calyx.Fuzz_gen.width
  let gen_program = Calyx.Fuzz_gen.program_of_seed
end

(* One program per width [w]: adds, subtracts and compares two [w]-bit
   registers [a] and [b] into [sum], [diff] and [less], picks the larger
   into [big] through guard comparisons, slices [a] to half its width and
   pads it back into [low], multiplies on the pipelined unit into [prod]
   and stores [sum] into word 1 of memory [m]. Widths 62, 63 and 64 sit
   on either side of the simulator's native-int slots. *)
let width_program w =
  let h = (w + 1) / 2 in
  Printf.sprintf
    {|component main(go: 1) -> (done: 1) {
  cells {
    a = std_reg(%d); b = std_reg(%d);
    add = std_add(%d); sub = std_sub(%d); lt = std_lt(%d);
    sl = std_slice(%d, %d); pad = std_pad(%d, %d); mul = std_mult_pipe(%d);
    sum = std_reg(%d); diff = std_reg(%d); less = std_reg(1);
    big = std_reg(%d); low = std_reg(%d); prod = std_reg(%d);
    m = std_mem_d1(%d, 4, 2);
  }
  wires {
    group arith {
      add.left = a.out; add.right = b.out; sum.in = add.out; sum.write_en = 1'd1;
      sub.left = a.out; sub.right = b.out; diff.in = sub.out; diff.write_en = 1'd1;
      lt.left = a.out; lt.right = b.out; less.in = lt.out; less.write_en = 1'd1;
      arith[done] = sum.done;
    }
    group pick {
      big.in = a.out > b.out ? a.out;
      big.in = a.out <= b.out ? b.out;
      big.write_en = 1'd1;
      pick[done] = big.done;
    }
    group halve {
      sl.in = a.out; pad.in = sl.out; low.in = pad.out; low.write_en = 1'd1;
      halve[done] = low.done;
    }
    group multiply {
      mul.left = a.out; mul.right = b.out; mul.go = !mul.done ? 1'd1;
      prod.in = mul.out; prod.write_en = mul.done;
      multiply[done] = prod.done;
    }
    group store {
      m.addr0 = 2'd1; m.write_data = sum.out; m.write_en = 1'd1;
      store[done] = m.done;
    }
  }
  control { seq { arith; pick; halve; multiply; store; } }
}|}
    w w w w w w h h w w w w w w w w
