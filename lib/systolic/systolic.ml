open Calyx
open Calyx.Ir
open Calyx.Builder

type dims = { rows : int; cols : int; depth : int; width : int }

let left_memory r = Printf.sprintf "l%d" r
let top_memory c = Printf.sprintf "t%d" c
let out_memory = "out_mem"
let steps d = d.rows + d.cols + d.depth - 2

let clog2 n = Compile_control.clog2 n

(* The name of the cell or group at grid position (r, c). Two indices
   below 10 join as two digits, the names arrays up to 10x10 have always
   had; a larger index joins with "_", so that (1, 11) and (11, 1) stay
   apart. *)
let at prefix r c =
  if r < 10 && c < 10 then Printf.sprintf "%s_%d%d" prefix r c
  else Printf.sprintf "%s_%d_%d" prefix r c

(* acc += left * top, one activation per go/done handshake. The accumulated
   value is continuously visible on [out]. *)
let matmul_pe ~width =
  component "mac_pe" ~inputs:[ ("top", width); ("left", width) ]
    ~outputs:[ ("out", width) ]
  |> with_cells
       [
         reg "acc" width;
         prim "mul" "std_mult_pipe" [ width ];
         prim "add" "std_add" [ width ];
       ]
  |> with_groups
       [
         group "do_mac"
           [
             assign (port "mul" "left") (thisa "left");
             assign (port "mul" "right") (thisa "top");
             assign ~guard:(g_not (g_port "mul" "done")) (port "mul" "go")
               (bit true);
             assign (port "add" "left") (pa "acc" "out");
             assign (port "add" "right") (pa "mul" "out");
             assign (port "acc" "in") (pa "add" "out");
             assign (port "acc" "write_en") (pa "mul" "done");
             assign (hole "do_mac" "done") (pa "acc" "done");
           ];
       ]
  |> with_continuous [ assign (this "out") (pa "acc" "out") ]
  |> with_control (enable "do_mac")

(* acc += |left - top|: a sum-of-absolute-differences PE, exercising the
   generator's PE-parametricity with a single-cycle element. *)
let sad_pe ~width =
  component "sad_pe" ~inputs:[ ("top", width); ("left", width) ]
    ~outputs:[ ("out", width) ]
  |> with_cells
       [
         reg "acc" width;
         prim "gt" "std_gt" [ width ];
         prim "sub_lt" "std_sub" [ width ];
         prim "sub_tl" "std_sub" [ width ];
         prim "add" "std_add" [ width ];
       ]
  |> with_groups
       [
         group "do_sad"
           [
             assign (port "gt" "left") (thisa "left");
             assign (port "gt" "right") (thisa "top");
             assign (port "sub_lt" "left") (thisa "left");
             assign (port "sub_lt" "right") (thisa "top");
             assign (port "sub_tl" "left") (thisa "top");
             assign (port "sub_tl" "right") (thisa "left");
             assign (port "add" "left") (pa "acc" "out");
             assign ~guard:(g_port "gt" "out") (port "add" "right")
               (pa "sub_lt" "out");
             assign ~guard:(g_not (g_port "gt" "out")) (port "add" "right")
               (pa "sub_tl" "out");
             assign (port "acc" "in") (pa "add" "out");
             assign (port "acc" "write_en") (bit true);
             assign (hole "do_sad" "done") (pa "acc" "done");
           ];
       ]
  |> with_continuous [ assign (this "out") (pa "acc" "out") ]
  |> with_control (enable "do_sad")

let generate ?pe d =
  if d.rows < 1 || d.cols < 1 || d.depth < 1 then
    invalid_arg
      (Printf.sprintf "Systolic.generate: dimensions %dx%dx%d, each must be at least 1"
         d.rows d.cols d.depth);
  let pe = match pe with Some p -> p | None -> matmul_pe ~width:d.width in
  let w = d.width in
  let idx_w = clog2 (d.depth + 1) in
  let row_w = clog2 (max d.rows 2) in
  let col_w = clog2 (max d.cols 2) in
  let pe_name = at "pe" in
  let top_reg = at "top" in
  let left_reg = at "left" in
  let idx_reg m = m ^ "_idx" in
  let idx_add m = m ^ "_add" in
  let grid f =
    List.concat
      (List.init d.rows (fun r -> List.init d.cols (fun c -> f r c)))
  in
  (* Cells. *)
  let feeder_cells m =
    [
      mem_d1 ~external_:true m ~width:w ~size:d.depth ~idx:idx_w;
      reg (idx_reg m) idx_w;
      prim (idx_add m) "std_add" [ idx_w ];
    ]
  in
  let cells =
    List.concat_map (fun r -> feeder_cells (left_memory r)) (List.init d.rows Fun.id)
    @ List.concat_map (fun c -> feeder_cells (top_memory c)) (List.init d.cols Fun.id)
    @ [
        prim
          ~attrs:(Attrs.of_list [ ("external", 1) ])
          out_memory "std_mem_d2"
          [ w; d.rows; d.cols; row_w; col_w ];
      ]
    @ grid (fun r c -> instance (pe_name r c) pe.comp_name)
    @ grid (fun r c -> reg (top_reg r c) w)
    @ grid (fun r c -> reg (left_reg r c) w)
  in
  (* Groups. *)
  (* Feed: dst := mem[idx]; idx := idx + 1 — one cycle. *)
  let feed_group name m dst =
    group name
      [
        assign (port m "addr0") (pa (idx_reg m) "out");
        assign (port dst "in") (pa m "read_data");
        assign (port dst "write_en") (bit true);
        assign (port (idx_add m) "left") (pa (idx_reg m) "out");
        assign (port (idx_add m) "right") (lit ~width:idx_w 1);
        assign (port (idx_reg m) "in") (pa (idx_add m) "out");
        assign (port (idx_reg m) "write_en") (bit true);
        assign (hole name "done") (pa dst "done");
      ]
  in
  let move_group name src dst =
    group name
      [
        assign (port dst "in") (pa src "out");
        assign (port dst "write_en") (bit true);
        assign (hole name "done") (pa dst "done");
      ]
  in
  let invoke_group name pe_cell r c =
    group name
      [
        assign (port pe_cell "top") (pa (top_reg r c) "out");
        assign (port pe_cell "left") (pa (left_reg r c) "out");
        assign (port pe_cell "go") (bit true);
        assign (hole name "done") (pa pe_cell "done");
      ]
  in
  let write_group name r c =
    group name
      [
        assign (port out_memory "addr0") (lit ~width:row_w r);
        assign (port out_memory "addr1") (lit ~width:col_w c);
        assign (port out_memory "write_data") (pa (pe_name r c) "out");
        assign (port out_memory "write_en") (bit true);
        assign (hole name "done") (pa out_memory "done");
      ]
  in
  let feed_left r = Printf.sprintf "feed_l%d" r in
  let feed_top c = Printf.sprintf "feed_t%d" c in
  let move_right = at "right" in
  let move_down = at "down" in
  let compute = at "compute" in
  let drain = at "drain" in
  let groups =
    List.init d.rows (fun r ->
        feed_group (feed_left r) (left_memory r) (left_reg r 0))
    @ List.init d.cols (fun c ->
          feed_group (feed_top c) (top_memory c) (top_reg 0 c))
    @ List.concat
        (List.init d.rows (fun r ->
             List.init (d.cols - 1) (fun c ->
                 move_group (move_right r c) (left_reg r c) (left_reg r (c + 1)))))
    @ List.concat
        (List.init (d.rows - 1) (fun r ->
             List.init d.cols (fun c ->
                 move_group (move_down r c) (top_reg r c) (top_reg (r + 1) c))))
    @ grid (fun r c -> invoke_group (compute r c) (pe_name r c) r c)
    @ grid (fun r c -> write_group (drain r c) r c)
  in
  (* The Figure 6 wave schedule. PE (r,c) computes element k = t - r - c of
     its dot product at step t; movement at step t forwards the values the
     wavefront consumed at step t-1. *)
  let active t r c = t - r - c >= 0 && t - r - c < d.depth in
  let schedule =
    List.concat_map
      (fun t ->
        let moves =
          List.filter_map
            (fun r -> if active t r 0 then Some (enable (feed_left r)) else None)
            (List.init d.rows Fun.id)
          @ List.filter_map
              (fun c -> if active t 0 c then Some (enable (feed_top c)) else None)
              (List.init d.cols Fun.id)
          @ List.concat
              (List.init d.rows (fun r ->
                   List.filter_map
                     (fun c ->
                       if c < d.cols - 1 && active (t - 1) r c then
                         Some (enable (move_right r c))
                       else None)
                     (List.init d.cols Fun.id)))
          @ List.concat
              (List.init d.rows (fun r ->
                   List.filter_map
                     (fun c ->
                       if r < d.rows - 1 && active (t - 1) r c then
                         Some (enable (move_down r c))
                       else None)
                     (List.init d.cols Fun.id)))
        in
        let computes =
          List.concat
            (List.init d.rows (fun r ->
                 List.filter_map
                   (fun c ->
                     if active t r c then Some (enable (compute r c)) else None)
                   (List.init d.cols Fun.id)))
        in
        (match moves with [] -> [] | [ m ] -> [ m ] | ms -> [ par ms ])
        @ match computes with [] -> [] | [ c ] -> [ c ] | cs -> [ par cs ])
      (List.init (steps d) Fun.id)
  in
  (* Drain the results sequentially (one memory write port). *)
  let drain_schedule = grid (fun r c -> enable (drain r c)) in
  let main =
    component "main"
    |> with_cells cells
    |> with_groups groups
    |> with_control (seq (schedule @ drain_schedule))
  in
  context [ pe; main ]

(* ------------------------------------------------------------------ *)
(* Test bench                                                          *)
(* ------------------------------------------------------------------ *)

module Tb = Calyx_sim.Testbench

let load d ~a ~b io =
  for r = 0 to d.rows - 1 do
    Tb.write_memory_ints io (left_memory r) ~width:d.width
      (List.init d.depth (fun k -> a.(r).(k)))
  done;
  for c = 0 to d.cols - 1 do
    Tb.write_memory_ints io (top_memory c) ~width:d.width
      (List.init d.depth (fun k -> b.(k).(c)))
  done

let result d io =
  let flat = Array.of_list (Tb.read_memory_ints io out_memory) in
  Array.init d.rows (fun r -> Array.init d.cols (fun c -> flat.((r * d.cols) + c)))

(* The accumulators wrap at the data width, and so does this sum. *)
let product d a b =
  let mask = if d.width >= Sys.int_size then -1 else (1 lsl d.width) - 1 in
  Array.init d.rows (fun r ->
      Array.init d.cols (fun c ->
          let acc = ref 0 in
          for k = 0 to d.depth - 1 do
            acc := !acc + (a.(r).(k) * b.(k).(c))
          done;
          !acc land mask))

let sample d =
  ( Array.init d.rows (fun r ->
        Array.init d.depth (fun k -> (((r * 3) + k) mod 9) + 1)),
    Array.init d.depth (fun k ->
        Array.init d.cols (fun c -> (((k * 5) + c) mod 7) + 1)) )

let testbench d ~a ~b =
  let want = product d a b in
  let check io =
    let got = result d io in
    List.concat
      (List.init d.rows (fun r ->
           List.filter_map
             (fun c ->
               if got.(r).(c) = want.(r).(c) then None
               else
                 Some
                   (Printf.sprintf "product mismatch at C[%d][%d]: %d <> %d" r
                      c got.(r).(c) want.(r).(c)))
             (List.init d.cols Fun.id)))
  in
  { Tb.load = load d ~a ~b; check }
