open Dahlia.Ast

type report = {
  cycles : int;
  area : Calyx_synth.Area.usage;
}

(* Schedule parameters. *)
let mem_read_latency = 1
let mult_latency = 3
let div_latency = 16
let sqrt_latency = 16
let ports_per_memory = 2
let loop_overhead = 2

(* When a fully unrolled region demands more bandwidth than the memories
   provide, the scheduler serializes iterations; each serialized access
   then costs a full non-pipelined memory transaction. *)
let contended_access_cycles = 4

let mem_banks d = List.fold_left (fun acc dim -> acc * dim.bank) 1 d.dims

(* ------------------------------------------------------------------ *)
(* Static expression/statement metrics                                 *)
(* ------------------------------------------------------------------ *)

let rec pipes_of = function
  | EInt _ | EVar _ -> 0
  | ERead (_, idxs) -> List.fold_left (fun acc i -> acc + pipes_of i) 0 idxs
  | ESqrt e -> sqrt_latency + pipes_of e
  | EBinop (op, a, b) ->
      (match op with Mul -> mult_latency | Div | Rem -> div_latency | _ -> 0)
      + pipes_of a + pipes_of b

let rec reads_of acc = function
  | EInt _ | EVar _ -> acc
  | ESqrt e -> reads_of acc e
  | EBinop (_, a, b) -> reads_of (reads_of acc a) b
  | ERead (m, idxs) ->
      List.fold_left reads_of ((m, 1) :: acc) idxs

let merge_counts l =
  List.fold_left
    (fun acc (m, c) ->
      let prev = Option.value ~default:0 (List.assoc_opt m acc) in
      (m, prev + c) :: List.remove_assoc m acc)
    [] l

(* Per-statement pipeline depth: one cycle for the write, plus a read
   stage when a memory is on the path, plus pipelined-operator latency. *)
let stmt_depth rhs has_read =
  1 + (if has_read then mem_read_latency else 0) + pipes_of rhs

(* Memory accesses over a statement's whole execution (reads + stores);
   loops multiply by their trip count (data-dependent while loops use the
   problem-size estimate of 8). *)
let scale k l = List.map (fun (m, c) -> (m, c * k)) l

let rec stmt_accesses = function
  | SSkip -> []
  | SLet (_, _, e) | SAssign (_, e) -> reads_of [] e
  | SStore (m, idxs, e) ->
      ((m, 1) :: reads_of [] e)
      @ List.concat_map (fun i -> reads_of [] i) idxs
  | SIf (c, t, f) -> reads_of [] c @ stmt_accesses t @ stmt_accesses f
  | SWhile (c, b) -> scale 8 (reads_of [] c @ stmt_accesses b)
  | SFor { body; lo; hi; _ } -> scale (max (hi - lo) 1) (stmt_accesses body)
  | SSeq ss | SPar ss -> List.concat_map stmt_accesses ss

(* Accesses of a single iteration (for initiation intervals). *)
let rec iter_accesses = function
  | SSkip -> []
  | SLet (_, _, e) | SAssign (_, e) -> reads_of [] e
  | SStore (m, idxs, e) ->
      ((m, 1) :: reads_of [] e)
      @ List.concat_map (fun i -> reads_of [] i) idxs
  | SIf (c, t, f) -> reads_of [] c @ iter_accesses t @ iter_accesses f
  | SWhile (c, b) -> reads_of [] c @ iter_accesses b
  | SFor { body; _ } -> iter_accesses body
  | SSeq ss | SPar ss -> List.concat_map iter_accesses ss

(* A fully unrolled for is straight-line code after unrolling, so a loop
   containing only such children still pipelines. *)
let rec has_loop = function
  | SFor { unroll; lo; hi; body; _ } ->
      if unroll > 1 && unroll = hi - lo then has_loop body else true
  | SWhile _ -> true
  | SSeq ss | SPar ss -> List.exists has_loop ss
  | SIf (_, t, f) -> has_loop t || has_loop f
  | SSkip | SLet _ | SAssign _ | SStore _ -> false

(* Loop-carried recurrence: x := e where e reads x, through pipes. *)
let rec carried_ii = function
  | SAssign (x, e) when List.mem x (vars_read e) -> max 1 (pipes_of e)
  | SStore (m, _, e) when List.mem m (List.map fst (reads_of [] e)) ->
      (* Accumulating into the memory being read: read-modify-write. *)
      max 2 (pipes_of e)
  | SSeq ss | SPar ss -> List.fold_left (fun acc s -> max acc (carried_ii s)) 1 ss
  | SIf (_, t, f) -> max (carried_ii t) (carried_ii f)
  | _ -> 1

and vars_read e =
  let rec go acc = function
    | EInt _ -> acc
    | EVar x -> x :: acc
    | ERead (_, idxs) -> List.fold_left go acc idxs
    | ESqrt e -> go acc e
    | EBinop (_, a, b) -> go (go acc a) b
  in
  go [] e

(* ------------------------------------------------------------------ *)
(* Scheduled execution                                                 *)
(* ------------------------------------------------------------------ *)

type st = { env : Dahlia.Eval.env; decls : decl list }

let ports st m =
  match List.find_opt (fun d -> String.equal d.decl_name m) st.decls with
  | Some d -> ports_per_memory * mem_banks d
  | None -> ports_per_memory

let port_bound st accesses =
  List.fold_left
    (fun acc (m, c) -> max acc ((c + ports st m - 1) / ports st m))
    0
    (merge_counts accesses)

(* Execute a statement through the Dahlia semantics, returning its
   scheduled cycle count. *)
let rec exec st stmt =
  match stmt with
  | SSkip -> 0
  | SLet (_, _, e) | SAssign (_, e) | SStore (_, _, e) ->
      Dahlia.Eval.exec st.env stmt;
      stmt_depth e (reads_of [] e <> [])
  | SIf (c, t, f) ->
      let cond = Dahlia.Eval.expr st.env c in
      1 + exec st (if cond <> 0 then t else f)
  | SSeq ss -> List.fold_left (fun acc s -> acc + exec st s) 0 ss
  | SPar ss ->
      (* Independent statements issue concurrently, bounded by ports. *)
      let cycles = List.fold_left (fun acc s -> max acc (exec st s)) 0 ss in
      max cycles (port_bound st (List.concat_map iter_accesses ss))
  | SWhile (c, body) ->
      let iters = ref 0 and depth = ref 0 and total = ref 0 in
      while Dahlia.Eval.expr st.env c <> 0 do
        incr iters;
        let c = exec st body in
        depth := max !depth c;
        total := !total + c
      done;
      loop_cycles st body ~iters:!iters ~depth:!depth ~total:!total
  | SFor { var; lo; hi; unroll; body; _ } ->
      if unroll > 1 then begin
        (* Fully unrolled: copies run concurrently, bounded by ports. If
           the region demands more bandwidth than the memories provide, the
           schedule degenerates to serialized, non-pipelined accesses. *)
        let per_copy = ref 0 in
        for i = lo to hi - 1 do
          Dahlia.Eval.set st.env var i;
          per_copy := max !per_copy (exec st body)
        done;
        let totals =
          merge_counts
            (List.concat
               (List.init (max (hi - lo) 1) (fun _ -> stmt_accesses body)))
        in
        let serialized =
          List.fold_left
            (fun acc (m, c) -> acc + ((c + ports st m - 1) / ports st m))
            0 totals
        in
        max !per_copy ((contended_access_cycles * serialized) + loop_overhead)
      end
      else begin
        let iters = ref 0 and depth = ref 0 and total = ref 0 in
        for i = lo to hi - 1 do
          Dahlia.Eval.set st.env var i;
          incr iters;
          let c = exec st body in
          depth := max !depth c;
          total := !total + c
        done;
        loop_cycles st body ~iters:!iters ~depth:!depth ~total:!total
      end

(* Charge a (non-unrolled) loop: innermost loops pipeline with
   II = max(recurrence, port pressure); outer loops run sequentially. *)
and loop_cycles st body ~iters ~depth ~total =
  if iters = 0 then 1
  else if not (has_loop body) then begin
    let ii = max (carried_ii body) (port_bound st (iter_accesses body)) in
    depth + ((iters - 1) * max 1 ii) + loop_overhead
  end
  else total + iters + loop_overhead

(* ------------------------------------------------------------------ *)
(* Area estimation                                                     *)
(* ------------------------------------------------------------------ *)

module Area = Calyx_synth.Area

let rec expr_area e =
  match e with
  | EInt _ | EVar _ -> Area.zero
  | ERead (_, idxs) ->
      List.fold_left (fun acc i -> Area.add acc (expr_area i)) Area.zero idxs
  | ESqrt inner -> Area.add (Area.primitive_usage "std_sqrt" [ 32 ]) (expr_area inner)
  | EBinop (op, a, b) ->
      let this =
        match op with
        | Add -> Area.primitive_usage "std_add" [ 32 ]
        | Sub -> Area.primitive_usage "std_sub" [ 32 ]
        | Mul -> Area.primitive_usage "std_mult_pipe" [ 32 ]
        | Div | Rem -> Area.primitive_usage "std_div_pipe" [ 32 ]
        | BAnd -> Area.primitive_usage "std_and" [ 32 ]
        | BOr -> Area.primitive_usage "std_or" [ 32 ]
        | BXor -> Area.primitive_usage "std_xor" [ 32 ]
        | Shl -> Area.primitive_usage "std_lsh" [ 32 ]
        | Shr -> Area.primitive_usage "std_rsh" [ 32 ]
        | Lt | Gt | Le | Ge -> Area.primitive_usage "std_lt" [ 32 ]
        | Eq | Neq -> Area.primitive_usage "std_eq" [ 32 ]
      in
      Area.add this (Area.add (expr_area a) (expr_area b))

(* One loop-control block: a counter register, comparator, and a handful
   of control LUTs. *)
let loop_control = { Area.zero with Area.luts = 12; Area.registers = 10 }

(* Operand steering / schedule decoding per scheduled statement. *)
let statement_control = { Area.zero with Area.luts = 8 }

(* Port multiplexing: [sites] access sites sharing one memory's ports
   synthesize an input mux tree (32-bit data+address). *)
let port_mux_area sites banks =
  let per_bank = (sites + banks - 1) / banks in
  if per_bank <= 1 then Area.zero
  else { Area.zero with Area.luts = 20 * ((per_bank - 1 + 2) / 3) }

(* Access sites per memory, with unroll multiplicity (sequential loops
   reuse one hardware site). *)
let rec site_counts mult = function
  | SSkip -> []
  | SLet (_, _, e) | SAssign (_, e) -> scale mult (reads_of [] e)
  | SStore (m, idxs, e) ->
      scale mult
        (((m, 1) :: reads_of [] e)
        @ List.concat_map (fun i -> reads_of [] i) idxs)
  | SIf (c, t, f) ->
      scale mult (reads_of [] c) @ site_counts mult t @ site_counts mult f
  | SWhile (c, b) -> scale mult (reads_of [] c) @ site_counts mult b
  | SFor { body; unroll; lo; hi; _ } ->
      let copies = if unroll > 1 then max (hi - lo) 1 else 1 in
      site_counts (mult * copies) body
  | SSeq ss | SPar ss -> List.concat_map (site_counts mult) ss

let pipeline_regs = { Area.zero with Area.luts = 4; Area.registers = 48 }

let rec stmt_area s =
  match s with
  | SSkip -> Area.zero
  | SLet (_, _, e) | SAssign (_, e) ->
      (* The variable itself becomes a register. *)
      Area.add statement_control
        (Area.add (expr_area e)
           { Area.zero with Area.registers = 32; Area.register_cells = 1 })
  | SStore (_, idxs, e) ->
      List.fold_left
        (fun acc i -> Area.add acc (expr_area i))
        (Area.add statement_control (expr_area e))
        idxs
  | SIf (c, t, f) ->
      Area.add (expr_area c) (Area.add (stmt_area t) (stmt_area f))
  | SWhile (c, b) ->
      Area.add (expr_area c)
        (Area.add loop_control
           (Area.add (stmt_area b) (if has_loop b then Area.zero else pipeline_regs)))
  | SFor { body; unroll; lo; hi; _ } ->
      let body_area = stmt_area body in
      let copies = if unroll > 1 then max (hi - lo) 1 else 1 in
      let replicated =
        List.fold_left
          (fun acc _ -> Area.add acc body_area)
          Area.zero
          (List.init copies Fun.id)
      in
      Area.add loop_control
        (Area.add replicated (if has_loop body then Area.zero else pipeline_regs))
  | SSeq ss | SPar ss ->
      List.fold_left (fun acc s -> Area.add acc (stmt_area s)) Area.zero ss

let decl_area d =
  let (UBit w) = d.elem in
  let banks = mem_banks d in
  let per_bank_elems = List.fold_left (fun acc dim -> acc * (dim.size / dim.bank)) 1 d.dims in
  let one =
    Area.primitive_usage "std_mem_d1"
      [ w; per_bank_elems; max 1 (Calyx.Compile_control.clog2 (max per_bank_elems 2)) ]
  in
  List.fold_left (fun acc _ -> Area.add acc one) Area.zero (List.init banks Fun.id)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run prog ~inputs =
  let st = { env = Dahlia.Eval.env prog ~inputs; decls = prog.decls } in
  let cycles = max 1 (exec st prog.body) in
  let sites = merge_counts (site_counts 1 prog.body) in
  let area =
    List.fold_left
      (fun acc d ->
        let s = Option.value ~default:0 (List.assoc_opt d.decl_name sites) in
        Area.add acc (Area.add (decl_area d) (port_mux_area s (mem_banks d))))
      (stmt_area prog.body) prog.decls
  in
  { cycles; area }

let run_source src ~inputs = run (Dahlia.Parser.parse_string src) ~inputs

(* The paper's Vivado HLS baseline for Figure 7: a straightforward matmul
   with the two outer loops fully unrolled and unpartitioned memories. *)
let matmul_source ~n =
  let w = max 2 (Calyx.Compile_control.clog2 (n + 1)) in
  Printf.sprintf
    {|
decl A: ubit<32>[%d][%d];
decl B: ubit<32>[%d][%d];
decl C: ubit<32>[%d][%d];
for (let i: ubit<%d> = 0..%d) unroll %d {
  for (let j: ubit<%d> = 0..%d) unroll %d {
    let acc: ubit<32> = 0
    ---
    for (let k: ubit<%d> = 0..%d) {
      let t: ubit<32> = A[i][k] * B[k][j]
      ---
      acc := acc + t
    }
    ---
    C[i][j] := acc
  }
}
|}
    n n n n n n w n n w n n w n
