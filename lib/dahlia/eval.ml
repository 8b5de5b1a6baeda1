open Ast

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

(* 32-bit wrapping arithmetic. Native ints are 63 bits and wrap modulo
   2^63, a multiple of 2^32, so the low 32 bits of a product are exact. *)
let mask = 0xFFFFFFFF
let w v = v land mask

module Tbl = Hashtbl.Make (String)

type env = { vars : int Tbl.t; mems : (int array * decl) Tbl.t }

let memory env m =
  match Tbl.find_opt env.mems m with
  | Some mem -> mem
  | None -> eval_error "unbound memory %s" m

let rec expr env = function
  | EInt v -> w v
  | EVar x -> (
      match Tbl.find_opt env.vars x with
      | Some v -> v
      | None -> eval_error "unbound variable %s" x)
  | ERead (m, idxs) ->
      let data, d = memory env m in
      let i = offset env d.dims idxs 0 in
      if i < 0 then 0 else data.(i)
  | ESqrt e -> Int64.to_int (Calyx_sim.Prim_state.isqrt (Int64.of_int (expr env e)))
  | EBinop (op, a, b) -> (
      let x = expr env a and y = expr env b in
      let bit c = if c then 1 else 0 in
      match op with
      | Add -> w (x + y)
      | Sub -> w (x - y)
      | Mul -> w (x * y)
      | Div -> if y = 0 then mask else x / y
      | Rem -> if y = 0 then x else x mod y
      | BAnd -> x land y
      | BOr -> x lor y
      | BXor -> x lxor y
      | Shl -> if y >= 32 then 0 else w (x lsl y)
      | Shr -> if y >= 32 then 0 else x lsr y
      | Lt -> bit (x < y)
      | Gt -> bit (x > y)
      | Le -> bit (x <= y)
      | Ge -> bit (x >= y)
      | Eq -> bit (x = y)
      | Neq -> bit (x <> y))

(* The row-major offset of a memory access, or -1 when an index is out of
   bounds. *)
and offset env dims idxs acc =
  match (dims, idxs) with
  | dim :: dims, e :: idxs ->
      let i = expr env e in
      if i >= dim.size then -1 else offset env dims idxs ((acc * dim.size) + i)
  | _ -> acc

let set env x v = Tbl.replace env.vars x v

let rec exec env = function
  | SSkip -> ()
  | SLet (x, _, e) | SAssign (x, e) -> set env x (expr env e)
  | SStore (m, idxs, e) ->
      let data, d = memory env m in
      let i = offset env d.dims idxs 0 in
      if i >= 0 then data.(i) <- expr env e
  | SIf (c, t, f) -> exec env (if expr env c <> 0 then t else f)
  | SWhile (c, body) ->
      while expr env c <> 0 do
        exec env body
      done
  | SFor { var; lo; hi; body; _ } ->
      for i = lo to hi - 1 do
        set env var i;
        exec env body
      done
  | SSeq ss | SPar ss -> List.iter (exec env) ss

let env prog ~inputs =
  Typecheck.check prog;
  let env = { vars = Tbl.create 16; mems = Tbl.create 16 } in
  List.iter
    (fun d ->
      let size = List.fold_left (fun acc dim -> acc * dim.size) 1 d.dims in
      let data = Array.make size 0 in
      (match List.assoc_opt d.decl_name inputs with
      | Some values ->
          if List.length values <> size then
            eval_error "memory %s holds %d values, given %d" d.decl_name size
              (List.length values);
          List.iteri (fun i v -> data.(i) <- w v) values
      | None -> ());
      Tbl.replace env.mems d.decl_name (data, d))
    prog.decls;
  env

let run prog ~inputs =
  let env = env prog ~inputs in
  exec env prog.body;
  List.map (fun d -> (d.decl_name, fst (memory env d.decl_name))) prog.decls
