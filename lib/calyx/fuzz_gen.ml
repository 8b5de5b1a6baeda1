open Ir
open Builder

type operand = O_reg of int | O_const of int
type source = S_const of int | S_reg of int | S_sum of operand * int

type spec =
  | Act of source
  | Seqs of spec list
  | Pars of spec list
  | Ifs of { lhs : int; rhs : int; t : spec; f : spec option }
  | Whiles of int * spec

let width = 8

(* ------------------------------------------------------------------ *)
(* Generation: draw a spec with the same shape distribution as the
   original inline fuzzer (control depth 3, actions twice as likely as
   any compound form). Children are drawn left-to-right explicitly so
   the seed -> spec mapping does not depend on stdlib evaluation
   order. *)

let gen_source st =
  match Random.State.int st 3 with
  | 0 -> S_const (Random.State.int st 200)
  | 1 -> S_reg (Random.State.int st 1000)
  | _ ->
      let a =
        if Random.State.bool st then O_reg (Random.State.int st 1000)
        else O_const (Random.State.int st 100)
      in
      S_sum (a, 1 + Random.State.int st 50)

let rec gen_ctrl st depth =
  let choice = if depth = 0 then 0 else Random.State.int st 10 in
  match choice with
  | 0 | 1 | 2 | 3 -> Act (gen_source st)
  | 4 | 5 ->
      let k = 1 + Random.State.int st 3 in
      let rec go i acc =
        if i = k then Seqs (List.rev acc)
        else go (i + 1) (gen_ctrl st (depth - 1) :: acc)
      in
      go 0 []
  | 6 | 7 ->
      let k = 1 + Random.State.int st 3 in
      let rec go i acc =
        if i = k then Pars (List.rev acc)
        else go (i + 1) (gen_ctrl st (depth - 1) :: acc)
      in
      go 0 []
  | 8 ->
      let lhs = Random.State.int st 1000 in
      let rhs = Random.State.int st 120 in
      let t = gen_ctrl st (depth - 1) in
      let f =
        if Random.State.bool st then Some (gen_ctrl st (depth - 1)) else None
      in
      Ifs { lhs; rhs; t; f }
  | _ -> Whiles (1 + Random.State.int st 4, gen_ctrl st (depth - 1))

let generate st = gen_ctrl st 3

(* ------------------------------------------------------------------ *)
(* Building. Register references are indices resolved modulo the [safe]
   set (registers whose writer has definitely completed before this
   subtree runs), so every spec — including every shrink candidate —
   materializes to a race-free program. *)

type b = {
  mutable cells : cell list;
  mutable groups : group list;
  mutable reg_count : int;
  mutable group_count : int;
  mutable cell_count : int;
}

let fresh_reg b =
  let name = Printf.sprintf "r%d" b.reg_count in
  b.reg_count <- b.reg_count + 1;
  b.cells <- reg name width :: b.cells;
  name

let fresh_cell b prim_name params =
  let name = Printf.sprintf "c%d" b.cell_count in
  b.cell_count <- b.cell_count + 1;
  b.cells <- prim name prim_name params :: b.cells;
  name

let fresh_group b base assigns =
  let name = Printf.sprintf "%s%d" base b.group_count in
  b.group_count <- b.group_count + 1;
  let assigns = assigns name in
  b.groups <- group name assigns :: b.groups;
  name

let resolve safe i =
  match safe with
  | [] -> None
  | _ -> Some (List.nth safe (i mod List.length safe))

let build_source b safe src =
  match src with
  | S_const c -> (lit ~width (c mod 200), [])
  | S_reg i -> (
      match resolve safe i with
      | Some r -> (pa r "out", [])
      | None -> (lit ~width (i mod 200), []))
  | S_sum (a, addend) ->
      let adder = fresh_cell b "std_add" [ width ] in
      let a =
        match a with
        | O_const c -> lit ~width (c mod 100)
        | O_reg i -> (
            match resolve safe i with
            | Some r -> pa r "out"
            | None -> lit ~width (i mod 100))
      in
      let bnd = lit ~width (1 + (addend mod 50)) in
      ( pa adder "out",
        [ assign (port adder "left") a; assign (port adder "right") bnd ] )

let build_action b safe src =
  let target = fresh_reg b in
  let atom, extra = build_source b safe src in
  let name =
    fresh_group b "act" (fun name ->
        extra
        @ [
            assign (port target "in") atom;
            assign (port target "write_en") (bit true);
            assign (hole name "done") (pa target "done");
          ])
  in
  (target, name)

let build_cond b safe lhs_idx rhs =
  let cmp = fresh_cell b "std_lt" [ width ] in
  let lhs =
    match resolve safe lhs_idx with
    | Some r -> pa r "out"
    | None -> lit ~width 0
  in
  let name =
    fresh_group b "cnd" (fun name ->
        [
          assign (port cmp "left") lhs;
          assign (port cmp "right") (lit ~width (rhs mod 120));
          assign (hole name "done") (bit true);
        ])
  in
  (name, Cell_port (cmp, "out"))

let rec build_ctrl b safe spec =
  match spec with
  | Act src ->
      let target, name = build_action b safe src in
      (enable name, [ target ])
  | Seqs cs ->
      let rec go safe written = function
        | [] -> ([], written)
        | c :: rest ->
            let ctrl, w = build_ctrl b safe c in
            let rest, written' = go (safe @ w) (written @ w) rest in
            (ctrl :: rest, written')
      in
      let cs, written = go safe [] cs in
      (seq cs, written)
  | Pars cs ->
      let children = List.map (build_ctrl b safe) cs in
      (par (List.map fst children), List.concat_map snd children)
  | Ifs { lhs; rhs; t; f } ->
      let cond, p = build_cond b safe lhs rhs in
      let tc, wt = build_ctrl b safe t in
      let fc, wf =
        match f with
        | Some f -> build_ctrl b safe f
        | None -> (Empty, [])
      in
      (if_ ~cond p tc fc, wt @ wf)
  | Whiles (bound, body) ->
      let counter = fresh_reg b in
      let adder = fresh_cell b "std_add" [ width ] in
      let incr =
        fresh_group b "inc" (fun name ->
            [
              assign (port adder "left") (pa counter "out");
              assign (port adder "right") (lit ~width 1);
              assign (port counter "in") (pa adder "out");
              assign (port counter "write_en") (bit true);
              assign (hole name "done") (pa counter "done");
            ])
      in
      let cmp = fresh_cell b "std_lt" [ width ] in
      let cond =
        fresh_group b "cnd" (fun name ->
            [
              assign (port cmp "left") (pa counter "out");
              assign (port cmp "right") (lit ~width bound);
              assign (hole name "done") (bit true);
            ])
      in
      let bc, wb = build_ctrl b (counter :: safe) body in
      ( while_ ~cond (Cell_port (cmp, "out")) (seq [ bc; enable incr ]),
        counter :: wb )

let generated =
  Calyx_telemetry.Metrics.counter
    ~help:"Random programs built by the fuzz generator"
    "calyx_fuzz_programs_total"

let build spec =
  Calyx_telemetry.Metrics.inc generated;
  let b =
    { cells = []; groups = []; reg_count = 0; group_count = 0; cell_count = 0 }
  in
  let control, _ = build_ctrl b [] spec in
  let main =
    component "main"
    |> with_cells (List.rev b.cells)
    |> with_groups (List.rev b.groups)
    |> with_control control
  in
  context [ main ]

let spec_of_seed seed = generate (Random.State.make [| seed |])
let program_of_seed seed = build (spec_of_seed seed)

(* ------------------------------------------------------------------ *)
(* Shrinking. Every candidate is strictly smaller under [size], which
   counts spec nodes plus while bounds plus non-trivial sources, so a
   greedy shrink loop terminates. *)

let rec size = function
  | Act (S_const _) -> 1
  | Act _ -> 2
  | Seqs cs | Pars cs -> List.fold_left (fun n c -> n + size c) 1 cs
  | Ifs { t; f; _ } ->
      1 + size t + (match f with Some f -> size f | None -> 0)
  | Whiles (bound, body) -> 1 + bound + size body

let remove_at i xs = List.filteri (fun j _ -> j <> i) xs

let subst_at i x' xs = List.mapi (fun j x -> if j = i then x' else x) xs

let rec shrink spec =
  match spec with
  | Act (S_const _) -> []
  | Act _ -> [ Act (S_const 1) ]
  | Seqs [ c ] -> (c :: shrink c) @ List.map (fun c' -> Seqs [ c' ]) (shrink c)
  | Seqs cs -> shrink_list (fun cs -> Seqs cs) cs
  | Pars [ c ] -> (c :: shrink c) @ List.map (fun c' -> Pars [ c' ]) (shrink c)
  | Pars cs -> shrink_list (fun cs -> Pars cs) cs
  | Ifs { lhs; rhs; t; f } ->
      (t :: (match f with Some f -> [ f ] | None -> []))
      @ (match f with
        | Some _ -> [ Ifs { lhs; rhs; t; f = None } ]
        | None -> [])
      @ List.map (fun t' -> Ifs { lhs; rhs; t = t'; f }) (shrink t)
      @ (match f with
        | Some fc ->
            List.map (fun f' -> Ifs { lhs; rhs; t; f = Some f' }) (shrink fc)
        | None -> [])
  | Whiles (bound, body) ->
      (body :: (if bound > 1 then [ Whiles (bound - 1, body) ] else []))
      @ List.map (fun b' -> Whiles (bound, b')) (shrink body)

and shrink_list rebuild cs =
  let n = List.length cs in
  cs
  @ List.concat
      (List.init n (fun i -> [ rebuild (remove_at i cs) ]))
  @ List.concat
      (List.mapi
         (fun i c -> List.map (fun c' -> rebuild (subst_at i c' cs)) (shrink c))
         cs)

(* Greedy descent: take the first failing candidate at every step. Each
   step depends on the last, so this is sequential by nature. *)
let rec minimize ~fails spec =
  match List.find_opt fails (shrink spec) with
  | Some smaller -> minimize ~fails smaller
  | None -> spec

(* ------------------------------------------------------------------ *)

let rec to_string spec =
  match spec with
  | Act (S_const c) -> Printf.sprintf "(act %d)" c
  | Act (S_reg i) -> Printf.sprintf "(act r%d)" i
  | Act (S_sum (O_reg i, b)) -> Printf.sprintf "(act (+ r%d %d))" i b
  | Act (S_sum (O_const c, b)) -> Printf.sprintf "(act (+ %d %d))" c b
  | Seqs cs ->
      Printf.sprintf "(seq %s)" (String.concat " " (List.map to_string cs))
  | Pars cs ->
      Printf.sprintf "(par %s)" (String.concat " " (List.map to_string cs))
  | Ifs { lhs; rhs; t; f } ->
      Printf.sprintf "(if (< r%d %d) %s%s)" lhs rhs (to_string t)
        (match f with Some f -> " " ^ to_string f | None -> "")
  | Whiles (bound, body) ->
      Printf.sprintf "(while %d %s)" bound (to_string body)
