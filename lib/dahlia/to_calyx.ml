open Ast
open Calyx
open Calyx.Ir
module SM = Calyx.Ir.String_map

exception Backend_error of string

let backend_error fmt = Format.kasprintf (fun s -> raise (Backend_error s)) fmt

let clog2 = Compile_control.clog2

type st = {
  mutable comp : component;
  cell_names : (string, unit) Hashtbl.t;  (* the cells of [comp] *)
  mutable counter : int;
  mutable widths : int SM.t;  (* variable -> width *)
  mems : decl SM.t;
}

let fresh st base =
  let n = st.counter in
  st.counter <- n + 1;
  Printf.sprintf "%s%d" base n

let add_cell st cell =
  st.comp <- Ir.add_cell st.comp cell;
  Hashtbl.replace st.cell_names cell.cell_name ()

let add_group st group = st.comp <- Ir.add_group st.comp group

let reg_cell var = "v_" ^ var

let ensure_reg st var w =
  if not (Hashtbl.mem st.cell_names (reg_cell var)) then
    add_cell st (Builder.reg (reg_cell var) w);
  st.widths <- SM.add var w st.widths

let var_width st x =
  match SM.find_opt x st.widths with
  | Some w -> w
  | None -> backend_error "unbound variable %s" x

let mem_decl st m =
  match SM.find_opt m st.mems with
  | Some d -> d
  | None -> backend_error "unbound memory %s" m

let mem_elem_width st m = match (mem_decl st m).elem with UBit w -> w

let ewidth st e =
  Typecheck.expr_width
    ~width_of_var:(fun x -> SM.find_opt x st.widths)
    ~width_of_mem:(fun m ->
      Option.map (fun d -> match d.elem with UBit w -> w) (SM.find_opt m st.mems))
    e

(* Per-group build context: assignments accumulate and deduplicate (e.g.
   two reads of one memory at the same address yield one address driver);
   width coercions are cached so repeated uses share one slice/pad cell. *)
type gctx = {
  assigns : assignment list ref;
  coercions : (atom * int * int, atom) Hashtbl.t;
}

let new_gctx () = { assigns = ref []; coercions = Hashtbl.create 8 }

let push g a =
  if not (List.exists (equal_assignment a) !(g.assigns)) then
    g.assigns := !(g.assigns) @ [ a ]

let comb_prim = function
  | Add -> "std_add"
  | Sub -> "std_sub"
  | BAnd -> "std_and"
  | BOr -> "std_or"
  | BXor -> "std_xor"
  | Shl -> "std_lsh"
  | Shr -> "std_rsh"
  | Lt -> "std_lt"
  | Gt -> "std_gt"
  | Le -> "std_le"
  | Ge -> "std_ge"
  | Eq -> "std_eq"
  | Neq -> "std_neq"
  | (Mul | Div | Rem) as op ->
      backend_error "pipe operator %s in combinational context" (binop_name op)

(* Width-adapt an atom with a slice or pad cell (one per group and use). *)
let coerce st g atom ~from_w ~to_w =
  if from_w = to_w then atom
  else
    match Hashtbl.find_opt g.coercions (atom, from_w, to_w) with
    | Some out -> out
    | None ->
        let kind = if from_w > to_w then "std_slice" else "std_pad" in
        let cell = fresh st "adapt" in
        add_cell st (Builder.prim cell kind [ from_w; to_w ]);
        push g (Builder.assign (Builder.port cell "in") atom);
        let out = Builder.pa cell "out" in
        Hashtbl.replace g.coercions (atom, from_w, to_w) out;
        out

(* Build a combinational expression into [assigns], returning its atom.
   [w] is the width the context requires. *)
let rec build_comb st g e w =
  match e with
  | EInt v -> Builder.lit ~width:w v
  | EVar x ->
      let vw = var_width st x in
      coerce st g (Builder.pa (reg_cell x) "out") ~from_w:vw ~to_w:w
  | ERead (m, idxs) ->
      let atom = build_read st g m idxs in
      coerce st g atom ~from_w:(mem_elem_width st m) ~to_w:w
  | EBinop (((Lt | Gt | Le | Ge | Eq | Neq) as op), a, b) ->
      let ow =
        match (ewidth st a, ewidth st b) with
        | Some x, _ -> x
        | None, Some y -> y
        | None, None -> backend_error "cannot size comparison %s" (binop_name op)
      in
      let cell = fresh st "cmp" in
      add_cell st (Builder.prim ~attrs:(Attrs.of_list [ ("share", 1) ]) cell
                     (comb_prim op) [ ow ]);
      push g (Builder.assign (Builder.port cell "left") (build_comb st g a ow));
      push g (Builder.assign (Builder.port cell "right") (build_comb st g b ow));
      coerce st g (Builder.pa cell "out") ~from_w:1 ~to_w:w
  | EBinop (op, a, b) ->
      let cell = fresh st "op" in
      add_cell st (Builder.prim ~attrs:(Attrs.of_list [ ("share", 1) ]) cell
                     (comb_prim op) [ w ]);
      push g (Builder.assign (Builder.port cell "left") (build_comb st g a w));
      push g (Builder.assign (Builder.port cell "right") (build_comb st g b w));
      Builder.pa cell "out"
  | ESqrt _ -> backend_error "sqrt in combinational context (lowering bug)"

(* Drive a memory's address ports for an access, returning the read atom. *)
and build_read st g m idxs =
  let d = mem_decl st m in
  List.iteri
    (fun i (dim, idx) ->
      let addr_w = clog2 dim.size in
      let atom =
        match ewidth st idx with
        | Some iw ->
            let a = build_comb st g idx iw in
            coerce st g a ~from_w:iw ~to_w:addr_w
        | None -> build_comb st g idx addr_w
      in
      push g
        (Builder.assign (Builder.port m (Printf.sprintf "addr%d" i)) atom))
    (List.combine d.dims idxs);
  Builder.pa m "read_data"

(* The right-hand side of an update: combinational, or one pipe at the
   root. Returns (value atom, write-enable guard, static latency). *)
let build_rhs st g e w =
  let pipe prim latency outs ops =
    let cell = fresh st "pipe" in
    add_cell st (Builder.prim cell prim [ w ]);
    List.iter
      (fun (port, operand) ->
        push g
          (Builder.assign (Builder.port cell port) (build_comb st g operand w)))
      ops;
    push g
      (Builder.assign
         ~guard:(Builder.g_not (Builder.g_port cell "done"))
         (Builder.port cell "go") (Builder.bit true));
    (Builder.pa cell outs, Some (Builder.g_port cell "done"), latency)
  in
  match e with
  | EBinop (Mul, a, b) ->
      pipe "std_mult_pipe" (Some (Prims.mult_latency + 1)) "out"
        [ ("left", a); ("right", b) ]
  | EBinop (Div, a, b) ->
      pipe "std_div_pipe" (Some (Prims.div_latency + 1)) "out_quotient"
        [ ("left", a); ("right", b) ]
  | EBinop (Rem, a, b) ->
      pipe "std_div_pipe" (Some (Prims.div_latency + 1)) "out_remainder"
        [ ("left", a); ("right", b) ]
  | ESqrt inner ->
      (* Data-dependent latency: no static annotation (Section 6.2). *)
      pipe "std_sqrt" None "out" [ ("in", inner) ]
  | _ -> (build_comb st g e w, None, Some 1)

let static_attrs = function
  | Some n -> Attrs.of_list [ ("static", n) ]
  | None -> Attrs.empty

(* A register update group. *)
let update_group st var e =
  let w = var_width st var in
  let g = new_gctx () in
  let value, en_guard, latency = build_rhs st g e w in
  let name = fresh st ("upd_" ^ var ^ "_") in
  let r = reg_cell var in
  push g (Builder.assign (Builder.port r "in") value);
  push g
    (Builder.assign ?guard:en_guard (Builder.port r "write_en") (Builder.bit true));
  push g (Builder.assign (Builder.hole name "done") (Builder.pa r "done"));
  add_group st (Builder.group ~attrs:(static_attrs latency) name !(g.assigns));
  name

let store_group st m idxs e =
  let w = mem_elem_width st m in
  let d = mem_decl st m in
  let g = new_gctx () in
  List.iteri
    (fun i (dim, idx) ->
      let addr_w = clog2 dim.size in
      let atom =
        match ewidth st idx with
        | Some iw ->
            let a = build_comb st g idx iw in
            coerce st g a ~from_w:iw ~to_w:addr_w
        | None -> build_comb st g idx addr_w
      in
      push g
        (Builder.assign (Builder.port m (Printf.sprintf "addr%d" i)) atom))
    (List.combine d.dims idxs);
  let value, en_guard, latency = build_rhs st g e w in
  let name = fresh st "store_" in
  push g (Builder.assign (Builder.port m "write_data") value);
  push g
    (Builder.assign ?guard:en_guard (Builder.port m "write_en") (Builder.bit true));
  push g (Builder.assign (Builder.hole name "done") (Builder.pa m "done"));
  add_group st (Builder.group ~attrs:(static_attrs latency) name !(g.assigns));
  name

(* A condition group: computes the (combinational) condition onto a port
   and signals done immediately. *)
let cond_group st c =
  let g = new_gctx () in
  let atom = build_comb st g c 1 in
  let port =
    match atom with
    | Port p -> p
    | Lit _ ->
        let cell = fresh st "cw" in
        add_cell st (Builder.prim cell "std_wire" [ 1 ]);
        push g (Builder.assign (Builder.port cell "in") atom);
        Builder.port cell "out"
  in
  let name = fresh st "cond" in
  push g (Builder.assign (Builder.hole name "done") (Builder.bit true));
  add_group st (Builder.group ~attrs:(static_attrs (Some 1)) name !(g.assigns));
  (name, port)

let rec compile_stmt st = function
  | SSkip -> Empty
  | SLet (x, UBit w, e) ->
      ensure_reg st x w;
      Enable (update_group st x e, Attrs.empty)
  | SAssign (x, e) -> Enable (update_group st x e, Attrs.empty)
  | SStore (m, idxs, e) -> Enable (store_group st m idxs e, Attrs.empty)
  | SIf (c, t, f) ->
      let cond, port = cond_group st c in
      let tbranch = compile_stmt st t in
      let fbranch = compile_stmt st f in
      If { cond_port = port; cond_group = Some cond; tbranch; fbranch;
           if_attrs = Attrs.empty }
  | SWhile (c, body) ->
      let cond, port = cond_group st c in
      let body = compile_stmt st body in
      While { cond_port = port; cond_group = Some cond; body;
              while_attrs = Attrs.empty }
  | SSeq ss -> Seq (List.map (compile_stmt st) ss, Attrs.empty)
  | SPar ss -> Par (List.map (compile_stmt st) ss, Attrs.empty)
  | SFor _ -> backend_error "for loop survived lowering"

let mem_cell d =
  let external_ = Attrs.of_list [ ("external", 1) ] in
  let (UBit w) = d.elem in
  match d.dims with
  | [ d0 ] ->
      Builder.prim ~attrs:external_ d.decl_name "std_mem_d1"
        [ w; d0.size; clog2 d0.size ]
  | [ d0; d1 ] ->
      Builder.prim ~attrs:external_ d.decl_name "std_mem_d2"
        [ w; d0.size; d1.size; clog2 d0.size; clog2 d1.size ]
  | _ ->
      backend_error "memory %s: only 1-D and 2-D memories are supported"
        d.decl_name

let compile prog =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "frontend" @@ fun () ->
  let lowered = Lowering.lower prog in
  let mems =
    List.fold_left (fun acc d -> SM.add d.decl_name d acc) SM.empty lowered.decls
  in
  let st =
    {
      comp = Builder.component "main";
      cell_names = Hashtbl.create 64;
      counter = 0;
      widths = SM.empty;
      mems;
    }
  in
  List.iter (fun d -> add_cell st (mem_cell d)) lowered.decls;
  let control = compile_stmt st lowered.body in
  let ctx = Builder.context [ Builder.with_control control st.comp ] in
  Well_formed.check ctx;
  ctx

let memory_names prog =
  List.map (fun d -> d.decl_name) (Lowering.lower prog).decls
