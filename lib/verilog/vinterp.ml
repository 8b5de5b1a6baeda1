(* A cycle-accurate interpreter for the SystemVerilog subset the emitter
   produces. Three stages: a lexer/recursive-descent parser over the
   synthesizable subset, an elaborator that flattens the instance hierarchy
   into one net table (every net named by its dotted hierarchical path,
   parameters bound, constant expressions folded, expressions compiled to
   closures), and a two-phase engine mirroring Sim's per-cycle discipline.

   The engine is activity-driven. Settle processes (continuous assigns,
   port bindings, always_comb blocks) are the nodes of a
   [Calyx_sim.Sched] graph whose slots are the nets plus one slot per
   memory array; settle runs only the dirty processes, in level order,
   with the scheduler's divergence budget on cyclic components. Commit
   runs an always_ff block only when a slot it reads or writes changed
   since its last run, staging its non-blocking writes in preallocated
   buffers. Every change to a slot — by a process, a commit write or a
   poke — marks that slot's readers, so each cycle touches only what can
   have changed. *)

open Calyx

exception Parse_error of string
exception Elab_error of string
exception Unstable of { cycle : int; message : string }
exception Timeout of { budget : int }

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt
let elab_error fmt = Format.kasprintf (fun s -> raise (Elab_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type tok =
  | Tid of string
  | Tsys of string  (* $sqrt *)
  | Tnum of int option * int64  (* sized width (None = unsized), value *)
  | Tones  (* '1 *)
  | Tlp | Trp | Tlb | Trb | Tlc | Trc
  | Tsemi | Tcomma | Tcolon | Tquest | Tat | Thash | Tdot
  | Tassign | Tplus | Tminus | Tstar | Tslash | Tpercent
  | Tamp | Tpipe | Tcaret | Ttilde | Tbang
  | Tlt | Tgt | Tle | Tge | Teqeq | Tneq | Tshl | Tshr
  | Teof

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let lex src =
  let n = String.length src in
  let toks = ref [] and line = ref 1 in
  let emit t = toks := (t, !line) :: !toks in
  let i = ref 0 in
  let digit_val c =
    if is_digit c then Char.code c - Char.code '0'
    else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
    else if c >= 'A' && c <= 'F' then Char.code c - Char.code 'A' + 10
    else -1
  in
  let read_digits base =
    let v = ref 0L in
    let any = ref false in
    let continue = ref true in
    while !continue && !i < n do
      let c = src.[!i] in
      if c = '_' then incr i
      else
        let d = digit_val c in
        if d >= 0 && d < base then begin
          any := true;
          v := Int64.add (Int64.mul !v (Int64.of_int base)) (Int64.of_int d);
          incr i
        end
        else continue := false
    done;
    if not !any then parse_error "line %d: expected digits" !line;
    !v
  in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if is_digit c then begin
      let v = read_digits 10 in
      if !i < n && src.[!i] = '\'' then begin
        incr i;
        let base =
          if !i >= n then parse_error "line %d: truncated literal" !line
          else
            match src.[!i] with
            | 'd' | 'D' -> 10
            | 'b' | 'B' -> 2
            | 'h' | 'H' -> 16
            | c -> parse_error "line %d: unsupported base '%c'" !line c
        in
        incr i;
        let value = read_digits base in
        let w = Int64.to_int v in
        if w < 1 || w > 64 then
          parse_error "line %d: literal width %d out of range" !line w;
        emit (Tnum (Some w, value))
      end
      else emit (Tnum (None, v))
    end
    else if c = '\'' then begin
      incr i;
      if !i < n && src.[!i] = '1' then begin incr i; emit Tones end
      else if !i < n && src.[!i] = '0' then begin
        incr i;
        emit (Tnum (None, 0L))
      end
      else parse_error "line %d: unsupported unsized literal" !line
    end
    else if is_id_start c then begin
      let s = !i in
      while !i < n && is_id_char src.[!i] do incr i done;
      emit (Tid (String.sub src s (!i - s)))
    end
    else if c = '$' then begin
      incr i;
      let s = !i in
      while !i < n && is_id_char src.[!i] do incr i done;
      emit (Tsys (String.sub src s (!i - s)))
    end
    else begin
      let two =
        if !i + 1 < n then Some (String.sub src !i 2) else None
      in
      match two with
      | Some "<=" -> emit Tle; i := !i + 2
      | Some ">=" -> emit Tge; i := !i + 2
      | Some "==" -> emit Teqeq; i := !i + 2
      | Some "!=" -> emit Tneq; i := !i + 2
      | Some "<<" -> emit Tshl; i := !i + 2
      | Some ">>" -> emit Tshr; i := !i + 2
      | _ ->
          (match c with
          | '(' -> emit Tlp
          | ')' -> emit Trp
          | '[' -> emit Tlb
          | ']' -> emit Trb
          | '{' -> emit Tlc
          | '}' -> emit Trc
          | ';' -> emit Tsemi
          | ',' -> emit Tcomma
          | ':' -> emit Tcolon
          | '?' -> emit Tquest
          | '@' -> emit Tat
          | '#' -> emit Thash
          | '.' -> emit Tdot
          | '=' -> emit Tassign
          | '+' -> emit Tplus
          | '-' -> emit Tminus
          | '*' -> emit Tstar
          | '/' -> emit Tslash
          | '%' -> emit Tpercent
          | '&' -> emit Tamp
          | '|' -> emit Tpipe
          | '^' -> emit Tcaret
          | '~' -> emit Ttilde
          | '!' -> emit Tbang
          | '<' -> emit Tlt
          | '>' -> emit Tgt
          | c -> parse_error "line %d: unexpected character '%c'" !line c);
          incr i
    end
  done;
  emit Teof;
  Array.of_list (List.rev !toks)

(* ------------------------------------------------------------------ *)
(* AST and parser                                                      *)
(* ------------------------------------------------------------------ *)

type expr =
  | E_id of string
  | E_num of int option * int64
  | E_ones
  | E_un of char * expr
  | E_bin of string * expr * expr
  | E_cond of expr * expr * expr
  | E_concat of expr list
  | E_repl of expr * expr
  | E_select of string * expr * expr  (* name[msb:lsb], constant bounds *)
  | E_index of string * expr  (* array element or dynamic bit select *)
  | E_sqrt of expr

type stmt =
  | S_if of expr * stmt list * stmt list
  | S_assign of lval * expr

and lval = L_id of string | L_idx of string * expr

type range = expr * expr

type item =
  | I_decl of range option * string list
  | I_array of range * string * range
  | I_assign of string * expr
  | I_ff of stmt list
  | I_comb of stmt list
  | I_inst of {
      i_mod : string;
      i_params : (string * expr) list;
      i_name : string;
      i_conns : (string * expr) list;
    }

type port = { p_name : string; p_dir : [ `In | `Out ]; p_range : range option }

type vmodule = {
  m_name : string;
  m_params : (string * expr) list;
  m_ports : port list;
  m_items : item list;
}

type pstate = { toks : (tok * int) array; mutable pos : int }

let peek p = fst p.toks.(p.pos)
let cur_line p = snd p.toks.(p.pos)
let advance p = p.pos <- p.pos + 1

let next p =
  let t = peek p in
  advance p;
  t

let describe = function
  | Tid s -> Printf.sprintf "identifier %s" s
  | Tsys s -> "$" ^ s
  | Tnum _ -> "number"
  | Tones -> "'1"
  | Teof -> "end of input"
  | _ -> "punctuation"

let expect p t what =
  if peek p = t then advance p
  else parse_error "line %d: expected %s, found %s" (cur_line p) what
      (describe (peek p))

let expect_id p =
  match next p with
  | Tid s -> s
  | t -> parse_error "line %d: expected identifier, found %s" (cur_line p) (describe t)

let expect_kw p kw =
  match next p with
  | Tid s when String.equal s kw -> ()
  | t -> parse_error "line %d: expected %s, found %s" (cur_line p) kw (describe t)

(* Expression grammar, lowest precedence first (Verilog's order). *)
let rec parse_expr p = parse_cond p

and parse_cond p =
  let c = parse_or p in
  if peek p = Tquest then begin
    advance p;
    let t = parse_cond p in
    expect p Tcolon ":";
    let f = parse_cond p in
    E_cond (c, t, f)
  end
  else c

and parse_binlevel p ops sub =
  let rec go acc =
    match List.assoc_opt (peek p) ops with
    | Some name ->
        advance p;
        go (E_bin (name, acc, sub p))
    | None -> acc
  in
  go (sub p)

and parse_or p = parse_binlevel p [ (Tpipe, "|") ] parse_xor
and parse_xor p = parse_binlevel p [ (Tcaret, "^") ] parse_and
and parse_and p = parse_binlevel p [ (Tamp, "&") ] parse_eq

and parse_eq p =
  parse_binlevel p [ (Teqeq, "=="); (Tneq, "!=") ] parse_rel

and parse_rel p =
  parse_binlevel p
    [ (Tlt, "<"); (Tgt, ">"); (Tle, "<="); (Tge, ">=") ]
    parse_shift

and parse_shift p = parse_binlevel p [ (Tshl, "<<"); (Tshr, ">>") ] parse_add

and parse_add p =
  parse_binlevel p [ (Tplus, "+"); (Tminus, "-") ] parse_mul

and parse_mul p =
  parse_binlevel p
    [ (Tstar, "*"); (Tslash, "/"); (Tpercent, "%") ]
    parse_unary

and parse_unary p =
  match peek p with
  | Ttilde -> advance p; E_un ('~', parse_unary p)
  | Tbang -> advance p; E_un ('!', parse_unary p)
  | Tminus -> advance p; E_un ('-', parse_unary p)
  | _ -> parse_primary p

and parse_primary p =
  match next p with
  | Tnum (w, v) -> E_num (w, v)
  | Tones -> E_ones
  | Tlp ->
      let e = parse_expr p in
      expect p Trp ")";
      e
  | Tlc ->
      let first = parse_expr p in
      if peek p = Tlc then begin
        (* Replication: { count { elem } } *)
        advance p;
        let elem = parse_expr p in
        expect p Trc "}";
        expect p Trc "}";
        E_repl (first, elem)
      end
      else begin
        let elems = ref [ first ] in
        while peek p = Tcomma do
          advance p;
          elems := parse_expr p :: !elems
        done;
        expect p Trc "}";
        E_concat (List.rev !elems)
      end
  | Tsys "sqrt" ->
      expect p Tlp "(";
      let e = parse_expr p in
      expect p Trp ")";
      E_sqrt e
  | Tid name ->
      if peek p = Tlb then begin
        advance p;
        let e1 = parse_expr p in
        if peek p = Tcolon then begin
          advance p;
          let e2 = parse_expr p in
          expect p Trb "]";
          E_select (name, e1, e2)
        end
        else begin
          expect p Trb "]";
          E_index (name, e1)
        end
      end
      else E_id name
  | t ->
      parse_error "line %d: unexpected %s in expression" (cur_line p)
        (describe t)

let parse_range p =
  expect p Tlb "[";
  let msb = parse_expr p in
  expect p Tcolon ":";
  let lsb = parse_expr p in
  expect p Trb "]";
  (msb, lsb)

let parse_range_opt p = if peek p = Tlb then Some (parse_range p) else None

let rec parse_stmt p =
  match peek p with
  | Tid "begin" ->
      advance p;
      let acc = ref [] in
      while peek p <> Tid "end" do
        acc := List.rev_append (parse_stmt p) !acc
      done;
      advance p;
      List.rev !acc
  | Tid "if" ->
      advance p;
      expect p Tlp "(";
      let c = parse_expr p in
      expect p Trp ")";
      let t = parse_stmt p in
      let f =
        if peek p = Tid "else" then begin
          advance p;
          parse_stmt p
        end
        else []
      in
      [ S_if (c, t, f) ]
  | _ ->
      let name = expect_id p in
      let lv =
        if peek p = Tlb then begin
          advance p;
          let ix = parse_expr p in
          expect p Trb "]";
          L_idx (name, ix)
        end
        else L_id name
      in
      (match next p with
      | Tle | Tassign -> ()
      | t ->
          parse_error "line %d: expected assignment, found %s" (cur_line p)
            (describe t));
      let e = parse_expr p in
      expect p Tsemi ";";
      [ S_assign (lv, e) ]

let parse_named_bindings p =
  expect p Tlp "(";
  let acc = ref [] in
  if peek p <> Trp then begin
    let one () =
      expect p Tdot ".";
      let name = expect_id p in
      expect p Tlp "(";
      let e = parse_expr p in
      expect p Trp ")";
      acc := (name, e) :: !acc
    in
    one ();
    while peek p = Tcomma do
      advance p;
      one ()
    done
  end;
  expect p Trp ")";
  List.rev !acc

let parse_item p =
  match peek p with
  | Tid "logic" ->
      advance p;
      let r = parse_range_opt p in
      let name = expect_id p in
      if peek p = Tlb then begin
        let sr = parse_range p in
        expect p Tsemi ";";
        let er =
          match r with
          | Some r -> r
          | None -> (E_num (None, 0L), E_num (None, 0L))
        in
        I_array (er, name, sr)
      end
      else begin
        let names = ref [ name ] in
        while peek p = Tcomma do
          advance p;
          names := expect_id p :: !names
        done;
        expect p Tsemi ";";
        I_decl (r, List.rev !names)
      end
  | Tid "assign" ->
      advance p;
      let lhs = expect_id p in
      expect p Tassign "=";
      let rhs = parse_expr p in
      expect p Tsemi ";";
      I_assign (lhs, rhs)
  | Tid "always_ff" ->
      advance p;
      expect p Tat "@";
      expect p Tlp "(";
      expect_kw p "posedge";
      let _clk = expect_id p in
      expect p Trp ")";
      I_ff (parse_stmt p)
  | Tid "always_comb" ->
      advance p;
      I_comb (parse_stmt p)
  | Tid _ ->
      let m = expect_id p in
      let params = if peek p = Thash then (advance p; parse_named_bindings p) else [] in
      let params =
        (* #(.WIDTH(32)) — parameter bindings keep their names. *)
        params
      in
      let name = expect_id p in
      let conns = parse_named_bindings p in
      expect p Tsemi ";";
      I_inst { i_mod = m; i_params = params; i_name = name; i_conns = conns }
  | t -> parse_error "line %d: unexpected %s in module body" (cur_line p) (describe t)

let parse_module p =
  expect_kw p "module";
  let name = expect_id p in
  let params =
    if peek p = Thash then begin
      advance p;
      expect p Tlp "(";
      let acc = ref [] in
      let one () =
        expect_kw p "parameter";
        let pname = expect_id p in
        expect p Tassign "=";
        acc := (pname, parse_expr p) :: !acc
      in
      one ();
      while peek p = Tcomma do
        advance p;
        one ()
      done;
      expect p Trp ")";
      List.rev !acc
    end
    else []
  in
  expect p Tlp "(";
  let ports = ref [] in
  if peek p <> Trp then begin
    let one () =
      let dir =
        match next p with
        | Tid "input" -> `In
        | Tid "output" -> `Out
        | t ->
            parse_error "line %d: expected port direction, found %s"
              (cur_line p) (describe t)
      in
      expect_kw p "logic";
      let r = parse_range_opt p in
      let pname = expect_id p in
      ports := { p_name = pname; p_dir = dir; p_range = r } :: !ports
    in
    one ();
    while peek p = Tcomma do
      advance p;
      one ()
    done
  end;
  expect p Trp ")";
  expect p Tsemi ";";
  let items = ref [] in
  while peek p <> Tid "endmodule" do
    items := parse_item p :: !items
  done;
  advance p;
  {
    m_name = name;
    m_params = params;
    m_ports = List.rev !ports;
    m_items = List.rev !items;
  }

let parse_file src =
  let p = { toks = lex src; pos = 0 } in
  let mods = ref [] in
  while peek p <> Teof do
    mods := parse_module p :: !mods
  done;
  List.rev !mods

(* ------------------------------------------------------------------ *)
(* Elaborated design                                                   *)
(* ------------------------------------------------------------------ *)

module Sched = Calyx_sim.Sched

(* A memory array. Its schedule slot is [nnets + a_id]; until elaboration
   has counted every net, read and write sets name it [lnot a_id]. *)
type arr = { a_id : int; a_width : int; a_data : int64 array }

type cexpr = { w : int; ev : unit -> int64 }

type cstmt =
  | C_if of cexpr * cstmt list * cstmt list
  | C_net of int * int64 * cexpr  (* target, mask, rhs *)
  | C_arr of arr * cexpr * cexpr  (* array, index, rhs *)

(* A settle-time evaluation process: a continuous assign or an always_comb
   block. [pr_run] marks every net it changes. *)
type proc = { pr_reads : int list; pr_writes : int list; pr_run : unit -> unit }

(* An always_ff block and every slot it reads or writes. *)
type ff = { ff_slots : int list; ff_body : cstmt list }

type t = {
  mutable vals : int64 array;
  mutable widths : int array;
  mutable nnets : int;
  net_ids : (string, int) Hashtbl.t;
  arrays_tbl : (string, arr) Hashtbl.t;
  mutable arrays : arr array;  (* by [a_id] *)
  driven : (int, unit) Hashtbl.t;
  ff_targets : (int, unit) Hashtbl.t;  (* nets and [lnot a_id] arrays *)
  mutable rev_procs : proc list;
  mutable rev_ffs : ff list;
  (* Built by [finalize] once every net is known. *)
  mutable sched : Sched.t;  (* settle processes over the slots *)
  mutable eval : int -> unit;  (* run settle process k *)
  mutable ffs : cstmt list array;
  mutable ff_readers : int array array;  (* slot -> ff blocks touching it *)
  mutable ff_dirty : bool array;
  (* Commit staging, one entry per executed non-blocking assignment: the
     target slot, the element index (array writes) and the value. *)
  mutable stg_slot : int array;
  mutable stg_idx : int array;
  mutable stg_val : int64 array;
  mutable stg_len : int;
  max_iters : int;
  mutable cycles : int;
  mutable evals : int;
}

let mask64 w = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let new_net d name w =
  if Hashtbl.mem d.net_ids name then elab_error "duplicate net %s" name;
  if d.nnets = Array.length d.vals then begin
    let cap = max 64 (2 * d.nnets) in
    let vals = Array.make cap 0L and widths = Array.make cap 0 in
    Array.blit d.vals 0 vals 0 d.nnets;
    Array.blit d.widths 0 widths 0 d.nnets;
    d.vals <- vals;
    d.widths <- widths
  end;
  let id = d.nnets in
  d.nnets <- id + 1;
  d.widths.(id) <- w;
  Hashtbl.add d.net_ids name id;
  id

(* Record a change to a slot: its settle readers join the schedule and the
   ff blocks that read or write it run at the next commit. *)
let mark d s =
  Sched.mark_slot d.sched s;
  let blocks = d.ff_readers.(s) in
  for i = 0 to Array.length blocks - 1 do
    d.ff_dirty.(blocks.(i)) <- true
  done

let net_name d id =
  Hashtbl.fold (fun name i acc -> if i = id then name else acc) d.net_ids "?"

type scope = { sc_d : t; sc_prefix : string; sc_params : (string * int64) list }

let net_id sc name =
  let full = sc.sc_prefix ^ name in
  match Hashtbl.find_opt sc.sc_d.net_ids full with
  | Some id -> id
  | None -> elab_error "unbound net %s" full

(* Constant expressions: parameters and literals only (ranges, replication
   counts, select bounds, instance parameter bindings). *)
let rec const_eval sc e =
  match e with
  | E_num (Some w, v) -> Int64.logand v (mask64 w)
  | E_num (None, v) -> v
  | E_id n -> (
      match List.assoc_opt n sc.sc_params with
      | Some v -> v
      | None -> elab_error "non-constant name %s in constant expression" n)
  | E_un ('-', a) -> Int64.neg (const_eval sc a)
  | E_bin ("+", a, b) -> Int64.add (const_eval sc a) (const_eval sc b)
  | E_bin ("-", a, b) -> Int64.sub (const_eval sc a) (const_eval sc b)
  | E_bin ("*", a, b) -> Int64.mul (const_eval sc a) (const_eval sc b)
  | E_bin ("/", a, b) -> Int64.div (const_eval sc a) (const_eval sc b)
  | _ -> elab_error "unsupported constant expression"

let range_width sc (msb, lsb) =
  let msb = Int64.to_int (const_eval sc msb)
  and lsb = Int64.to_int (const_eval sc lsb) in
  if lsb <> 0 then elab_error "only [msb:0] ranges are supported";
  msb - lsb + 1

let rec compile sc rd e =
  let d = sc.sc_d in
  match e with
  | E_num (Some w, v) ->
      let v = Int64.logand v (mask64 w) in
      { w; ev = (fun () -> v) }
  | E_num (None, v) -> { w = 64; ev = (fun () -> v) }
  | E_ones -> { w = 64; ev = (fun () -> -1L) }
  | E_id n -> (
      match List.assoc_opt n sc.sc_params with
      | Some v -> { w = 64; ev = (fun () -> v) }
      | None ->
          let id = net_id sc n in
          rd := id :: !rd;
          { w = d.widths.(id); ev = (fun () -> d.vals.(id)) })
  | E_un ('~', a) ->
      let a = compile sc rd a in
      let m = mask64 a.w in
      { w = a.w; ev = (fun () -> Int64.logand (Int64.lognot (a.ev ())) m) }
  | E_un ('!', a) ->
      let a = compile sc rd a in
      { w = 1; ev = (fun () -> if Int64.equal (a.ev ()) 0L then 1L else 0L) }
  | E_un ('-', a) ->
      let a = compile sc rd a in
      let m = mask64 a.w in
      { w = a.w; ev = (fun () -> Int64.logand (Int64.neg (a.ev ())) m) }
  | E_un (c, _) -> elab_error "unsupported unary operator %c" c
  | E_bin (op, a, b) -> (
      let a = compile sc rd a and b = compile sc rd b in
      let w = max a.w b.w in
      let m = mask64 w in
      let cmp f =
        {
          w = 1;
          ev =
            (fun () ->
              if f (Int64.unsigned_compare (a.ev ()) (b.ev ())) 0 then 1L
              else 0L);
        }
      in
      match op with
      | "+" -> { w; ev = (fun () -> Int64.logand (Int64.add (a.ev ()) (b.ev ())) m) }
      | "-" -> { w; ev = (fun () -> Int64.logand (Int64.sub (a.ev ()) (b.ev ())) m) }
      | "*" -> { w; ev = (fun () -> Int64.logand (Int64.mul (a.ev ()) (b.ev ())) m) }
      | "/" ->
          (* Division by zero yields all-ones, like Bitvec.div. *)
          {
            w;
            ev =
              (fun () ->
                let bv = b.ev () in
                if Int64.equal bv 0L then m
                else Int64.unsigned_div (a.ev ()) bv);
          }
      | "%" ->
          {
            w;
            ev =
              (fun () ->
                let av = a.ev () and bv = b.ev () in
                if Int64.equal bv 0L then av else Int64.unsigned_rem av bv);
          }
      | "&" -> { w; ev = (fun () -> Int64.logand (a.ev ()) (b.ev ())) }
      | "|" -> { w; ev = (fun () -> Int64.logor (a.ev ()) (b.ev ())) }
      | "^" -> { w; ev = (fun () -> Int64.logxor (a.ev ()) (b.ev ())) }
      | "<<" ->
          let m = mask64 a.w in
          {
            w = a.w;
            ev =
              (fun () ->
                let s = b.ev () in
                if Int64.unsigned_compare s 64L >= 0 then 0L
                else
                  Int64.logand
                    (Int64.shift_left (a.ev ()) (Int64.to_int s))
                    m);
          }
      | ">>" ->
          {
            w = a.w;
            ev =
              (fun () ->
                let s = b.ev () in
                if Int64.unsigned_compare s 64L >= 0 then 0L
                else Int64.shift_right_logical (a.ev ()) (Int64.to_int s));
          }
      | "==" ->
          { w = 1; ev = (fun () -> if Int64.equal (a.ev ()) (b.ev ()) then 1L else 0L) }
      | "!=" ->
          { w = 1; ev = (fun () -> if Int64.equal (a.ev ()) (b.ev ()) then 0L else 1L) }
      | "<" -> cmp (fun c z -> c < z)
      | ">" -> cmp (fun c z -> c > z)
      | "<=" -> cmp (fun c z -> c <= z)
      | ">=" -> cmp (fun c z -> c >= z)
      | op -> elab_error "unsupported operator %s" op)
  | E_cond (c, t, f) ->
      let c = compile sc rd c
      and t = compile sc rd t
      and f = compile sc rd f in
      {
        w = max t.w f.w;
        ev = (fun () -> if Int64.equal (c.ev ()) 0L then f.ev () else t.ev ());
      }
  | E_concat es ->
      let ces = List.map (compile sc rd) es in
      let w = List.fold_left (fun acc c -> acc + c.w) 0 ces in
      if w > 64 then elab_error "concatenation wider than 64 bits";
      {
        w;
        ev =
          (fun () ->
            List.fold_left
              (fun acc c ->
                Int64.logor (Int64.shift_left acc c.w) (c.ev ()))
              0L ces);
      }
  | E_repl (count, e) ->
      let count = Int64.to_int (const_eval sc count) in
      let ce = compile sc rd e in
      if count < 0 then elab_error "negative replication count";
      let w = count * ce.w in
      if w > 64 then elab_error "replication wider than 64 bits";
      {
        w;
        ev =
          (fun () ->
            let v = ce.ev () in
            let acc = ref 0L in
            for _ = 1 to count do
              acc := Int64.logor (Int64.shift_left !acc ce.w) v
            done;
            !acc);
      }
  | E_select (name, msb, lsb) ->
      let base = compile sc rd (E_id name) in
      let msb = Int64.to_int (const_eval sc msb)
      and lsb = Int64.to_int (const_eval sc lsb) in
      let w = msb - lsb + 1 in
      if lsb < 0 || w < 1 || w > 64 || lsb > 63 then
        elab_error "bad part-select [%d:%d] on %s" msb lsb name;
      let m = mask64 w in
      {
        w;
        ev =
          (fun () ->
            Int64.logand (Int64.shift_right_logical (base.ev ()) lsb) m);
      }
  | E_index (name, ix) -> (
      match Hashtbl.find_opt d.arrays_tbl (sc.sc_prefix ^ name) with
      | Some a ->
          rd := lnot a.a_id :: !rd;
          let ci = compile sc rd ix in
          let len = Int64.of_int (Array.length a.a_data) in
          {
            w = a.a_width;
            ev =
              (fun () ->
                let i = ci.ev () in
                if Int64.unsigned_compare i len < 0 then
                  a.a_data.(Int64.to_int i)
                else 0L);
          }
      | None ->
          (* Dynamic bit select of a scalar net. *)
          let base = compile sc rd (E_id name) in
          let ci = compile sc rd ix in
          {
            w = 1;
            ev =
              (fun () ->
                let i = ci.ev () in
                if Int64.unsigned_compare i 64L >= 0 then 0L
                else
                  Int64.logand
                    (Int64.shift_right_logical (base.ev ()) (Int64.to_int i))
                    1L);
          })
  | E_sqrt e ->
      let ce = compile sc rd e in
      { w = ce.w; ev = (fun () -> Calyx_sim.Prim_state.isqrt (ce.ev ())) }

let rec compile_stmts sc rd wr stmts =
  List.map
    (fun s ->
      match s with
      | S_if (c, t, f) ->
          let c = compile sc rd c in
          C_if (c, compile_stmts sc rd wr t, compile_stmts sc rd wr f)
      | S_assign (L_id n, e) ->
          let id = net_id sc n in
          wr := id :: !wr;
          C_net (id, mask64 sc.sc_d.widths.(id), compile sc rd e)
      | S_assign (L_idx (n, ix), e) -> (
          match Hashtbl.find_opt sc.sc_d.arrays_tbl (sc.sc_prefix ^ n) with
          | Some a ->
              wr := lnot a.a_id :: !wr;
              C_arr (a, compile sc rd ix, compile sc rd e)
          | None -> elab_error "assignment to unknown array %s%s" sc.sc_prefix n))
    stmts

let add_drive d tgt (ce : cexpr) reads =
  if Hashtbl.mem d.driven tgt then
    elab_error "multiple drivers for net %s" (net_name d tgt);
  Hashtbl.add d.driven tgt ();
  let m = mask64 d.widths.(tgt) in
  let run () =
    let v = Int64.logand (ce.ev ()) m in
    if not (Int64.equal d.vals.(tgt) v) then begin
      d.vals.(tgt) <- v;
      mark d tgt
    end
  in
  d.rev_procs <- { pr_reads = reads; pr_writes = [ tgt ]; pr_run = run } :: d.rev_procs

let rec exec_comb d stmts =
  List.iter
    (fun s ->
      match s with
      | C_if (c, t, f) ->
          if Int64.equal (c.ev ()) 0L then exec_comb d f else exec_comb d t
      | C_net (id, m, e) ->
          let v = Int64.logand (e.ev ()) m in
          if not (Int64.equal d.vals.(id) v) then begin
            d.vals.(id) <- v;
            mark d id
          end
      | C_arr _ -> assert false (* rejected by [add_comb] *))
    stmts

let add_comb d stmts reads writes =
  (* Branches of an if chain each assign the target, so the collected
     write set repeats nets; one always_comb is still one driver. *)
  let writes = List.sort_uniq compare writes in
  List.iter
    (fun tgt ->
      if tgt < 0 then elab_error "array write outside always_ff";
      if Hashtbl.mem d.driven tgt then
        elab_error "net driven by both assign and always_comb";
      Hashtbl.add d.driven tgt ())
    writes;
  let run () = exec_comb d stmts in
  d.rev_procs <- { pr_reads = reads; pr_writes = writes; pr_run = run } :: d.rev_procs

(* One always_ff block. Every net or memory it writes must have no other
   always_ff driver: [commit] skips blocks whose inputs are unchanged, which
   is exact only while each target has a single writer. *)
let add_ff d stmts reads writes =
  let writes = List.sort_uniq compare writes in
  List.iter
    (fun tgt ->
      if Hashtbl.mem d.ff_targets tgt then
        if tgt >= 0 then
          elab_error "multiple drivers for net %s" (net_name d tgt)
        else
          elab_error "multiple drivers for memory %s"
            (Hashtbl.fold
               (fun name a acc -> if a.a_id = lnot tgt then name else acc)
               d.arrays_tbl "?");
      Hashtbl.add d.ff_targets tgt ())
    writes;
  d.rev_ffs <- { ff_slots = reads @ writes; ff_body = stmts } :: d.rev_ffs

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)
(* ------------------------------------------------------------------ *)

let resolve_params sc_of cm overrides =
  List.fold_left
    (fun acc (name, default) ->
      let v =
        match List.assoc_opt name overrides with
        | Some v -> v
        | None -> const_eval (sc_of acc) default
      in
      acc @ [ (name, v) ])
    [] cm.m_params

let rec elab_module d mods ~path ~params m =
  let prefix = if String.equal path "" then "" else path ^ "." in
  let sc = { sc_d = d; sc_prefix = prefix; sc_params = params } in
  let declare name range =
    let w = match range with None -> 1 | Some r -> range_width sc r in
    if w < 1 || w > 64 then
      elab_error "net %s%s has unsupported width %d" prefix name w;
    ignore (new_net d (prefix ^ name) w)
  in
  List.iter (fun p -> declare p.p_name p.p_range) m.m_ports;
  List.iter
    (fun it ->
      match it with
      | I_decl (r, names) -> List.iter (fun nm -> declare nm r) names
      | I_array (er, name, sr) ->
          let ew = range_width sc er in
          let size = range_width sc sr in
          if ew < 1 || ew > 64 then
            elab_error "array %s%s has unsupported element width %d" prefix
              name ew;
          if Hashtbl.mem d.arrays_tbl (prefix ^ name) then
            elab_error "duplicate array %s%s" prefix name;
          let a_id = Hashtbl.length d.arrays_tbl in
          Hashtbl.add d.arrays_tbl (prefix ^ name)
            { a_id; a_width = ew; a_data = Array.make size 0L }
      | _ -> ())
    m.m_items;
  List.iter
    (fun it ->
      match it with
      | I_decl _ | I_array _ -> ()
      | I_assign (lhs, rhs) ->
          let rd = ref [] in
          let ce = compile sc rd rhs in
          add_drive d (net_id sc lhs) ce !rd
      | I_ff stmts ->
          let rd = ref [] and wr = ref [] in
          let cs = compile_stmts sc rd wr stmts in
          add_ff d cs !rd !wr
      | I_comb stmts ->
          let rd = ref [] and wr = ref [] in
          let cs = compile_stmts sc rd wr stmts in
          add_comb d cs !rd !wr
      | I_inst { i_mod; i_params; i_name; i_conns } ->
          let cm =
            match Hashtbl.find_opt mods i_mod with
            | Some m -> m
            | None -> elab_error "unknown module %s" i_mod
          in
          let overrides =
            List.map (fun (p, e) -> (p, const_eval sc e)) i_params
          in
          let child_params =
            resolve_params
              (fun acc -> { sc with sc_params = acc })
              cm overrides
          in
          let child_path = prefix ^ i_name in
          elab_module d mods ~path:child_path ~params:child_params cm;
          let child_prefix = child_path ^ "." in
          List.iter
            (fun (pname, e) ->
              if not (String.equal pname "clk") then
                match
                  List.find_opt
                    (fun p -> String.equal p.p_name pname)
                    cm.m_ports
                with
                | None -> elab_error "module %s has no port %s" i_mod pname
                | Some { p_dir = `In; _ } ->
                    let rd = ref [] in
                    let ce = compile sc rd e in
                    add_drive d
                      (Hashtbl.find d.net_ids (child_prefix ^ pname))
                      ce !rd
                | Some { p_dir = `Out; _ } -> (
                    match e with
                    | E_id wnet ->
                        let src =
                          Hashtbl.find d.net_ids (child_prefix ^ pname)
                        in
                        let tgt = net_id sc wnet in
                        let ce =
                          { w = d.widths.(src); ev = (fun () -> d.vals.(src)) }
                        in
                        add_drive d tgt ce [ src ]
                    | _ ->
                        elab_error
                          "output port %s of %s must connect to a plain net"
                          pname i_mod))
            i_conns)
    m.m_items

(* Build the activity schedule once every net is known. Slots are the nets,
   then one per memory array. The settle processes are the nodes of a
   [Sched] graph; each always_ff block is listed under every slot it reads
   or writes. State nets and top-level inputs have no settle-time producer:
   their changes arrive as marks from [commit] and the pokes. Everything
   starts dirty, so the first cycle sees the whole design. *)
let finalize d =
  let slot r = if r >= 0 then r else d.nnets + lnot r in
  let slots rs = List.sort_uniq compare (List.map slot rs) in
  let nslots = d.nnets + Hashtbl.length d.arrays_tbl in
  let procs = Array.of_list (List.rev d.rev_procs) in
  d.sched <-
    Sched.build ~slots:nslots
      ~nodes:(Array.map (fun p -> (slots p.pr_reads, slots p.pr_writes)) procs);
  let runs = Array.map (fun p -> p.pr_run) procs in
  d.eval <- (fun k -> runs.(k) ());
  let ffs = Array.of_list (List.rev d.rev_ffs) in
  let readers = Array.make nslots [] in
  Array.iteri
    (fun b ff ->
      List.iter
        (fun s -> readers.(s) <- b :: readers.(s))
        (slots ff.ff_slots))
    ffs;
  d.ff_readers <- Array.map (fun bs -> Array.of_list (List.rev bs)) readers;
  d.ffs <- Array.map (fun ff -> ff.ff_body) ffs;
  d.ff_dirty <- Array.make (Array.length ffs) true;
  d.arrays <-
    Array.of_list
      (List.sort
         (fun a b -> compare a.a_id b.a_id)
         (Hashtbl.fold (fun _ a acc -> a :: acc) d.arrays_tbl []));
  (* Each assignment runs at most once per edge, so this many staging
     entries always suffice. *)
  let rec assigns n = function
    | [] -> n
    | C_if (_, t, f) :: rest -> assigns (assigns (assigns n t) f) rest
    | (C_net _ | C_arr _) :: rest -> assigns (n + 1) rest
  in
  let cap = Array.fold_left assigns 0 d.ffs in
  d.stg_slot <- Array.make cap 0;
  d.stg_idx <- Array.make cap 0;
  d.stg_val <- Array.make cap 0L;
  Sched.mark_all d.sched

let load ?(max_fixpoint_iters = 1000) ~top src =
  let modules = parse_file src in
  let mods = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace mods m.m_name m) modules;
  let topm =
    match Hashtbl.find_opt mods top with
    | Some m -> m
    | None -> elab_error "no module %s in the source" top
  in
  let d =
    {
      vals = Array.make 64 0L;
      widths = Array.make 64 0;
      nnets = 0;
      net_ids = Hashtbl.create 256;
      arrays_tbl = Hashtbl.create 16;
      arrays = [||];
      driven = Hashtbl.create 256;
      ff_targets = Hashtbl.create 64;
      rev_procs = [];
      rev_ffs = [];
      sched = Sched.build ~slots:0 ~nodes:[||];
      eval = ignore;
      ffs = [||];
      ff_readers = [||];
      ff_dirty = [||];
      stg_slot = [||];
      stg_idx = [||];
      stg_val = [||];
      stg_len = 0;
      max_iters = max_fixpoint_iters;
      cycles = 0;
      evals = 0;
    }
  in
  let params =
    resolve_params
      (fun acc -> { sc_d = d; sc_prefix = ""; sc_params = acc })
      topm []
  in
  elab_module d mods ~path:"" ~params topm;
  (* A net driven continuously must not also be an always_ff target. *)
  Hashtbl.iter
    (fun id () ->
      if Hashtbl.mem d.driven id then
        elab_error "net driven by both continuous logic and always_ff")
    d.ff_targets;
  finalize d;
  d

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

let settle d =
  match Sched.run d.sched ~eval:d.eval ~max_passes:d.max_iters with
  | evals -> d.evals <- d.evals + evals
  | exception Sched.Diverged ->
      raise
        (Unstable
           { cycle = d.cycles; message = "combinational settle did not converge" })

let stage_write d slot idx v =
  let i = d.stg_len in
  d.stg_slot.(i) <- slot;
  d.stg_idx.(i) <- idx;
  d.stg_val.(i) <- v;
  d.stg_len <- i + 1

let rec stage d = function
  | [] -> ()
  | s :: rest ->
      (match s with
      | C_if (c, t, f) -> stage d (if Int64.equal (c.ev ()) 0L then f else t)
      | C_net (id, m, e) -> stage_write d id 0 (Int64.logand (e.ev ()) m)
      | C_arr (a, ix, e) ->
          let i = ix.ev () in
          (* Out-of-range writes are dropped, like the simulator's memory
             model. *)
          if Int64.unsigned_compare i (Int64.of_int (Array.length a.a_data)) < 0
          then
            stage_write d (d.nnets + a.a_id) (Int64.to_int i)
              (Int64.logand (e.ev ()) (mask64 a.a_width)));
      stage d rest

(* Non-blocking commit: the dirty blocks evaluate against pre-edge values
   into the staging buffers, then the staged writes apply in program order
   (the last write to a target wins), marking the readers of every slot
   that changed. A clean block would rewrite exactly the values its
   targets hold, so skipping it is exact. *)
let commit d =
  d.stg_len <- 0;
  for b = 0 to Array.length d.ffs - 1 do
    if d.ff_dirty.(b) then begin
      d.ff_dirty.(b) <- false;
      stage d d.ffs.(b)
    end
  done;
  for i = 0 to d.stg_len - 1 do
    let s = d.stg_slot.(i) and v = d.stg_val.(i) in
    if s < d.nnets then begin
      if not (Int64.equal d.vals.(s) v) then begin
        d.vals.(s) <- v;
        mark d s
      end
    end
    else begin
      let a = d.arrays.(s - d.nnets) and j = d.stg_idx.(i) in
      if not (Int64.equal a.a_data.(j) v) then begin
        a.a_data.(j) <- v;
        mark d s
      end
    end
  done

let cycle d =
  settle d;
  commit d;
  d.cycles <- d.cycles + 1

let cycles_elapsed d = d.cycles
let evals d = d.evals

let top_net d name =
  match Hashtbl.find_opt d.net_ids name with
  | Some id -> id
  | None -> elab_error "no top-level net %s" name

let poke_net d id v =
  let v = Int64.logand (Bitvec.to_int64 v) (mask64 d.widths.(id)) in
  if not (Int64.equal d.vals.(id) v) then begin
    d.vals.(id) <- v;
    mark d id
  end

let set_input d name v = poke_net d (top_net d name) v

let read_output d name =
  let id = top_net d name in
  Bitvec.make ~width:d.widths.(id) d.vals.(id)

let run ?(max_cycles = 5_000_000) d =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "rtl-sim" @@ fun () ->
  if Calyx_telemetry.Runtime.on () then
    Calyx_telemetry.Trace.add_tag "engine" "rtl";
  let evals0 = d.evals in
  set_input d "go" (Bitvec.one 1);
  let done_id = top_net d "done" in
  let count = ref 0 in
  let finished = ref false in
  while not !finished do
    if !count >= max_cycles then raise (Timeout { budget = max_cycles });
    settle d;
    let dv = d.vals.(done_id) in
    commit d;
    d.cycles <- d.cycles + 1;
    incr count;
    if not (Int64.equal dv 0L) then finished := true
  done;
  if Calyx_telemetry.Runtime.on () then begin
    Calyx_telemetry.Trace.add_metric "cycles" (float_of_int !count);
    Calyx_telemetry.Trace.add_metric "evals" (float_of_int (d.evals - evals0))
  end;
  !count

(* ------------------------------------------------------------------ *)
(* Poke/peek                                                           *)
(* ------------------------------------------------------------------ *)

let register_net d path =
  let name = path ^ ".out" in
  match Hashtbl.find_opt d.net_ids name with
  | Some id -> id
  | None -> elab_error "no register at %s" path

let read_register d path =
  let id = register_net d path in
  Bitvec.make ~width:d.widths.(id) d.vals.(id)

let write_register d path v = poke_net d (register_net d path) v

let memory_array d path =
  match Hashtbl.find_opt d.arrays_tbl (path ^ ".mem") with
  | Some a -> a
  | None -> elab_error "no memory at %s" path

let read_memory d path =
  let a = memory_array d path in
  Array.map (fun v -> Bitvec.make ~width:a.a_width v) a.a_data

let write_memory d path values =
  let a = memory_array d path in
  if Array.length values <> Array.length a.a_data then
    elab_error "memory %s holds %d elements, given %d" path
      (Array.length a.a_data) (Array.length values);
  Array.iteri
    (fun i v ->
      a.a_data.(i) <- Int64.logand (Bitvec.to_int64 v) (mask64 a.a_width))
    values;
  mark d (d.nnets + a.a_id)

let stats d = (d.nnets, Sched.node_count d.sched + Array.length d.ffs)
