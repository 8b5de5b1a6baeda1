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
   have changed. Same-width net-to-net copies are aliases rather than
   processes, and values are native ints (Int64 above 62 bits), so a
   cycle allocates nothing. *)

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

(* Monomorphic token equality: constant constructors are immediates. *)
let tok_equal a b =
  match (a, b) with
  | Tid x, Tid y | Tsys x, Tsys y -> String.equal x y
  | Tnum (w, v), Tnum (w', v') -> Option.equal Int.equal w w' && Int64.equal v v'
  | (Tid _ | Tsys _ | Tnum _), _ | _, (Tid _ | Tsys _ | Tnum _) -> false
  | _ -> a == b

(* The token stream: [toks] and the line of each token in [lines], up to
   [last], the index of the closing [Teof]. *)
type lexed = { toks : tok array; lines : int array; last : int }

let lex src =
  let n = String.length src in
  let cap = (n / 4) + 16 in
  let toks = ref (Array.make cap Teof) and lines = ref (Array.make cap 0) in
  let ntoks = ref 0 and line = ref 1 in
  let emit t =
    if !ntoks = Array.length !toks then begin
      let grow a fill =
        let b = Array.make (2 * !ntoks) fill in
        Array.blit a 0 b 0 !ntoks;
        b
      in
      toks := grow !toks Teof;
      lines := grow !lines 0
    end;
    Array.unsafe_set !toks !ntoks t;
    Array.unsafe_set !lines !ntoks !line;
    incr ntoks
  in
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
  let word () =
    let s = !i in
    while !i < n && is_id_char src.[!i] do incr i done;
    String.sub src s (!i - s)
  in
  let two t =
    emit t;
    i := !i + 2
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
    else if is_id_start c then emit (Tid (word ()))
    else if c = '$' then begin
      incr i;
      emit (Tsys (word ()))
    end
    else begin
      let c2 = if !i + 1 < n then src.[!i + 1] else ' ' in
      match (c, c2) with
      | '<', '=' -> two Tle
      | '>', '=' -> two Tge
      | '=', '=' -> two Teqeq
      | '!', '=' -> two Tneq
      | '<', '<' -> two Tshl
      | '>', '>' -> two Tshr
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
  { toks = !toks; lines = !lines; last = !ntoks - 1 }

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

type pstate = { lx : lexed; mutable pos : int }

(* The parser never moves past the closing [Teof]. *)
let peek p = p.lx.toks.(p.pos)
let cur_line p = p.lx.lines.(p.pos)
let advance p = if p.pos < p.lx.last then p.pos <- p.pos + 1
let is p t = tok_equal (peek p) t

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
  if is p t then advance p
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
  if is p Tquest then begin
    advance p;
    let t = parse_cond p in
    expect p Tcolon ":";
    let f = parse_cond p in
    E_cond (c, t, f)
  end
  else c

and parse_binlevel p ops sub =
  let rec go acc =
    match ops (peek p) with
    | Some name ->
        advance p;
        go (E_bin (name, acc, sub p))
    | None -> acc
  in
  go (sub p)

and parse_or p =
  parse_binlevel p (function Tpipe -> Some "|" | _ -> None) parse_xor

and parse_xor p =
  parse_binlevel p (function Tcaret -> Some "^" | _ -> None) parse_and

and parse_and p =
  parse_binlevel p (function Tamp -> Some "&" | _ -> None) parse_eq

and parse_eq p =
  parse_binlevel p
    (function Teqeq -> Some "==" | Tneq -> Some "!=" | _ -> None)
    parse_rel

and parse_rel p =
  parse_binlevel p
    (function
      | Tlt -> Some "<"
      | Tgt -> Some ">"
      | Tle -> Some "<="
      | Tge -> Some ">="
      | _ -> None)
    parse_shift

and parse_shift p =
  parse_binlevel p
    (function Tshl -> Some "<<" | Tshr -> Some ">>" | _ -> None)
    parse_add

and parse_add p =
  parse_binlevel p
    (function Tplus -> Some "+" | Tminus -> Some "-" | _ -> None)
    parse_mul

and parse_mul p =
  parse_binlevel p
    (function
      | Tstar -> Some "*" | Tslash -> Some "/" | Tpercent -> Some "%" | _ -> None)
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
      if is p Tlc then begin
        (* Replication: { count { elem } } *)
        advance p;
        let elem = parse_expr p in
        expect p Trc "}";
        expect p Trc "}";
        E_repl (first, elem)
      end
      else begin
        let elems = ref [ first ] in
        while is p Tcomma do
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
      if is p Tlb then begin
        advance p;
        let e1 = parse_expr p in
        if is p Tcolon then begin
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

let parse_range_opt p = if is p Tlb then Some (parse_range p) else None

let rec parse_stmt p =
  match peek p with
  | Tid "begin" ->
      advance p;
      let acc = ref [] in
      while not (is p (Tid "end")) do
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
        if is p (Tid "else") then begin
          advance p;
          parse_stmt p
        end
        else []
      in
      [ S_if (c, t, f) ]
  | _ ->
      let name = expect_id p in
      let lv =
        if is p Tlb then begin
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
  if not (is p Trp) then begin
    let one () =
      expect p Tdot ".";
      let name = expect_id p in
      expect p Tlp "(";
      let e = parse_expr p in
      expect p Trp ")";
      acc := (name, e) :: !acc
    in
    one ();
    while is p Tcomma do
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
      if is p Tlb then begin
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
        while is p Tcomma do
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
      let params = if is p Thash then (advance p; parse_named_bindings p) else [] in
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
    if is p Thash then begin
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
      while is p Tcomma do
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
  if not (is p Trp) then begin
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
    while is p Tcomma do
      advance p;
      one ()
    done
  end;
  expect p Trp ")";
  expect p Tsemi ";";
  let items = ref [] in
  while not (is p (Tid "endmodule")) do
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
  let p = { lx = lex src; pos = 0 } in
  let mods = ref [] in
  while not (is p Teof) do
    mods := parse_module p :: !mods
  done;
  List.rev !mods

(* ------------------------------------------------------------------ *)
(* Elaborated design                                                   *)
(* ------------------------------------------------------------------ *)

module Sched = Calyx_sim.Sched

(* Nets and array elements of up to [narrow] bits hold their value as a
   native int. Wider ones (63 and 64 bits, more than a non-negative OCaml
   int holds) keep it as an int64 in a store of their own. *)
let narrow = 62

let is_wide w = w > narrow

(* A memory array. Its schedule slot is [nnets + a_id]; until elaboration
   has counted every net, read and write sets name it [lnot a_id]. The
   elements live in [a_data], or in [a_wide] when they are wider than
   [narrow] bits. *)
type arr = {
  a_id : int;
  a_width : int;
  a_len : int;
  a_data : int array;
  a_wide : int64 array;
}

(* A compiled expression: its self-determined width [w] and a static bound
   [b] on its value, which is always below 2^b (b <= w). [ev] returns the
   value modulo 2^63: the value itself when b <= [narrow], its low 63 bits
   otherwise. The low bits are all that wrapping arithmetic, bitwise
   operators, left shifts and a narrower target need. A comparison, [/],
   [%], [>>], an index or [$sqrt] needs the whole value, so on an operand
   with b > [narrow] it calls [wide], which builds an Int64 closure. [k]
   names a narrow constant or net, so that the common guard shapes compile
   to one closure. *)
type cexpr = {
  w : int;
  b : int;
  k : kind;
  ev : unit -> int;
  wide : unit -> unit -> int64;
}

and kind = K_const of int | K_net of int | K_expr

type cstmt =
  | C_if of (unit -> bool) * cstmt list * cstmt list
  | C_net of int * int * (unit -> int)  (* target, mask, rhs *)
  | C_wnet of int * (unit -> int64)  (* wide target, masked rhs *)
  | C_arr of arr * (unit -> int) * int * (unit -> int)
      (* array, index (-1 when out of range), mask, rhs *)
  | C_warr of arr * (unit -> int) * (unit -> int64)  (* wide elements *)

(* A settle-time evaluation process: a continuous assign or an always_comb
   block. [pr_run] marks every net it changes. *)
type proc = { pr_reads : int list; pr_writes : int list; pr_run : unit -> unit }

(* An always_ff block and every slot it reads or writes. *)
type ff = { ff_slots : int list; ff_body : cstmt list }

type t = {
  mutable vals : int array;  (* narrow nets *)
  mutable wvals : int64 array;  (* wide nets *)
  mutable widths : int array;
  mutable asrc : int array;  (* net -> the net it aliases, or -1 *)
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
  mutable root : int array;  (* slot -> the slot its readers listen on *)
  mutable fwd : int array array;  (* slot -> every net aliasing it *)
  mutable ffs : cstmt list array;
  mutable ff_readers : int array array;  (* slot -> ff blocks touching it *)
  mutable ff_dirty : bool array;
  (* Slots changed outside a settle, by a commit or a poke, waiting for
     the next settle to forward and mark them. *)
  mutable pend : int array;
  mutable npend : int;
  (* Commit staging, one entry per executed non-blocking assignment: the
     target slot, the element index (array writes) and the value, in
     [stg_wval] for a wide target. *)
  mutable stg_slot : int array;
  mutable stg_idx : int array;
  mutable stg_val : int array;
  mutable stg_wval : int64 array;
  mutable stg_len : int;
  max_iters : int;
  mutable cycles : int;
  mutable evals : int;
}

let mask64 w = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

(* [mask64 w] on the native image of a value: its low min(w, 63) bits. *)
let imask w = if w >= 63 then -1 else (1 lsl w) - 1

let new_net d name w =
  if Hashtbl.mem d.net_ids name then elab_error "duplicate net %s" name;
  if d.nnets = Array.length d.vals then begin
    let cap = max 64 (2 * d.nnets) in
    let grow a z =
      let b = Array.make cap z in
      Array.blit a 0 b 0 d.nnets;
      b
    in
    d.vals <- grow d.vals 0;
    d.wvals <- grow d.wvals 0L;
    d.widths <- grow d.widths 0;
    d.asrc <- grow d.asrc (-1)
  end;
  let id = d.nnets in
  d.nnets <- id + 1;
  d.widths.(id) <- w;
  Hashtbl.add d.net_ids name id;
  id

(* A slot changed during a settle: copy its value into every net that
   aliases it, then mark the readers of its alias class — the settle
   processes through [Sched], the always_ff blocks for the next commit. *)
let touch d s =
  let fw = d.fwd.(s) in
  if Array.length fw > 0 then
    if is_wide d.widths.(s) then begin
      let v = d.wvals.(s) in
      for i = 0 to Array.length fw - 1 do
        d.wvals.(fw.(i)) <- v
      done
    end
    else begin
      let v = d.vals.(s) in
      for i = 0 to Array.length fw - 1 do
        d.vals.(fw.(i)) <- v
      done
    end;
  let r = d.root.(s) in
  Sched.mark_slot d.sched r;
  let blocks = d.ff_readers.(r) in
  for i = 0 to Array.length blocks - 1 do
    d.ff_dirty.(blocks.(i)) <- true
  done

(* A slot changed outside a settle. Its aliases keep their old values
   until the next settle starts, as the copy processes they stand for
   would, so the touch waits in [pend]. *)
let defer d s =
  if d.npend = Array.length d.pend then begin
    let p = Array.make (max 16 (2 * d.npend)) 0 in
    Array.blit d.pend 0 p 0 d.npend;
    d.pend <- p
  end;
  d.pend.(d.npend) <- s;
  d.npend <- d.npend + 1

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

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let no_wide : unit -> unit -> int64 =
 fun () -> invalid_arg "Vinterp: no wide form below 63 bits"

let rec bits64 n v =
  if Int64.equal v 0L then n else bits64 (n + 1) (Int64.shift_right_logical v 1)

(* A constant [v], already masked to [w] bits. *)
let const w v =
  let b = bits64 0 v and n = Int64.to_int v in
  {
    w;
    b;
    k = (if is_wide b then K_expr else K_const n);
    ev = (fun () -> n);
    wide = (if is_wide b then fun () () -> v else no_wide);
  }

let net_expr d id =
  let w = d.widths.(id) in
  if is_wide w then
    {
      w;
      b = w;
      k = K_expr;
      ev = (fun () -> Int64.to_int d.wvals.(id));
      wide = (fun () () -> d.wvals.(id));
    }
  else { w; b = w; k = K_net id; ev = (fun () -> d.vals.(id)); wide = no_wide }

(* The whole value of [c], as an Int64 closure. *)
let exact c =
  if is_wide c.b then c.wide ()
  else
    let f = c.ev in
    fun () -> Int64.of_int (f ())

(* A node computed through Int64: the path for whole values above [narrow]
   bits. *)
let of_wide w b f =
  {
    w;
    b;
    k = K_expr;
    ev = (fun () -> Int64.to_int (f ()));
    wide = (fun () -> f);
  }

(* A node whose low bits come from [ev] and whose whole value, when it can
   exceed [narrow] bits, from [wide]. *)
let node w b ev wide =
  { w; b; k = K_expr; ev; wide = (if is_wide b then wide else no_wide) }

let bit c = { w = 1; b = 1; k = K_expr; ev = c; wide = no_wide }

(* [c] is not zero. *)
let truth d c =
  match c.k with
  | K_const n ->
      let t = n <> 0 in
      fun () -> t
  | K_net id -> fun () -> d.vals.(id) <> 0
  | K_expr ->
      if is_wide c.b then
        let f = c.wide () in
        fun () -> not (Int64.equal (f ()) 0L)
      else
        let f = c.ev in
        fun () -> f () <> 0

(* Unsigned comparisons. Narrow values are non-negative ints, so the native
   order is the unsigned one. *)
let compare_op d op a b =
  if is_wide a.b || is_wide b.b then
    let fa = exact a and fb = exact b in
    let c () = Int64.unsigned_compare (fa ()) (fb ()) in
    bit
      (match op with
      | "==" -> fun () -> if Int64.equal (fa ()) (fb ()) then 1 else 0
      | "!=" -> fun () -> if Int64.equal (fa ()) (fb ()) then 0 else 1
      | "<" -> fun () -> if c () < 0 then 1 else 0
      | ">" -> fun () -> if c () > 0 then 1 else 0
      | "<=" -> fun () -> if c () <= 0 then 1 else 0
      | _ -> fun () -> if c () >= 0 then 1 else 0)
  else
    match (a.k, b.k) with
    | K_net i, K_const n ->
        bit
          (match op with
          | "==" -> fun () -> if d.vals.(i) = n then 1 else 0
          | "!=" -> fun () -> if d.vals.(i) <> n then 1 else 0
          | "<" -> fun () -> if d.vals.(i) < n then 1 else 0
          | ">" -> fun () -> if d.vals.(i) > n then 1 else 0
          | "<=" -> fun () -> if d.vals.(i) <= n then 1 else 0
          | _ -> fun () -> if d.vals.(i) >= n then 1 else 0)
    | _ ->
        let fa = a.ev and fb = b.ev in
        bit
          (match op with
          | "==" -> fun () -> if fa () = fb () then 1 else 0
          | "!=" -> fun () -> if fa () <> fb () then 1 else 0
          | "<" -> fun () -> if fa () < fb () then 1 else 0
          | ">" -> fun () -> if fa () > fb () then 1 else 0
          | "<=" -> fun () -> if fa () <= fb () then 1 else 0
          | _ -> fun () -> if fa () >= fb () then 1 else 0)

(* [x lsl s] for a static [s]; shifts of 63 or more leave no low bits. *)
let shl63 x s = if s >= 63 then 0 else x lsl s

(* An array index, as the element number or -1 when out of range. *)
let index ci len =
  if is_wide ci.b then
    let f = ci.wide () in
    let len64 = Int64.of_int len in
    fun () ->
      let i = f () in
      if Int64.unsigned_compare i len64 < 0 then Int64.to_int i else -1
  else
    let f = ci.ev in
    fun () ->
      let i = f () in
      if i < len then i else -1

let compile_bin d op a b =
  let w = max a.w b.w in
  let m = imask w and fa = a.ev and fb = b.ev in
  (* Both operands' Int64 closures, for a wide result. *)
  let wide2 f () =
    let xa = exact a and xb = exact b in
    fun () -> f (xa ()) (xb ())
  in
  let m64 = mask64 w in
  (* Whole-value operators: native when both operands are narrow. *)
  let whole b_res native wide =
    if is_wide a.b || is_wide b.b then of_wide w b_res (wide2 wide ())
    else node w b_res native (wide2 wide)
  in
  match op with
  | "+" ->
      let nb = max a.b b.b + 1 in
      if nb <= w then
        node w nb (fun () -> fa () + fb ()) (wide2 (fun x y -> Int64.add x y))
      else
        node w w
          (fun () -> (fa () + fb ()) land m)
          (wide2 (fun x y -> Int64.logand (Int64.add x y) m64))
  | "-" ->
      node w w
        (fun () -> (fa () - fb ()) land m)
        (wide2 (fun x y -> Int64.logand (Int64.sub x y) m64))
  | "*" ->
      let nb = a.b + b.b in
      if nb <= w then
        node w nb (fun () -> fa () * fb ()) (wide2 (fun x y -> Int64.mul x y))
      else
        node w w
          (fun () -> fa () * fb () land m)
          (wide2 (fun x y -> Int64.logand (Int64.mul x y) m64))
  | "/" ->
      (* Division by zero yields all-ones, like Bitvec.div. *)
      whole w
        (fun () ->
          let bv = fb () in
          if bv = 0 then m else fa () / bv)
        (fun x y -> if Int64.equal y 0L then m64 else Int64.unsigned_div x y)
  | "%" ->
      whole a.b
        (fun () ->
          let av = fa () and bv = fb () in
          if bv = 0 then av else av mod bv)
        (fun x y -> if Int64.equal y 0L then x else Int64.unsigned_rem x y)
  | "&" ->
      node w (min a.b b.b) (fun () -> fa () land fb ()) (wide2 Int64.logand)
  | "|" -> node w (max a.b b.b) (fun () -> fa () lor fb ()) (wide2 Int64.logor)
  | "^" ->
      node w (max a.b b.b) (fun () -> fa () lxor fb ()) (wide2 Int64.logxor)
  | "<<" ->
      let w = a.w in
      let m = imask w and m64 = mask64 w in
      (* Shifts of at least min(w, 63) leave no low bits. *)
      let lim = min w 63 in
      let wide () =
        let xa = exact a and xb = exact b in
        fun () ->
          let s = xb () in
          if Int64.unsigned_compare s 64L >= 0 then 0L
          else Int64.logand (Int64.shift_left (xa ()) (Int64.to_int s)) m64
      in
      if is_wide b.b then
        let xb = b.wide () in
        let lim64 = Int64.of_int lim in
        node w w
          (fun () ->
            let s = xb () in
            if Int64.unsigned_compare s lim64 >= 0 then 0
            else (fa () lsl Int64.to_int s) land m)
          wide
      else
        node w w
          (fun () ->
            let s = fb () in
            if s >= lim then 0 else (fa () lsl s) land m)
          wide
  | ">>" ->
      let w = a.w in
      let wide x s =
        if Int64.unsigned_compare s 64L >= 0 then 0L
        else Int64.shift_right_logical x (Int64.to_int s)
      in
      if is_wide a.b || is_wide b.b then of_wide w a.b (wide2 wide ())
      else
        node w a.b
          (fun () ->
            let s = fb () in
            if s >= narrow then 0 else fa () lsr s)
          (wide2 wide)
  | "==" | "!=" | "<" | ">" | "<=" | ">=" -> compare_op d op a b
  | op -> elab_error "unsupported operator %s" op

let rec compile sc rd e =
  let d = sc.sc_d in
  match e with
  | E_num (Some w, v) -> const w (Int64.logand v (mask64 w))
  | E_num (None, v) -> const 64 v
  | E_ones -> const 64 (-1L)
  | E_id n -> (
      match List.assoc_opt n sc.sc_params with
      | Some v -> const 64 v
      | None ->
          let id = net_id sc n in
          rd := id :: !rd;
          net_expr d id)
  | E_un ('~', a) ->
      let a = compile sc rd a in
      let m = imask a.w and fa = a.ev in
      node a.w a.w
        (fun () -> lnot (fa ()) land m)
        (fun () ->
          let fa = exact a and m = mask64 a.w in
          fun () -> Int64.logand (Int64.lognot (fa ())) m)
  | E_un ('!', a) ->
      let t = truth d (compile sc rd a) in
      bit (fun () -> if t () then 0 else 1)
  | E_un ('-', a) ->
      let a = compile sc rd a in
      let m = imask a.w and fa = a.ev in
      node a.w a.w
        (fun () -> -fa () land m)
        (fun () ->
          let fa = exact a and m = mask64 a.w in
          fun () -> Int64.logand (Int64.neg (fa ())) m)
  | E_un (c, _) -> elab_error "unsupported unary operator %c" c
  | E_bin (op, a, b) -> compile_bin d op (compile sc rd a) (compile sc rd b)
  | E_cond (c, t, f) ->
      let tc = truth d (compile sc rd c) in
      let t = compile sc rd t and f = compile sc rd f in
      let ev =
        match (t.k, f.k) with
        | K_const x, K_const y -> fun () -> if tc () then x else y
        | _, K_const y ->
            let ft = t.ev in
            fun () -> if tc () then ft () else y
        | _ ->
            let ft = t.ev and ff = f.ev in
            fun () -> if tc () then ft () else ff ()
      in
      node (max t.w f.w) (max t.b f.b) ev (fun () ->
          let ft = exact t and ff = exact f in
          fun () -> if tc () then ft () else ff ())
  | E_concat es ->
      let ces = Array.of_list (List.map (compile sc rd) es) in
      let w = Array.fold_left (fun acc c -> acc + c.w) 0 ces in
      if w > 64 then elab_error "concatenation wider than 64 bits";
      let b = if Array.length ces = 0 then 0 else w - ces.(0).w + ces.(0).b in
      let ws = Array.map (fun c -> c.w) ces
      and evs = Array.map (fun c -> c.ev) ces in
      node w b
        (fun () ->
          let acc = ref 0 in
          for i = 0 to Array.length evs - 1 do
            acc := shl63 !acc ws.(i) lor evs.(i) ()
          done;
          !acc)
        (fun () ->
          let fs = Array.map exact ces in
          fun () ->
            let acc = ref 0L in
            for i = 0 to Array.length fs - 1 do
              acc := Int64.logor (Int64.shift_left !acc ws.(i)) (fs.(i) ())
            done;
            !acc)
  | E_repl (count, e) ->
      let count = Int64.to_int (const_eval sc count) in
      let ce = compile sc rd e in
      if count < 0 then elab_error "negative replication count";
      let w = count * ce.w in
      if w > 64 then elab_error "replication wider than 64 bits";
      let b = if count = 0 then 0 else w - ce.w + ce.b in
      let ew = ce.w and fe = ce.ev in
      node w b
        (fun () ->
          let v = fe () in
          let acc = ref 0 in
          for _ = 1 to count do
            acc := shl63 !acc ew lor v
          done;
          !acc)
        (fun () ->
          let fe = exact ce in
          fun () ->
            let v = fe () in
            let acc = ref 0L in
            for _ = 1 to count do
              acc := Int64.logor (Int64.shift_left !acc ew) v
            done;
            !acc)
  | E_select (name, msb, lsb) ->
      let base = compile sc rd (E_id name) in
      let msb = Int64.to_int (const_eval sc msb)
      and lsb = Int64.to_int (const_eval sc lsb) in
      let w = msb - lsb + 1 in
      if lsb < 0 || w < 1 || w > 64 || lsb > 63 then
        elab_error "bad part-select [%d:%d] on %s" msb lsb name;
      let wide () =
        let fb = exact base and m = mask64 w in
        fun () -> Int64.logand (Int64.shift_right_logical (fb ()) lsb) m
      in
      if msb < 63 then
        (* Every selected bit is among the low 63 that [ev] holds. *)
        let m = imask w and fb = base.ev in
        node w w (fun () -> (fb () lsr lsb) land m) wide
      else of_wide w w (wide ())
  | E_index (name, ix) -> (
      match Hashtbl.find_opt d.arrays_tbl (sc.sc_prefix ^ name) with
      | Some a ->
          rd := lnot a.a_id :: !rd;
          let ix = index (compile sc rd ix) a.a_len in
          if is_wide a.a_width then
            of_wide a.a_width a.a_width (fun () ->
                let i = ix () in
                if i >= 0 then a.a_wide.(i) else 0L)
          else
            {
              w = a.a_width;
              b = a.a_width;
              k = K_expr;
              ev =
                (fun () ->
                  let i = ix () in
                  if i >= 0 then a.a_data.(i) else 0);
              wide = no_wide;
            }
      | None ->
          (* Dynamic bit select of a scalar net. *)
          let base = compile sc rd (E_id name) in
          let ci = compile sc rd ix in
          if is_wide base.b || is_wide ci.b then
            let fb = exact base and fi = exact ci in
            of_wide 1 1 (fun () ->
                let i = fi () in
                if Int64.unsigned_compare i 64L >= 0 then 0L
                else
                  Int64.logand
                    (Int64.shift_right_logical (fb ()) (Int64.to_int i))
                    1L)
          else
            (* A narrow base has no bits at [narrow] or above. *)
            let fb = base.ev and fi = ci.ev in
            bit (fun () ->
                let i = fi () in
                if i >= narrow then 0 else (fb () lsr i) land 1))
  | E_sqrt e ->
      let ce = compile sc rd e in
      let f = exact ce in
      of_wide ce.w ce.b (fun () -> Calyx_sim.Prim_state.isqrt (f ()))

(* The value of [ce] truncated or zero-extended to a narrow target of
   [tw] bits: its mask, or -1 when the value already fits. *)
let fit tw (ce : cexpr) = if ce.b <= tw then -1 else imask tw

let rec compile_stmts sc rd wr stmts =
  let d = sc.sc_d in
  List.map
    (fun s ->
      match s with
      | S_if (c, t, f) ->
          let c = truth d (compile sc rd c) in
          C_if (c, compile_stmts sc rd wr t, compile_stmts sc rd wr f)
      | S_assign (L_id n, e) ->
          let id = net_id sc n in
          wr := id :: !wr;
          let ce = compile sc rd e and tw = d.widths.(id) in
          if is_wide tw then
            let f = exact ce and m = mask64 tw in
            C_wnet (id, fun () -> Int64.logand (f ()) m)
          else C_net (id, fit tw ce, ce.ev)
      | S_assign (L_idx (n, ix), e) -> (
          match Hashtbl.find_opt d.arrays_tbl (sc.sc_prefix ^ n) with
          | Some a ->
              wr := lnot a.a_id :: !wr;
              let ix = index (compile sc rd ix) a.a_len in
              let ce = compile sc rd e in
              if is_wide a.a_width then
                let f = exact ce and m = mask64 a.a_width in
                C_warr (a, ix, fun () -> Int64.logand (f ()) m)
              else C_arr (a, ix, fit a.a_width ce, ce.ev)
          | None -> elab_error "assignment to unknown array %s%s" sc.sc_prefix n))
    stmts

let set_net d id v =
  if d.vals.(id) <> v then begin
    d.vals.(id) <- v;
    touch d id
  end

let set_wnet d id v =
  if not (Int64.equal d.wvals.(id) v) then begin
    d.wvals.(id) <- v;
    touch d id
  end

let check_undriven d tgt =
  if Hashtbl.mem d.driven tgt then
    elab_error "multiple drivers for net %s" (net_name d tgt);
  Hashtbl.add d.driven tgt ()

let add_drive d tgt (ce : cexpr) reads =
  check_undriven d tgt;
  let tw = d.widths.(tgt) in
  let run =
    if is_wide tw then
      let f = exact ce and m = mask64 tw in
      fun () -> set_wnet d tgt (Int64.logand (f ()) m)
    else
      let f = ce.ev and m = fit tw ce in
      fun () -> set_net d tgt (f () land m)
  in
  d.rev_procs <- { pr_reads = reads; pr_writes = [ tgt ]; pr_run = run } :: d.rev_procs

(* A net-to-net copy [tgt = src]. At the same width it becomes an alias:
   no process, the readers of [tgt] listen on [src]'s slot, and each change
   of [src] is copied into [tgt] (see [finalize] and [touch]). A copy that
   would close a cycle of aliases stays a process, so a copy loop settles
   or diverges as it always has. *)
let add_copy d tgt src =
  let rec reaches s = s = tgt || (s >= 0 && reaches d.asrc.(s)) in
  if d.widths.(tgt) = d.widths.(src) && not (reaches src) then begin
    check_undriven d tgt;
    d.asrc.(tgt) <- src
  end
  else add_drive d tgt (net_expr d src) [ src ]

let rec exec_comb d = function
  | [] -> ()
  | s :: rest ->
      (match s with
      | C_if (c, t, f) -> exec_comb d (if c () then t else f)
      | C_net (id, m, e) -> set_net d id (e () land m)
      | C_wnet (id, e) -> set_wnet d id (e ())
      | C_arr _ | C_warr _ -> assert false (* rejected by [add_comb] *));
      exec_comb d rest

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

(* A plain net reference, not a parameter. *)
let plain_net sc = function
  | E_id n when not (List.mem_assoc n sc.sc_params) -> Some (net_id sc n)
  | _ -> None

let rec elab_module d mods ~path ~params m =
  let prefix = if String.equal path "" then "" else path ^ "." in
  let sc = { sc_d = d; sc_prefix = prefix; sc_params = params } in
  let declare name range =
    let w = match range with None -> 1 | Some r -> range_width sc r in
    if w < 1 || w > 64 then
      elab_error "net %s%s has unsupported width %d" prefix name w;
    ignore (new_net d (prefix ^ name) w)
  in
  (* A continuous driver of [tgt]: an alias when [e] is a plain net. *)
  let drive tgt e =
    match plain_net sc e with
    | Some src -> add_copy d tgt src
    | None ->
        let rd = ref [] in
        let ce = compile sc rd e in
        add_drive d tgt ce !rd
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
          let wide = is_wide ew in
          Hashtbl.add d.arrays_tbl (prefix ^ name)
            {
              a_id;
              a_width = ew;
              a_len = size;
              a_data = (if wide then [||] else Array.make size 0);
              a_wide = (if wide then Array.make size 0L else [||]);
            }
      | _ -> ())
    m.m_items;
  List.iter
    (fun it ->
      match it with
      | I_decl _ | I_array _ -> ()
      | I_assign (lhs, rhs) -> drive (net_id sc lhs) rhs
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
                    drive (Hashtbl.find d.net_ids (child_prefix ^ pname)) e
                | Some { p_dir = `Out; _ } -> (
                    match e with
                    | E_id wnet ->
                        add_copy d (net_id sc wnet)
                          (Hashtbl.find d.net_ids (child_prefix ^ pname))
                    | _ ->
                        elab_error
                          "output port %s of %s must connect to a plain net"
                          pname i_mod))
            i_conns)
    m.m_items

(* Build the activity schedule once every net is known. Slots are the nets,
   then one per memory array. Each alias class — a net and every net that
   copies it, transitively — is scheduled on its source's slot: readers of
   any member register there, and [fwd] lists the members a change of the
   source is copied into. The settle processes are the nodes of a [Sched]
   graph; each always_ff block is listed under every slot it reads or
   writes. State nets and top-level inputs have no settle-time producer:
   their changes arrive from [commit] and the pokes through [pend].
   Everything starts dirty, so the first cycle sees the whole design. *)
let finalize d =
  let nslots = d.nnets + Hashtbl.length d.arrays_tbl in
  let root = Array.init nslots (fun s -> s) in
  let rec root_of s =
    let a = d.asrc.(s) in
    if a < 0 then s else root_of a
  in
  let targets = Array.make nslots [] in
  for s = d.nnets - 1 downto 0 do
    let a = d.asrc.(s) in
    if a >= 0 then begin
      root.(s) <- root_of s;
      targets.(a) <- s :: targets.(a)
    end
  done;
  let rec subtree acc s =
    List.fold_left (fun acc t -> subtree (t :: acc) t) acc targets.(s)
  in
  d.root <- root;
  d.fwd <-
    Array.init nslots (fun s ->
        if targets.(s) = [] then [||]
        else Array.of_list (List.rev (subtree [] s)));
  let slot r = root.(if r >= 0 then r else d.nnets + lnot r) in
  let slots rs = List.sort_uniq compare (List.map slot rs) in
  let procs = Array.of_list (List.rev d.rev_procs) in
  d.sched <-
    Sched.create
      (Sched.build ~slots:nslots
         ~nodes:
           (Array.map (fun p -> (slots p.pr_reads, [], slots p.pr_writes)) procs));
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
    | (C_net _ | C_wnet _ | C_arr _ | C_warr _) :: rest -> assigns (n + 1) rest
  in
  let cap = Array.fold_left assigns 0 d.ffs in
  d.stg_slot <- Array.make cap 0;
  d.stg_idx <- Array.make cap 0;
  d.stg_val <- Array.make cap 0;
  d.stg_wval <- Array.make cap 0L;
  Sched.mark_all d.sched;
  (* The first settle copies every source into its aliases, as the first
     run of every copy process would. *)
  for s = 0 to d.nnets - 1 do
    if root.(s) = s && Array.length d.fwd.(s) > 0 then defer d s
  done

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
      vals = [||];
      wvals = [||];
      widths = [||];
      asrc = [||];
      nnets = 0;
      net_ids = Hashtbl.create 256;
      arrays_tbl = Hashtbl.create 16;
      arrays = [||];
      driven = Hashtbl.create 256;
      ff_targets = Hashtbl.create 64;
      rev_procs = [];
      rev_ffs = [];
      sched = Sched.create (Sched.build ~slots:0 ~nodes:[||]);
      eval = ignore;
      root = [||];
      fwd = [||];
      ffs = [||];
      ff_readers = [||];
      ff_dirty = [||];
      pend = [||];
      npend = 0;
      stg_slot = [||];
      stg_idx = [||];
      stg_val = [||];
      stg_wval = [||];
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

(* Touch what changed since the last settle, then run the dirty
   processes. *)
let settle d =
  for i = 0 to d.npend - 1 do
    touch d d.pend.(i)
  done;
  d.npend <- 0;
  match Sched.run d.sched ~eval:d.eval ~max_passes:d.max_iters with
  | evals -> d.evals <- d.evals + evals
  | exception Sched.Diverged ->
      raise
        (Unstable
           { cycle = d.cycles; message = "combinational settle did not converge" })

let stage_slot d slot idx =
  let i = d.stg_len in
  d.stg_slot.(i) <- slot;
  d.stg_idx.(i) <- idx;
  d.stg_len <- i + 1;
  i

let rec stage d = function
  | [] -> ()
  | s :: rest ->
      (match s with
      | C_if (c, t, f) -> stage d (if c () then t else f)
      | C_net (id, m, e) -> d.stg_val.(stage_slot d id 0) <- e () land m
      | C_wnet (id, e) -> d.stg_wval.(stage_slot d id 0) <- e ()
      | C_arr (a, ix, m, e) ->
          (* Out-of-range writes are dropped, like the simulator's memory
             model. *)
          let i = ix () in
          if i >= 0 then
            d.stg_val.(stage_slot d (d.nnets + a.a_id) i) <- e () land m
      | C_warr (a, ix, e) ->
          let i = ix () in
          if i >= 0 then
            d.stg_wval.(stage_slot d (d.nnets + a.a_id) i) <- e ());
      stage d rest

(* Non-blocking commit: the dirty blocks evaluate against pre-edge values
   into the staging buffers, then the staged writes apply in program order
   (the last write to a target wins), queueing every slot that changed for
   the next settle. A clean block would rewrite exactly the values its
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
    let s = d.stg_slot.(i) in
    if s < d.nnets then begin
      if is_wide d.widths.(s) then begin
        let v = d.stg_wval.(i) in
        if not (Int64.equal d.wvals.(s) v) then begin
          d.wvals.(s) <- v;
          defer d s
        end
      end
      else begin
        let v = d.stg_val.(i) in
        if d.vals.(s) <> v then begin
          d.vals.(s) <- v;
          defer d s
        end
      end
    end
    else begin
      let a = d.arrays.(s - d.nnets) and j = d.stg_idx.(i) in
      if is_wide a.a_width then begin
        let v = d.stg_wval.(i) in
        if not (Int64.equal a.a_wide.(j) v) then begin
          a.a_wide.(j) <- v;
          defer d s
        end
      end
      else begin
        let v = d.stg_val.(i) in
        if a.a_data.(j) <> v then begin
          a.a_data.(j) <- v;
          defer d s
        end
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

let read_net d id =
  let width = d.widths.(id) in
  if is_wide width then Bitvec.make ~width d.wvals.(id)
  else Bitvec.make ~width (Int64.of_int d.vals.(id))

let poke_net d id v =
  let w = d.widths.(id) in
  let v = Int64.logand (Bitvec.to_int64 v) (mask64 w) in
  if is_wide w then begin
    if not (Int64.equal d.wvals.(id) v) then begin
      d.wvals.(id) <- v;
      defer d id
    end
  end
  else begin
    let v = Int64.to_int v in
    if d.vals.(id) <> v then begin
      d.vals.(id) <- v;
      defer d id
    end
  end

let set_input d name v = poke_net d (top_net d name) v
let read_output d name = read_net d (top_net d name)

let run ?(max_cycles = 5_000_000) d =
  Calyx_telemetry.Trace.with_span ~cat:"stage" "rtl-sim" @@ fun () ->
  if Calyx_telemetry.Runtime.on () then
    Calyx_telemetry.Trace.add_tag "engine" "rtl";
  let evals0 = d.evals in
  set_input d "go" (Bitvec.one 1);
  let done_id = top_net d "done" in
  let done_wide = is_wide d.widths.(done_id) in
  let count = ref 0 in
  let finished = ref false in
  while not !finished do
    if !count >= max_cycles then raise (Timeout { budget = max_cycles });
    settle d;
    let dv =
      if done_wide then not (Int64.equal d.wvals.(done_id) 0L)
      else d.vals.(done_id) <> 0
    in
    commit d;
    d.cycles <- d.cycles + 1;
    incr count;
    if dv then finished := true
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

let read_register d path = read_net d (register_net d path)
let write_register d path v = poke_net d (register_net d path) v

let memory_array d path =
  match Hashtbl.find_opt d.arrays_tbl (path ^ ".mem") with
  | Some a -> a
  | None -> elab_error "no memory at %s" path

let read_memory d path =
  let a = memory_array d path in
  let width = a.a_width in
  if is_wide width then Array.map (Bitvec.make ~width) a.a_wide
  else Array.map (fun v -> Bitvec.make ~width (Int64.of_int v)) a.a_data

let write_memory d path values =
  let a = memory_array d path in
  if Array.length values <> a.a_len then
    elab_error "memory %s holds %d elements, given %d" path a.a_len
      (Array.length values);
  let m = mask64 a.a_width in
  Array.iteri
    (fun i v ->
      let v = Int64.logand (Bitvec.to_int64 v) m in
      if is_wide a.a_width then a.a_wide.(i) <- v
      else a.a_data.(i) <- Int64.to_int v)
    values;
  defer d (d.nnets + a.a_id)

let stats d =
  (d.nnets, Sched.node_count (Sched.topology d.sched) + Array.length d.ffs)
