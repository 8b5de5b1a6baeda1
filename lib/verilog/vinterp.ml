(* A cycle-accurate interpreter for the SystemVerilog subset the emitter
   produces. Three stages: a lexer/recursive-descent parser over the
   synthesizable subset, an elaborator that flattens the instance hierarchy
   into one net table (parameters bound, constant expressions folded,
   expressions compiled to closures), and a two-phase engine mirroring
   Sim's per-cycle discipline.

   The front end allocates in proportion to the design, not to the source
   text. The parser pulls one token at a time from the lexer, which keeps
   literal values as native ints (Int64 only past 62 bits) and interns
   every identifier, so a name is one int and only its first occurrence
   allocates. Elaboration
   works out each module under each parameter binding once — a plan: its
   nets' widths, its memory arrays, its name tables, its children's plans
   and port bindings — and an instance is its plan at an offset: its local
   net [l] is net [base + l]. Dotted hierarchical names are built only
   when a test bench asks for a net or an error message names one.

   The engine is activity-driven. Settle processes (continuous assigns
   and port bindings) are the nodes of a [Calyx_sim.Sched] graph whose
   slots are the nets plus one slot per memory array; settle runs only
   the dirty processes, in level order, with the scheduler's divergence
   budget on cyclic components. Commit
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

(* [Stdlib.max] and [min] compare polymorphically; these compare ints. *)
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

(* A growable int buffer. *)
type ivec = { mutable a : int array; mutable len : int }

let ivec () = { a = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let a = Array.make (imax 64 (2 * v.len)) 0 in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  Array.unsafe_set v.a v.len x;
  v.len <- v.len + 1

(* Tables keyed by symbols. *)
module IT = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* ------------------------------------------------------------------ *)
(* Symbols                                                             *)
(* ------------------------------------------------------------------ *)

(* Every distinct identifier of a source is one symbol: its index in
   [names]. [slots] is an open-addressing table of symbol + 1 (0 when
   empty) keyed by the name's characters, so the lexer looks a name up
   straight from the source text. *)
type syms = {
  mutable names : string array;
  mutable nsyms : int;
  mutable slots : int array;  (* a power of two long, at most half full *)
}

(* The keywords are the first symbols, in this order. *)
let keywords =
  [|
    "module"; "endmodule"; "parameter"; "input"; "output"; "logic"; "assign";
    "always_ff"; "posedge"; "begin"; "end"; "if"; "else";
    "sqrt"; "clk";
  |]

let kw_module = 0
let kw_endmodule = 1
let kw_parameter = 2
let kw_input = 3
let kw_output = 4
let kw_logic = 5
let kw_assign = 6
let kw_always_ff = 7
let kw_posedge = 8
let kw_begin = 9
let kw_end = 10
let kw_if = 11
let kw_else = 12
let kw_sqrt = 13
let kw_clk = 14

let hash_sub s pos len =
  let h = ref 0 in
  for i = pos to pos + len - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s i)
  done;
  !h land max_int

(* [name] is [s.[pos]] .. [s.[pos + len - 1]] from its [i]th character
   on. *)
let rec equal_from name s pos len i =
  i = len
  || String.unsafe_get name i = String.unsafe_get s (pos + i)
     && equal_from name s pos len (i + 1)

let rec probe sy s pos len i =
  let e = sy.slots.(i) in
  if
    e = 0
    ||
    let name = sy.names.(e - 1) in
    String.length name = len && equal_from name s pos len 0
  then i
  else probe sy s pos len ((i + 1) land (Array.length sy.slots - 1))

(* The slot of the name [s.[pos]] .. [s.[pos + len - 1]], whose hash is
   [h], or the empty slot it would go in. *)
let slot_of sy s pos len h =
  probe sy s pos len (h land (Array.length sy.slots - 1))

let intern_hashed sy s pos len h =
  let i = slot_of sy s pos len h in
  let e = sy.slots.(i) in
  if e > 0 then e - 1
  else begin
    let id = sy.nsyms in
    if id = Array.length sy.names then begin
      let a = Array.make (2 * id) "" in
      Array.blit sy.names 0 a 0 id;
      sy.names <- a
    end;
    sy.names.(id) <-
      (if pos = 0 && len = String.length s then s else String.sub s pos len);
    sy.nsyms <- id + 1;
    sy.slots.(i) <- id + 1;
    if 2 * sy.nsyms > Array.length sy.slots then begin
      let old = sy.slots in
      sy.slots <- Array.make (2 * Array.length old) 0;
      Array.iter
        (fun e ->
          if e > 0 then
            let n = sy.names.(e - 1) in
            let len = String.length n in
            sy.slots.(slot_of sy n 0 len (hash_sub n 0 len)) <- e)
        old
    end;
    id
  end

(* The symbol of [name], or -1 when the source never mentions it. *)
let lookup sy name =
  let len = String.length name in
  sy.slots.(slot_of sy name 0 len (hash_sub name 0 len)) - 1

let new_syms () =
  let sy =
    {
      names = Array.make 512 "";
      nsyms = 0;
      slots = Array.make 1024 0;
    }
  in
  Array.iter
    (fun k ->
      let len = String.length k in
      ignore (intern_hashed sy k 0 len (hash_sub k 0 len)))
    keywords;
  sy

let name sy id = sy.names.(id)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

(* A token's kind. Its payload, if any, is in the lexer's [arg]. *)
type tok =
  | Tid  (* the symbol *)
  | Tsys  (* $sqrt; the symbol after the $ *)
  | Tnum  (* the value, below 2^62 *)
  | Tbig  (* a value past 62 bits, in [big] *)
  | Tones  (* '1 *)
  | Tlp | Trp | Tlb | Trb | Tlc | Trc
  | Tsemi | Tcomma | Tcolon | Tquest | Tat | Thash | Tdot
  | Tassign | Tplus | Tminus | Tstar | Tslash | Tpercent
  | Tamp | Tpipe | Tcaret | Ttilde | Tbang
  | Tlt | Tgt | Tle | Tge | Teqeq | Tneq | Tshl | Tshr
  | Teof

(* The one-character tokens by character; [Teof] for the others. *)
let punct =
  let a = Array.make 256 Teof in
  List.iter
    (fun (c, t) -> a.(Char.code c) <- t)
    [
      ('(', Tlp); (')', Trp); ('[', Tlb); (']', Trb); ('{', Tlc); ('}', Trc);
      (';', Tsemi); (',', Tcomma); (':', Tcolon); ('?', Tquest); ('@', Tat);
      ('#', Thash); ('.', Tdot); ('=', Tassign); ('+', Tplus); ('-', Tminus);
      ('*', Tstar); ('/', Tslash); ('%', Tpercent); ('&', Tamp); ('|', Tpipe);
      ('^', Tcaret); ('~', Ttilde); ('!', Tbang); ('<', Tlt); ('>', Tgt);
    ];
  a

(* Character classes: what a token starting with the character is. *)
let cl_space = '\001'
let cl_newline = '\002'
let cl_digit = '\003'
let cl_id = '\004'

let classes =
  let b = Bytes.make 256 '\000' in
  let set c k = Bytes.set b (Char.code c) k in
  List.iter (fun c -> set c cl_space) [ ' '; '\t'; '\r' ];
  set '\n' cl_newline;
  String.iter (fun c -> set c cl_digit) "0123456789";
  String.iter (fun c -> set c cl_id) "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
  Bytes.unsafe_to_string b

let is_id_char c =
  let k = String.unsafe_get classes (Char.code c) in
  k = cl_id || k = cl_digit

(* The largest value a literal holds as a native int. *)
let narrow_max = (1 lsl 62) - 1

let digit_val c =
  if c >= '0' && c <= '9' then Char.code c - Char.code '0'
  else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
  else if c >= 'A' && c <= 'F' then Char.code c - Char.code 'A' + 10
  else -1

(* A literal's digits, modulo 2^64: [dv] while the value is at most
   [narrow_max], [big] (with [is_big] set) past that. *)
type digits = { mutable dv : int; mutable big : int64; mutable is_big : bool }

(* Read digits in [base] from [i], skipping '_'; returns where they end. *)
let scan_digits src i base dg line =
  let n = String.length src in
  let j = ref i and v = ref 0 and any = ref false and continue = ref true in
  dg.is_big <- false;
  while !continue && !j < n do
    let c = String.unsafe_get src !j in
    if c = '_' then incr j
    else
      let d = digit_val c in
      if d >= 0 && d < base then begin
        any := true;
        if dg.is_big then
          dg.big <- Int64.add (Int64.mul dg.big (Int64.of_int base)) (Int64.of_int d)
        else if !v > (narrow_max - d) / base then begin
          dg.is_big <- true;
          dg.big <-
            Int64.add (Int64.mul (Int64.of_int !v) (Int64.of_int base)) (Int64.of_int d)
        end
        else v := (!v * base) + d;
        incr j
      end
      else continue := false
  done;
  if not !any then parse_error "line %d: expected digits" line;
  dg.dv <- !v;
  !j

(* The lexer: a cursor over the source that the parser advances one
   token at a time, so no token outlives the next. The current token is
   [kind] on [line]: a literal's [width] (0 unsized) and its value in
   [arg], or in [big] past 62 bits; a name's symbol in [arg]. [i] is the
   byte after it and [nl] the line there. A lexical error leaves [i] at
   the start of the offending token. *)
type lexer = {
  src : string;
  syms : syms;
  dg : digits;
  mutable i : int;
  mutable nl : int;
  mutable kind : tok;
  mutable line : int;
  mutable width : int;
  mutable arg : int;
  mutable big : int64;
}

let set p kind width arg j =
  p.kind <- kind;
  p.width <- width;
  p.arg <- arg;
  p.i <- j

(* A name from [s], interned. *)
let word p kind s =
  let src = p.src in
  let n = String.length src in
  let h = ref 0 and j = ref s in
  while !j < n && is_id_char (String.unsafe_get src !j) do
    h := (!h * 31) + Char.code (String.unsafe_get src !j);
    incr j
  done;
  set p kind 0 (intern_hashed p.syms src s (!j - s) (!h land max_int)) !j

(* A literal from [s]: decimal digits, then a base and digits if sized. *)
let number p s =
  let src = p.src and dg = p.dg and line = p.line in
  let n = String.length src in
  let j = scan_digits src s 10 dg line in
  let w, j =
    if j < n && String.unsafe_get src j = '\'' then begin
      let w = if dg.is_big then Int64.to_int dg.big else dg.dv in
      let base =
        if j + 1 >= n then parse_error "line %d: truncated literal" line
        else
          match String.unsafe_get src (j + 1) with
          | 'd' | 'D' -> 10
          | 'b' | 'B' -> 2
          | 'h' | 'H' -> 16
          | c -> parse_error "line %d: unsupported base '%c'" line c
      in
      let j = scan_digits src (j + 2) base dg line in
      if w < 1 || w > 64 then
        parse_error "line %d: literal width %d out of range" line w;
      (w, j)
    end
    else (0, j)
  in
  if dg.is_big then begin
    p.big <- dg.big;
    set p Tbig w 0 j
  end
  else set p Tnum w dg.dv j

(* Move to the next token, past blanks and comments. *)
let next p =
  let src = p.src in
  let n = String.length src in
  let i = ref p.i and blank = ref true in
  while !blank && !i < n do
    let c = String.unsafe_get src !i in
    let cl = String.unsafe_get classes (Char.code c) in
    if cl = cl_space then incr i
    else if cl = cl_newline then begin
      p.nl <- p.nl + 1;
      incr i
    end
    else if c = '/' && !i + 1 < n && String.unsafe_get src (!i + 1) = '/' then
      while !i < n && String.unsafe_get src !i <> '\n' do incr i done
    else blank := false
  done;
  let i = !i in
  p.i <- i;
  p.line <- p.nl;
  if i >= n then set p Teof 0 0 i
  else
    let c = String.unsafe_get src i in
    let cl = String.unsafe_get classes (Char.code c) in
    if cl = cl_id then word p Tid i
    else if cl = cl_digit then number p i
    else begin
      let c2 = if i + 1 < n then String.unsafe_get src (i + 1) else ' ' in
      if c = '\'' then begin
        if c2 = '1' then set p Tones 0 0 (i + 2)
        else if c2 = '0' then set p Tnum 0 0 (i + 2)
        else parse_error "line %d: unsupported unsized literal" p.line
      end
      else if c = '$' then word p Tsys (i + 1)
      else
        let two =
          match (c, c2) with
          | '<', '=' -> Tle
          | '>', '=' -> Tge
          | '=', '=' -> Teqeq
          | '!', '=' -> Tneq
          | '<', '<' -> Tshl
          | '>', '>' -> Tshr
          | _ -> Teof
        in
        if two != Teof then set p two 0 0 (i + 2)
        else begin
          let k = punct.(Char.code c) in
          if k == Teof then parse_error "line %d: unexpected character '%c'" p.line c;
          set p k 0 0 (i + 1)
        end
    end

(* ------------------------------------------------------------------ *)
(* AST and parser                                                      *)
(* ------------------------------------------------------------------ *)

type unop = U_not | U_lnot

type binop =
  | B_or | B_xor | B_and | B_eq | B_ne | B_lt | B_gt | B_le | B_ge
  | B_shl | B_shr | B_add | B_sub | B_mul | B_div | B_mod

(* Names are symbols. A literal's width is 0 when it is unsized. *)
type expr =
  | E_id of int
  | E_num of int * int  (* width, value below 2^62 *)
  | E_big of int * int64  (* width, value past 62 bits *)
  | E_ones
  | E_un of unop * expr
  | E_bin of binop * expr * expr
  | E_cond of expr * expr * expr
  | E_concat of expr list
  | E_repl of expr * expr
  | E_select of int * expr * expr  (* name[msb:lsb], constant bounds *)
  | E_index of int * expr  (* array element *)
  | E_sqrt of expr

type stmt =
  | S_if of expr * stmt list * stmt list
  | S_assign of lval * expr

and lval = L_id of int | L_idx of int * expr

type range = expr * expr

type item =
  | I_decl of range option * int
  | I_array of range * int * range
  | I_assign of int * expr
  | I_ff of stmt list
  | I_inst of {
      i_mod : int;
      i_params : (int * expr) list;
      i_name : int;
      i_conns : (int * expr) list;
      i_ord : int;  (* its place among the module's instances *)
    }

type port = { p_name : int; p_dir : [ `In | `Out ]; p_range : range option }

(* The parser never moves past the end of input. *)
let peek p = p.kind
let arg p = p.arg
let cur_line p = p.line
let advance p = if p.kind != Teof then next p
let is p t = p.kind == t
let is_kw p kw = p.kind == Tid && p.arg = kw

let describe sy kind arg =
  match kind with
  | Tid -> Printf.sprintf "identifier %s" (name sy arg)
  | Tsys -> "$" ^ name sy arg
  | Tnum | Tbig -> "number"
  | Tones -> "'1"
  | Teof -> "end of input"
  | _ -> "punctuation"

let expect p t what =
  if is p t then advance p
  else parse_error "line %d: expected %s, found %s" (cur_line p) what
      (describe p.syms p.kind p.arg)

(* The errors of the consuming checks report the line of the token after
   the offending one. *)
let expect_id p =
  let k = p.kind and a = p.arg in
  advance p;
  if k == Tid then a
  else
    parse_error "line %d: expected identifier, found %s" (cur_line p)
      (describe p.syms k a)

let expect_kw p kw =
  let k = p.kind and a = p.arg in
  advance p;
  if not (k == Tid && a = kw) then
    parse_error "line %d: expected %s, found %s" (cur_line p)
      (name p.syms kw) (describe p.syms k a)

(* Binary operators by precedence, lowest first (Verilog's order); 0 for
   any other token. *)
let prec = function
  | Tpipe -> 1
  | Tcaret -> 2
  | Tamp -> 3
  | Teqeq | Tneq -> 4
  | Tlt | Tgt | Tle | Tge -> 5
  | Tshl | Tshr -> 6
  | Tplus | Tminus -> 7
  | Tstar | Tslash | Tpercent -> 8
  | _ -> 0

let binop = function
  | Tpipe -> B_or
  | Tcaret -> B_xor
  | Tamp -> B_and
  | Teqeq -> B_eq
  | Tneq -> B_ne
  | Tlt -> B_lt
  | Tgt -> B_gt
  | Tle -> B_le
  | Tge -> B_ge
  | Tshl -> B_shl
  | Tshr -> B_shr
  | Tplus -> B_add
  | Tminus -> B_sub
  | Tstar -> B_mul
  | Tslash -> B_div
  | _ -> B_mod

let rec parse_expr p =
  let c = parse_bin p 1 in
  if is p Tquest then begin
    advance p;
    let t = parse_expr p in
    expect p Tcolon ":";
    let f = parse_expr p in
    E_cond (c, t, f)
  end
  else c

(* Operators of precedence [lowest] or higher, left-associative. *)
and parse_bin p lowest =
  let lhs = ref (parse_unary p) in
  let continue = ref true in
  while !continue do
    let t = peek p in
    let pr = prec t in
    if pr > 0 && pr >= lowest then begin
      advance p;
      let rhs = parse_bin p (pr + 1) in
      lhs := E_bin (binop t, !lhs, rhs)
    end
    else continue := false
  done;
  !lhs

and parse_unary p =
  match peek p with
  | Ttilde -> advance p; E_un (U_not, parse_unary p)
  | Tbang -> advance p; E_un (U_lnot, parse_unary p)
  | _ -> parse_primary p

and parse_primary p =
  let k = p.kind and w = p.width and a = p.arg and big = p.big in
  advance p;
  match k with
  | Tnum -> E_num (w, a)
  | Tbig -> E_big (w, big)
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
  | Tsys when a = kw_sqrt ->
      expect p Tlp "(";
      let e = parse_expr p in
      expect p Trp ")";
      E_sqrt e
  | Tid ->
      let name = a in
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
  | _ ->
      parse_error "line %d: unexpected %s in expression" (cur_line p)
        (describe p.syms k a)

let parse_range p =
  expect p Tlb "[";
  let msb = parse_expr p in
  expect p Tcolon ":";
  let lsb = parse_expr p in
  expect p Trb "]";
  (msb, lsb)

let parse_range_opt p = if is p Tlb then Some (parse_range p) else None

let rec parse_stmt p =
  if is_kw p kw_begin then begin
    advance p;
    let acc = ref [] in
    while not (is_kw p kw_end) do
      acc := List.rev_append (parse_stmt p) !acc
    done;
    advance p;
    List.rev !acc
  end
  else if is_kw p kw_if then begin
    advance p;
    expect p Tlp "(";
    let c = parse_expr p in
    expect p Trp ")";
    let t = parse_stmt p in
    let f =
      if is_kw p kw_else then begin
        advance p;
        parse_stmt p
      end
      else []
    in
    [ S_if (c, t, f) ]
  end
  else begin
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
    let k = p.kind and a = p.arg in
    advance p;
    if k != Tle then
      parse_error "line %d: expected assignment, found %s" (cur_line p)
        (describe p.syms k a);
    let e = parse_expr p in
    expect p Tsemi ";";
    [ S_assign (lv, e) ]
  end

let parse_named_bindings p =
  expect p Tlp "(";
  let one () =
    expect p Tdot ".";
    let name = expect_id p in
    expect p Tlp "(";
    let e = parse_expr p in
    expect p Trp ")";
    (name, e)
  in
  let rec rest () =
    if is p Tcomma then begin
      advance p;
      let b = one () in
      b :: rest ()
    end
    else []
  in
  let bindings =
    if is p Trp then []
    else
      let b = one () in
      b :: rest ()
  in
  expect p Trp ")";
  bindings

let parse_item p ~ninst =
  if peek p == Tid then
    let kw = arg p in
    if kw = kw_logic then begin
      advance p;
      let r = parse_range_opt p in
      let name = expect_id p in
      if is p Tlb then begin
        let sr = parse_range p in
        expect p Tsemi ";";
        let er = match r with Some r -> r | None -> (E_num (0, 0), E_num (0, 0)) in
        I_array (er, name, sr)
      end
      else begin
        expect p Tsemi ";";
        I_decl (r, name)
      end
    end
    else if kw = kw_assign then begin
      advance p;
      let lhs = expect_id p in
      expect p Tassign "=";
      let rhs = parse_expr p in
      expect p Tsemi ";";
      I_assign (lhs, rhs)
    end
    else if kw = kw_always_ff then begin
      advance p;
      expect p Tat "@";
      expect p Tlp "(";
      expect_kw p kw_posedge;
      let _clk = expect_id p in
      expect p Trp ")";
      I_ff (parse_stmt p)
    end
    else begin
      (* #(.WIDTH(32)) — parameter bindings keep their names. *)
      let m = expect_id p in
      let params =
        if is p Thash then begin
          advance p;
          parse_named_bindings p
        end
        else []
      in
      let name = expect_id p in
      let conns = parse_named_bindings p in
      expect p Tsemi ";";
      let ord = !ninst in
      incr ninst;
      I_inst { i_mod = m; i_params = params; i_name = name; i_conns = conns; i_ord = ord }
    end
  else
    parse_error "line %d: unexpected %s in module body" (cur_line p)
      (describe p.syms p.kind p.arg)

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
   [narrow] bits. [a_inst] and [a_name] name it. *)
type arr = {
  a_id : int;
  a_width : int;
  a_len : int;
  a_data : int array;
  a_wide : int64 array;
  a_inst : int;
  a_name : int;
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

let no_wide : unit -> unit -> int64 =
 fun () -> invalid_arg "Vinterp: no wide form below 63 bits"

(* The [ev] field of a constant or a net, whose evaluator [ev_of] makes
   only where one is needed. *)
let no_ev : unit -> int = fun () -> invalid_arg "Vinterp: evaluator not built"

(* No expression: the empty entries of [elab.net_cx]. *)
let no_cx = { w = 0; b = 0; k = K_expr; ev = no_ev; wide = no_wide }

type cstmt =
  | C_if of (unit -> bool) * cstmt list * cstmt list
  | C_net of int * int * (unit -> int)  (* target, mask, rhs *)
  | C_wnet of int * (unit -> int64)  (* wide target, masked rhs *)
  | C_arr of arr * (unit -> int) * int * (unit -> int)
      (* array, index (-1 when out of range), mask, rhs *)
  | C_warr of arr * (unit -> int) * (unit -> int64)  (* wide elements *)

(* How the instances of a module name what they hold, by symbol: their
   nets, memory arrays and child instances. *)
type names = {
  nm_nets : int IT.t;  (* name -> local net *)
  nm_net_syms : int array;  (* local net -> name *)
  nm_arrays : int IT.t;  (* name -> local array *)
  nm_array_syms : int array;  (* local array -> name *)
  nm_kids : int IT.t;  (* instance name -> its ordinal *)
}

(* One instance: its plan's nets from [in_base], its arrays from
   [in_abase], and its child instances by ordinal. *)
type inst = {
  in_names : names;
  in_base : int;
  in_abase : int;
  in_parent : int;  (* -1 at the top *)
  in_name : int;  (* -1 at the top *)
  in_kids : int array;
}

type t = {
  mutable vals : int array;  (* narrow nets *)
  mutable wvals : int64 array;  (* wide nets *)
  mutable widths : int array;
  mutable asrc : int array;  (* net -> the net it aliases, or -1 *)
  mutable nnets : int;
  syms : syms;
  mutable insts : inst array;  (* the top is instance 0 *)
  mutable ninsts : int;
  mutable arrays : arr array;  (* by [a_id] *)
  mutable narrays : int;
  (* Built by [finalize] once every net is known. *)
  mutable sched : Sched.t;  (* settle processes over the slots *)
  mutable eval : int -> unit;  (* run settle process k *)
  mutable root : int array;  (* slot -> the slot its readers listen on *)
  (* slot -> every net aliasing it: [fwd.(fwd_start.(s))] up to
     [fwd.(fwd_start.(s + 1) - 1)] *)
  mutable fwd_start : int array;
  mutable fwd : int array;
  mutable ffs : cstmt list array;
  (* slot -> the always_ff blocks touching it, in the same layout *)
  mutable ffr_start : int array;
  mutable ffr : int array;
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
  mutable cycles : int;
  mutable evals : int;
  mutable ff_runs : int;  (* always_ff blocks run by [commit] *)
  mutable staged : int;  (* writes they staged *)
}

let mask64 w = if w >= 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

(* [mask64 w] on the native image of a value: its low min(w, 63) bits. *)
let imask w = if w >= 63 then -1 else (1 lsl w) - 1

(* The dotted prefix of instance [i]'s names: "" at the top, "a.b." for
   instance b of instance a. *)
let inst_prefix d i =
  let rec go i acc =
    let n = d.insts.(i) in
    if n.in_parent < 0 then acc else go n.in_parent (name d.syms n.in_name ^ "." ^ acc)
  in
  go i ""

let net_name d id =
  let rec find i = if d.insts.(i).in_base <= id then i else find (i - 1) in
  let i = find (d.ninsts - 1) in
  let n = d.insts.(i) in
  inst_prefix d i ^ name d.syms n.in_names.nm_net_syms.(id - n.in_base)

let array_name d a = inst_prefix d a.a_inst ^ name d.syms a.a_name

(* A slot changed during a settle: copy its value into every net that
   aliases it, then mark the readers of its alias class — the settle
   processes through [Sched], the always_ff blocks for the next commit. *)
let touch d s =
  let lo = d.fwd_start.(s) and hi = d.fwd_start.(s + 1) in
  if hi > lo then
    if is_wide d.widths.(s) then begin
      let v = d.wvals.(s) in
      for i = lo to hi - 1 do
        d.wvals.(d.fwd.(i)) <- v
      done
    end
    else begin
      let v = d.vals.(s) in
      for i = lo to hi - 1 do
        d.vals.(d.fwd.(i)) <- v
      done
    end;
  let r = d.root.(s) in
  Sched.mark_slot d.sched r;
  for i = d.ffr_start.(r) to d.ffr_start.(r + 1) - 1 do
    d.ff_dirty.(d.ffr.(i)) <- true
  done

(* A slot changed outside a settle. Its aliases keep their old values
   until the next settle starts, as the copy processes they stand for
   would, so the touch waits in [pend]. *)
let defer d s =
  if d.npend = Array.length d.pend then begin
    let p = Array.make (imax 16 (2 * d.npend)) 0 in
    Array.blit d.pend 0 p 0 d.npend;
    d.pend <- p
  end;
  d.pend.(d.npend) <- s;
  d.npend <- d.npend + 1

(* ------------------------------------------------------------------ *)
(* Modules and plans                                                   *)
(* ------------------------------------------------------------------ *)

type vmodule = {
  m_name : int;
  m_params : (int * expr) list;
  m_ports : port array;
  m_items : item list;
  m_ninst : int;
  m_nnets : int;  (* ports and declared nets *)
  m_narrays : int;
  mutable m_names : names option;  (* made with the first plan *)
  mutable m_plans : ((int * int64) list * plan) list;
      (* by parameter overrides *)
}

(* A module under one parameter binding: what all its instances share. *)
and plan = {
  pl_mod : vmodule;
  pl_params : (int * int64) list;
  pl_names : names;
  pl_widths : int array;  (* local net -> width *)
  pl_arrays : (int * int) array;  (* local array -> element width, length *)
  pl_child : plan option array;  (* instance ordinal -> its plan *)
}

let parse_module p =
  expect_kw p kw_module;
  let name = expect_id p in
  let params =
    if is p Thash then begin
      advance p;
      expect p Tlp "(";
      let acc = ref [] in
      let one () =
        expect_kw p kw_parameter;
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
      let k = p.kind and a = p.arg in
      advance p;
      let dir =
        if k == Tid && a = kw_input then `In
        else if k == Tid && a = kw_output then `Out
        else
          parse_error "line %d: expected port direction, found %s"
            (cur_line p) (describe p.syms k a)
      in
      expect_kw p kw_logic;
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
  let items = ref [] and ninst = ref 0 in
  while not (is_kw p kw_endmodule) do
    items := parse_item p ~ninst :: !items
  done;
  advance p;
  let items = List.rev !items in
  let ports = Array.of_list (List.rev !ports) in
  let nnets = ref (Array.length ports) and narrays = ref 0 in
  List.iter
    (function
      | I_decl _ -> incr nnets
      | I_array _ -> incr narrays
      | _ -> ())
    items;
  {
    m_name = name;
    m_params = params;
    m_ports = ports;
    m_items = items;
    m_ninst = !ninst;
    m_nnets = !nnets;
    m_narrays = !narrays;
    m_names = None;
    m_plans = [];
  }

(* A lexical error anywhere in the source is reported before any parse
   error, as when the whole source was lexed first: a parse error lexes
   the rest of the source before it is raised. *)
let parse_file sy src =
  let p =
    {
      src;
      syms = sy;
      dg = { dv = 0; big = 0L; is_big = false };
      i = 0;
      nl = 1;
      kind = Teof;
      line = 1;
      width = 0;
      arg = 0;
      big = 0L;
    }
  in
  let mods = ref [] in
  match
    next p;
    while not (is p Teof) do
      mods := parse_module p :: !mods
    done
  with
  | () -> List.rev !mods
  | exception (Parse_error _ as e) ->
      while p.kind != Teof do
        next p
      done;
      raise e

let rec find_param n = function
  | [] -> raise Not_found
  | (k, v) :: rest -> if k = n then v else find_param n rest

let rec is_param n = function
  | [] -> false
  | (k, _) :: rest -> k = n || is_param n rest

(* Constant expressions: parameters and literals only (ranges, replication
   counts, select bounds, instance parameter bindings). *)
let rec const_eval sy params e =
  match e with
  | E_num (0, v) -> Int64.of_int v
  | E_num (w, v) -> Int64.logand (Int64.of_int v) (mask64 w)
  | E_big (0, v) -> v
  | E_big (w, v) -> Int64.logand v (mask64 w)
  | E_id n -> (
      match find_param n params with
      | v -> v
      | exception Not_found ->
          elab_error "non-constant name %s in constant expression" (name sy n))
  | E_bin (B_add, a, b) -> Int64.add (const_eval sy params a) (const_eval sy params b)
  | E_bin (B_sub, a, b) -> Int64.sub (const_eval sy params a) (const_eval sy params b)
  | E_bin (B_mul, a, b) -> Int64.mul (const_eval sy params a) (const_eval sy params b)
  | E_bin (B_div, a, b) -> Int64.div (const_eval sy params a) (const_eval sy params b)
  | _ -> elab_error "unsupported constant expression"

let range_width sy params (msb, lsb) =
  let msb = Int64.to_int (const_eval sy params msb)
  and lsb = Int64.to_int (const_eval sy params lsb) in
  if lsb <> 0 then elab_error "only [msb:0] ranges are supported";
  msb - lsb + 1

(* Parameter values: each default sees the parameters before it. *)
let resolve_params sy m overrides =
  List.fold_left
    (fun acc (pname, default) ->
      let v =
        match find_param pname overrides with
        | v -> v
        | exception Not_found -> const_eval sy acc default
      in
      acc @ [ (pname, v) ])
    [] m.m_params

(* The plan of [m] under [params]. Declarations are checked in source
   order, as the first instance declares them; [prefix] names that
   instance in messages. The module's name tables come with its first
   plan, which rejects a repeated instance name before any declaration:
   one scope declares each name once. *)
let new_plan sy m params ~prefix =
  let fresh = Option.is_none m.m_names in
  let nm =
    match m.m_names with
    | Some nm -> nm
    | None ->
        let kids = IT.create m.m_ninst in
        List.iter
          (function
            | I_inst { i_name; i_ord; _ } ->
                if IT.mem kids i_name then
                  elab_error "duplicate instance %s%s" (prefix ()) (name sy i_name);
                IT.add kids i_name i_ord
            | _ -> ())
          m.m_items;
        {
          nm_nets = IT.create m.m_nnets;
          nm_net_syms = Array.make m.m_nnets 0;
          nm_arrays = IT.create m.m_narrays;
          nm_array_syms = Array.make m.m_narrays 0;
          nm_kids = kids;
        }
  in
  let widths = Array.make m.m_nnets 0 and arrays = Array.make m.m_narrays (0, 0) in
  let nn = ref 0 and na = ref 0 in
  let declare s range =
    let w = match range with None -> 1 | Some r -> range_width sy params r in
    if w < 1 || w > 64 then
      elab_error "net %s%s has unsupported width %d" (prefix ()) (name sy s) w;
    if fresh then begin
      if IT.mem nm.nm_nets s then elab_error "duplicate net %s%s" (prefix ()) (name sy s);
      IT.add nm.nm_nets s !nn;
      nm.nm_net_syms.(!nn) <- s
    end;
    widths.(!nn) <- w;
    incr nn
  in
  Array.iter (fun p -> declare p.p_name p.p_range) m.m_ports;
  List.iter
    (function
      | I_decl (r, s) -> declare s r
      | I_array (er, s, sr) ->
          let ew = range_width sy params er in
          let size = range_width sy params sr in
          if ew < 1 || ew > 64 then
            elab_error "array %s%s has unsupported element width %d"
              (prefix ()) (name sy s) ew;
          if size < 0 then
            elab_error "array %s%s has negative length %d" (prefix ()) (name sy s)
              size;
          if fresh then begin
            if IT.mem nm.nm_arrays s then
              elab_error "duplicate array %s%s" (prefix ()) (name sy s);
            IT.add nm.nm_arrays s !na;
            nm.nm_array_syms.(!na) <- s
          end;
          arrays.(!na) <- (ew, size);
          incr na
      | _ -> ())
    m.m_items;
  m.m_names <- Some nm;
  {
    pl_mod = m;
    pl_params = params;
    pl_names = nm;
    pl_widths = widths;
    pl_arrays = arrays;
    pl_child = Array.make m.m_ninst None;
  }

(* ------------------------------------------------------------------ *)
(* Elaboration state                                                   *)
(* ------------------------------------------------------------------ *)

(* What elaboration collects and [finalize] turns into the schedule.
   Settle process [k] runs [runs.(k)]; its reads are [p_reads.a.(i)] for
   [i] from [p_rstart.a.(k)] up to the next start, its writes likewise;
   always_ff block [b]'s slots are laid out the same way in [f_slots]. A
   net or array is named by its id or [lnot a_id] until [finalize] maps
   both to slots. *)
type elab = {
  d : t;
  mods : vmodule IT.t;
  mutable net_cx : cexpr array;  (* net -> its expression, once made *)
  rd : ivec;  (* the reads of the process being compiled *)
  wr : ivec;  (* and its writes *)
  mutable driven : Bytes.t;  (* net -> driven by a settle process or alias *)
  mutable ff_net : Bytes.t;  (* net -> written by an always_ff block *)
  mutable ff_arr : Bytes.t;  (* array -> written by an always_ff block *)
  mutable runs : (unit -> unit) array;
  mutable nprocs : int;
  p_rstart : ivec;
  p_reads : ivec;
  p_wstart : ivec;
  p_writes : ivec;
  mutable ff_bodies : cstmt list array;
  mutable nff : int;
  f_start : ivec;
  f_slots : ivec;
}

(* [k] more nets with widths [ws], after the last; returns the first. *)
let alloc_nets el (ws : int array) =
  let d = el.d in
  let base = d.nnets and k = Array.length ws in
  let need = base + k in
  if need > Array.length d.vals then begin
    let cap = imax need (imax 256 (2 * Array.length d.vals)) in
    let grow a z =
      let b = Array.make cap z in
      Array.blit a 0 b 0 base;
      b
    in
    d.vals <- grow d.vals 0;
    d.wvals <- grow d.wvals 0L;
    d.widths <- grow d.widths 0;
    d.asrc <- grow d.asrc (-1);
    let flags s =
      let b = Bytes.make cap '\000' in
      Bytes.blit s 0 b 0 base;
      b
    in
    el.driven <- flags el.driven;
    el.ff_net <- flags el.ff_net;
    let cx = Array.make cap no_cx in
    Array.blit el.net_cx 0 cx 0 base;
    el.net_cx <- cx
  end;
  Array.blit ws 0 d.widths base k;
  d.nnets <- need;
  base

(* Fillers for the growable arrays of records below. A large array made
   with a young element forces a minor collection; these are not young. *)
let no_arr =
  { a_id = -1; a_width = 0; a_len = 0; a_data = [||]; a_wide = [||]; a_inst = -1; a_name = -1 }

let no_inst =
  let t = IT.create 1 in
  {
    in_names =
      {
        nm_nets = t;
        nm_net_syms = [||];
        nm_arrays = t;
        nm_array_syms = [||];
        nm_kids = IT.create 1;
      };
    in_base = 0;
    in_abase = 0;
    in_parent = -1;
    in_name = -1;
    in_kids = [||];
  }

let add_array el a =
  let d = el.d in
  let n = d.narrays in
  if n = Array.length d.arrays then begin
    let b = Array.make (imax 16 (2 * n)) no_arr in
    Array.blit d.arrays 0 b 0 n;
    d.arrays <- b;
    let f = Bytes.make (Array.length b) '\000' in
    Bytes.blit el.ff_arr 0 f 0 n;
    el.ff_arr <- f
  end;
  d.arrays.(n) <- a;
  d.narrays <- n + 1

let add_inst el i =
  let d = el.d in
  let n = d.ninsts in
  if n = Array.length d.insts then begin
    let b = Array.make (imax 16 (2 * n)) no_inst in
    Array.blit d.insts 0 b 0 n;
    d.insts <- b
  end;
  d.insts.(n) <- i;
  d.ninsts <- n + 1;
  n

let append dst (src : ivec) =
  for i = 0 to src.len - 1 do
    push dst src.a.(i)
  done

(* A settle process: [run], reading [el.rd] and writing [el.wr]. *)
let add_proc el run =
  let n = el.nprocs in
  if n = Array.length el.runs then begin
    let b = Array.make (imax 64 (2 * n)) ignore in
    Array.blit el.runs 0 b 0 n;
    el.runs <- b
  end;
  el.runs.(n) <- run;
  el.nprocs <- n + 1;
  push el.p_rstart el.p_reads.len;
  append el.p_reads el.rd;
  push el.p_wstart el.p_writes.len;
  append el.p_writes el.wr

(* Sort [a.(lo)] .. [a.(hi - 1)] and drop repeats; returns the new end. *)
let sort_uniq (a : int array) lo hi =
  if hi - lo > 32 then begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
  if hi <= lo then lo
  else begin
    let e = ref (lo + 1) in
    for i = lo + 1 to hi - 1 do
      if a.(i) <> a.(!e - 1) then begin
        a.(!e) <- a.(i);
        incr e
      end
    done;
    !e
  end

(* An instance's view of elaboration: its plan and where its nets and
   arrays start. *)
type scope = {
  el : elab;
  pl : plan;
  nm : names;
  base : int;
  abase : int;
  inst : int;
}

let net_id sc n =
  match IT.find sc.nm.nm_nets n with
  | l -> sc.base + l
  | exception Not_found ->
      let d = sc.el.d in
      elab_error "unbound net %s%s" (inst_prefix d sc.inst) (name d.syms n)

(* ------------------------------------------------------------------ *)
(* Expression compilation                                              *)
(* ------------------------------------------------------------------ *)

let ev_of d c =
  match c.k with
  | K_net id -> fun () -> d.vals.(id)
  | K_const n -> fun () -> n
  | K_expr -> c.ev

(* The bit length of a non-negative [n]. *)
let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1)

let rec bits64 n v =
  if Int64.equal v 0L then n else bits64 (n + 1) (Int64.shift_right_logical v 1)

(* Constants 0 and 1 of every width, shared. *)
let small_consts =
  Array.init 65 (fun w ->
      Array.init 2 (fun n -> { w; b = n; k = K_const n; ev = no_ev; wide = no_wide }))

(* A constant [n] below 2^62, already masked to [w] bits. *)
let const_n w n =
  if n < 2 then small_consts.(w).(n)
  else { w; b = bits n 0; k = K_const n; ev = no_ev; wide = no_wide }

(* A constant [v], already masked to [w] bits. *)
let const w v =
  if Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int narrow_max) <= 0
  then const_n w (Int64.to_int v)
  else
    (* Negative or past [narrow_max]: more than [narrow] bits. *)
    let n = Int64.to_int v in
    { w; b = bits64 0 v; k = K_expr; ev = (fun () -> n); wide = (fun () () -> v) }

(* Net [id], one expression shared by every reference to it. *)
let net_expr el id =
  let c = el.net_cx.(id) in
  if c != no_cx then c
  else begin
    let d = el.d in
    let w = d.widths.(id) in
    let c =
      if is_wide w then
        {
          w;
          b = w;
          k = K_expr;
          ev = (fun () -> Int64.to_int d.wvals.(id));
          wide = (fun () () -> d.wvals.(id));
        }
      else { w; b = w; k = K_net id; ev = no_ev; wide = no_wide }
    in
    el.net_cx.(id) <- c;
    c
  end

(* The whole value of [c], as an Int64 closure. *)
let exact d c =
  if is_wide c.b then c.wide ()
  else
    let f = ev_of d c in
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

(* A node over operands [x] and [y] whose low bits come from [ev]. Its
   whole value, when it can exceed [narrow] bits, is [op m x y] on the
   operands' whole values, [m] the node's mask: that Int64 closure is
   built only then, so a narrow node builds none. [op] names no
   variables, so passing it allocates nothing. *)
let rec node d w b ev x y op =
  {
    w;
    b;
    k = K_expr;
    ev;
    wide = (if is_wide b then wide2 d op (mask64 w) x y else no_wide);
  }

and wide2 d op m x y () =
  let fx = exact d x and fy = exact d y in
  fun () -> op m (fx ()) (fy ())

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

(* Unsigned comparisons, as conditions. Narrow values are non-negative
   ints, so the native order is the unsigned one. *)
let compare_cond d op a b =
  if is_wide a.b || is_wide b.b then
    let fa = exact d a and fb = exact d b in
    let c () = Int64.unsigned_compare (fa ()) (fb ()) in
    match op with
    | B_eq -> fun () -> Int64.equal (fa ()) (fb ())
    | B_ne -> fun () -> not (Int64.equal (fa ()) (fb ()))
    | B_lt -> fun () -> c () < 0
    | B_gt -> fun () -> c () > 0
    | B_le -> fun () -> c () <= 0
    | _ -> fun () -> c () >= 0
  else
    match (a.k, b.k) with
    | K_net i, K_const n -> (
        match op with
        | B_eq -> fun () -> d.vals.(i) = n
        | B_ne -> fun () -> d.vals.(i) <> n
        | B_lt -> fun () -> d.vals.(i) < n
        | B_gt -> fun () -> d.vals.(i) > n
        | B_le -> fun () -> d.vals.(i) <= n
        | _ -> fun () -> d.vals.(i) >= n)
    | _ -> (
        let fa = ev_of d a and fb = ev_of d b in
        match op with
        | B_eq -> fun () -> fa () = fb ()
        | B_ne -> fun () -> fa () <> fb ()
        | B_lt -> fun () -> fa () < fb ()
        | B_gt -> fun () -> fa () > fb ()
        | B_le -> fun () -> fa () <= fb ()
        | _ -> fun () -> fa () >= fb ())

(* [x lsl s] for a static [s]; shifts of 63 or more leave no low bits. *)
let shl63 x s = if s >= 63 then 0 else x lsl s

(* An array index, as the element number or -1 when out of range. *)
let index d ci len =
  if is_wide ci.b then
    let f = ci.wide () in
    let len64 = Int64.of_int len in
    fun () ->
      let i = f () in
      if Int64.unsigned_compare i len64 < 0 then Int64.to_int i else -1
  else
    let f = ev_of d ci in
    fun () ->
      let i = f () in
      if i < len then i else -1

let compile_bin d op a b =
  match op with
  | B_eq | B_ne | B_lt | B_gt | B_le | B_ge ->
      let c = compare_cond d op a b in
      bit (fun () -> if c () then 1 else 0)
  | _ -> (
      let w = imax a.w b.w in
      let m = imask w and fa = ev_of d a and fb = ev_of d b in
      (* Whole-value operators are native when both operands are narrow. *)
      let whole = is_wide a.b || is_wide b.b in
      match op with
      | B_add ->
          let nb = imax a.b b.b + 1 in
          if nb <= w then
            node d w nb (fun () -> fa () + fb ()) a b (fun _ x y -> Int64.add x y)
          else
            node d w w
              (fun () -> (fa () + fb ()) land m)
              a b
              (fun m x y -> Int64.logand (Int64.add x y) m)
      | B_sub ->
          node d w w
            (fun () -> (fa () - fb ()) land m)
            a b
            (fun m x y -> Int64.logand (Int64.sub x y) m)
      | B_mul ->
          let nb = a.b + b.b in
          if nb <= w then
            node d w nb (fun () -> fa () * fb ()) a b (fun _ x y -> Int64.mul x y)
          else
            node d w w
              (fun () -> fa () * fb () land m)
              a b
              (fun m x y -> Int64.logand (Int64.mul x y) m)
      | B_div ->
          (* Division by zero yields all-ones, like Bitvec.div. *)
          let div m x y = if Int64.equal y 0L then m else Int64.unsigned_div x y in
          if whole then of_wide w w (wide2 d div (mask64 w) a b ())
          else
            node d w w
              (fun () ->
                let bv = fb () in
                if bv = 0 then m else fa () / bv)
              a b div
      | B_mod ->
          let rem _ x y = if Int64.equal y 0L then x else Int64.unsigned_rem x y in
          if whole then of_wide w a.b (wide2 d rem 0L a b ())
          else
            node d w a.b
              (fun () ->
                let av = fa () and bv = fb () in
                if bv = 0 then av else av mod bv)
              a b rem
      | B_and ->
          node d w (imin a.b b.b) (fun () -> fa () land fb ()) a b (fun _ -> Int64.logand)
      | B_or ->
          node d w (imax a.b b.b) (fun () -> fa () lor fb ()) a b (fun _ -> Int64.logor)
      | B_xor ->
          node d w (imax a.b b.b) (fun () -> fa () lxor fb ()) a b (fun _ -> Int64.logxor)
      | B_shl ->
          let w = a.w in
          let m = imask w in
          (* Shifts of at least min(w, 63) leave no low bits. *)
          let lim = imin w 63 in
          let shl m x s =
            if Int64.unsigned_compare s 64L >= 0 then 0L
            else Int64.logand (Int64.shift_left x (Int64.to_int s)) m
          in
          if is_wide b.b then
            let xb = b.wide () in
            let lim64 = Int64.of_int lim in
            node d w w
              (fun () ->
                let s = xb () in
                if Int64.unsigned_compare s lim64 >= 0 then 0
                else (fa () lsl Int64.to_int s) land m)
              a b shl
          else
            node d w w
              (fun () ->
                let s = fb () in
                if s >= lim then 0 else (fa () lsl s) land m)
              a b shl
      | B_shr ->
          let w = a.w in
          let shr _ x s =
            if Int64.unsigned_compare s 64L >= 0 then 0L
            else Int64.shift_right_logical x (Int64.to_int s)
          in
          if whole then of_wide w a.b (wide2 d shr 0L a b ())
          else
            node d w a.b
              (fun () ->
                let s = fb () in
                if s >= narrow then 0 else fa () lsr s)
              a b shr
      | B_eq | B_ne | B_lt | B_gt | B_le | B_ge -> assert false)

let w_cond d tc t f () =
  let ft = exact d t and ff = exact d f in
  fun () -> if tc () then ft () else ff ()

let w_concat d ces ws () =
  let fs = Array.map (exact d) ces in
  fun () ->
    let acc = ref 0L in
    for i = 0 to Array.length fs - 1 do
      acc := Int64.logor (Int64.shift_left !acc ws.(i)) (fs.(i) ())
    done;
    !acc

let w_repl d ce count () =
  let fe = exact d ce and ew = ce.w in
  fun () ->
    let v = fe () in
    let acc = ref 0L in
    for _ = 1 to count do
      acc := Int64.logor (Int64.shift_left !acc ew) v
    done;
    !acc

let w_select d base lsb m () =
  let fb = exact d base in
  fun () -> Int64.logand (Int64.shift_right_logical (fb ()) lsb) m

let compile_id sc n =
  match find_param n sc.pl.pl_params with
  | v -> const 64 v
  | exception Not_found ->
      let id = net_id sc n in
      push sc.el.rd id;
      net_expr sc.el id

(* Whether [e] is one bit wide whatever its operands: a comparison, a
   logical negation, or [~], [&], [|] and [^] over such. *)
let rec is_bit = function
  | E_bin ((B_eq | B_ne | B_lt | B_gt | B_le | B_ge), _, _) | E_un (U_lnot, _) -> true
  | E_un (U_not, a) -> is_bit a
  | E_bin ((B_and | B_or | B_xor), a, b) -> is_bit a && is_bit b
  | _ -> false

let rec compile sc e =
  let d = sc.el.d in
  match e with
  | E_num (0, v) -> const_n 64 v
  | E_num (w, v) -> const_n w (v land imask w)
  | E_big (0, v) -> const 64 v
  | E_big (w, v) -> const w (Int64.logand v (mask64 w))
  | E_ones -> const 64 (-1L)
  | E_id n -> compile_id sc n
  | E_un (U_not, a) ->
      let a = compile sc a in
      let m = imask a.w and fa = ev_of d a in
      node d a.w a.w
        (fun () -> lnot (fa ()) land m)
        a a
        (fun m x _ -> Int64.logand (Int64.lognot x) m)
  | E_un (U_lnot, a) ->
      let t = cond sc a in
      bit (fun () -> if t () then 0 else 1)
  | E_bin (op, a, b) -> compile_bin d op (compile sc a) (compile sc b)
  | E_cond (c, t, f) ->
      let tc = cond sc c in
      let t = compile sc t and f = compile sc f in
      let ev =
        match (t.k, f.k) with
        | K_const x, K_const y -> fun () -> if tc () then x else y
        | K_net i, K_const y -> fun () -> if tc () then d.vals.(i) else y
        | _, K_const y ->
            let ft = ev_of d t in
            fun () -> if tc () then ft () else y
        | K_const x, _ ->
            let ff = ev_of d f in
            fun () -> if tc () then x else ff ()
        | K_net i, _ ->
            let ff = ev_of d f in
            fun () -> if tc () then d.vals.(i) else ff ()
        | _ ->
            let ft = ev_of d t and ff = ev_of d f in
            fun () -> if tc () then ft () else ff ()
      in
      let w = imax t.w f.w and b = imax t.b f.b in
      if is_wide b then { w; b; k = K_expr; ev; wide = w_cond d tc t f }
      else { w; b; k = K_expr; ev; wide = no_wide }
  | E_concat es ->
      let ces = Array.of_list (List.map (compile sc) es) in
      let w = Array.fold_left (fun acc c -> acc + c.w) 0 ces in
      if w > 64 then elab_error "concatenation wider than 64 bits";
      let b = if Array.length ces = 0 then 0 else w - ces.(0).w + ces.(0).b in
      let ws = Array.map (fun c -> c.w) ces
      and evs = Array.map (ev_of d) ces in
      let ev () =
        let acc = ref 0 in
        for i = 0 to Array.length evs - 1 do
          acc := shl63 !acc ws.(i) lor evs.(i) ()
        done;
        !acc
      in
      {
        w;
        b;
        k = K_expr;
        ev;
        wide = (if is_wide b then w_concat d ces ws else no_wide);
      }
  | E_repl (count, e) ->
      let count = Int64.to_int (const_eval d.syms sc.pl.pl_params count) in
      let ce = compile sc e in
      if count < 0 then elab_error "negative replication count";
      let w = count * ce.w in
      if w > 64 then elab_error "replication wider than 64 bits";
      let b = if count = 0 then 0 else w - ce.w + ce.b in
      let ew = ce.w and fe = ev_of d ce in
      let ev () =
        let v = fe () in
        let acc = ref 0 in
        for _ = 1 to count do
          acc := shl63 !acc ew lor v
        done;
        !acc
      in
      {
        w;
        b;
        k = K_expr;
        ev;
        wide = (if is_wide b then w_repl d ce count else no_wide);
      }
  | E_select (nm, msb, lsb) ->
      let base = compile_id sc nm in
      let msb = Int64.to_int (const_eval d.syms sc.pl.pl_params msb)
      and lsb = Int64.to_int (const_eval d.syms sc.pl.pl_params lsb) in
      let w = msb - lsb + 1 in
      if lsb < 0 || w < 1 || w > 64 || lsb > 63 then
        elab_error "bad part-select [%d:%d] on %s" msb lsb (name d.syms nm);
      if msb < 63 then
        (* Every selected bit is among the low 63 that [ev] holds. *)
        let m = imask w and fb = ev_of d base in
        {
          w;
          b = w;
          k = K_expr;
          ev = (fun () -> (fb () lsr lsb) land m);
          wide = (if is_wide w then w_select d base lsb (mask64 w) else no_wide);
        }
      else of_wide w w (w_select d base lsb (mask64 w) ())
  | E_index (nm, ix) -> (
      match IT.find sc.nm.nm_arrays nm with
      | j ->
          let a = d.arrays.(sc.abase + j) in
          push sc.el.rd (lnot a.a_id);
          let ix = index d (compile sc ix) a.a_len in
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
      | exception Not_found ->
          elab_error "index of unknown array %s%s" (inst_prefix d sc.inst)
            (name d.syms nm))
  | E_sqrt e ->
      let ce = compile sc e in
      let f = exact d ce in
      of_wide ce.w ce.b (fun () -> Calyx_sim.Prim_state.isqrt (f ()))

(* [e] is not zero, as a condition: [truth] of its value, with a
   comparison and the bit operators over comparisons evaluated as bools
   rather than as 1-bit values. Operands compile in the order [compile]
   takes them. *)
and cond sc e =
  let d = sc.el.d in
  match e with
  | E_bin (((B_eq | B_ne | B_lt | B_gt | B_le | B_ge) as op), a, b) ->
      let b = compile sc b in
      let a = compile sc a in
      compare_cond d op a b
  | E_bin (B_and, a, b) when is_bit e ->
      let cb = cond sc b in
      let ca = cond sc a in
      fun () -> ca () && cb ()
  | E_bin (B_or, a, b) when is_bit e ->
      let cb = cond sc b in
      let ca = cond sc a in
      fun () -> ca () || cb ()
  | E_bin (B_xor, a, b) when is_bit e ->
      let cb = cond sc b in
      let ca = cond sc a in
      fun () -> ca () <> cb ()
  | E_un (U_not, a) when is_bit a ->
      let c = cond sc a in
      fun () -> not (c ())
  | E_un (U_lnot, a) ->
      let c = cond sc a in
      fun () -> not (c ())
  | _ -> truth d (compile sc e)

(* The value of [ce] truncated or zero-extended to a narrow target of
   [tw] bits: its mask, or -1 when the value already fits. *)
let fit tw (ce : cexpr) = if ce.b <= tw then -1 else imask tw

let rec compile_stmts sc = function
  | [] -> []
  | s :: rest ->
      let d = sc.el.d in
      let c =
        match s with
        | S_if (c, t, f) ->
            let c = cond sc c in
            C_if (c, compile_stmts sc t, compile_stmts sc f)
        | S_assign (L_id n, e) ->
            let id = net_id sc n in
            push sc.el.wr id;
            let ce = compile sc e and tw = d.widths.(id) in
            if is_wide tw then
              let f = exact d ce and m = mask64 tw in
              C_wnet (id, fun () -> Int64.logand (f ()) m)
            else C_net (id, fit tw ce, ev_of d ce)
        | S_assign (L_idx (n, ix), e) -> (
            match IT.find sc.nm.nm_arrays n with
            | j ->
                let a = d.arrays.(sc.abase + j) in
                push sc.el.wr (lnot a.a_id);
                let ix = index d (compile sc ix) a.a_len in
                let ce = compile sc e in
                if is_wide a.a_width then
                  let f = exact d ce and m = mask64 a.a_width in
                  C_warr (a, ix, fun () -> Int64.logand (f ()) m)
                else C_arr (a, ix, fit a.a_width ce, ev_of d ce)
            | exception Not_found ->
                elab_error "assignment to unknown array %s%s"
                  (inst_prefix d sc.inst) (name d.syms n))
      in
      c :: compile_stmts sc rest

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

let check_undriven el tgt =
  if Bytes.get el.driven tgt <> '\000' then
    elab_error "multiple drivers for net %s" (net_name el.d tgt);
  Bytes.set el.driven tgt '\001'

(* A continuous driver of [tgt]; its reads are in [el.rd]. *)
let add_drive el tgt (ce : cexpr) =
  let d = el.d in
  check_undriven el tgt;
  let tw = d.widths.(tgt) in
  let run =
    if is_wide tw then
      let f = exact d ce and m = mask64 tw in
      fun () -> set_wnet d tgt (Int64.logand (f ()) m)
    else
      let f = ev_of d ce and m = fit tw ce in
      fun () -> set_net d tgt (f () land m)
  in
  el.wr.len <- 0;
  push el.wr tgt;
  add_proc el run

(* Whether following aliases from [s] reaches [tgt]. *)
let rec reaches asrc tgt s = s = tgt || (s >= 0 && reaches asrc tgt asrc.(s))

(* A net-to-net copy [tgt = src]. At the same width it becomes an alias:
   no process, the readers of [tgt] listen on [src]'s slot, and each change
   of [src] is copied into [tgt] (see [finalize] and [touch]). A copy that
   would close a cycle of aliases stays a process, so a copy loop settles
   or diverges as it always has. *)
let add_copy el tgt src =
  let d = el.d in
  if d.widths.(tgt) = d.widths.(src) && not (reaches d.asrc tgt src) then begin
    check_undriven el tgt;
    d.asrc.(tgt) <- src
  end
  else begin
    el.rd.len <- 0;
    push el.rd src;
    add_drive el tgt (net_expr el src)
  end

(* One always_ff block. Every net or memory it writes must have no other
   always_ff driver: [commit] skips blocks whose inputs are unchanged, which
   is exact only while each target has a single writer. *)
let add_ff el stmts =
  let d = el.d in
  let wr = el.wr in
  wr.len <- sort_uniq wr.a 0 wr.len;
  for i = 0 to wr.len - 1 do
    let tgt = wr.a.(i) in
    if tgt >= 0 then begin
      if Bytes.get el.ff_net tgt <> '\000' then
        elab_error "multiple drivers for net %s" (net_name d tgt);
      Bytes.set el.ff_net tgt '\001'
    end
    else begin
      let a = lnot tgt in
      if Bytes.get el.ff_arr a <> '\000' then
        elab_error "multiple drivers for memory %s" (array_name d d.arrays.(a));
      Bytes.set el.ff_arr a '\001'
    end
  done;
  let n = el.nff in
  if n = Array.length el.ff_bodies then begin
    let b = Array.make (imax 16 (2 * n)) [] in
    Array.blit el.ff_bodies 0 b 0 n;
    el.ff_bodies <- b
  end;
  el.ff_bodies.(n) <- stmts;
  el.nff <- n + 1;
  push el.f_start el.f_slots.len;
  append el.f_slots el.rd;
  append el.f_slots el.wr

(* ------------------------------------------------------------------ *)
(* Elaboration                                                         *)
(* ------------------------------------------------------------------ *)

(* A continuous driver of [tgt]: an alias when [e] is a plain net. *)
let drive sc tgt e =
  match e with
  | E_id n when not (is_param n sc.pl.pl_params) -> add_copy sc.el tgt (net_id sc n)
  | _ ->
      sc.el.rd.len <- 0;
      let ce = compile sc e in
      add_drive sc.el tgt ce

(* Port [pname] of module [cm], as a connection: its local net, [lnot] it
   for an output. Ports are a module's first nets. *)
let find_port sy cm pname =
  let nm = Option.get cm.m_names in
  match IT.find nm.nm_nets pname with
  | l when l < Array.length cm.m_ports -> (
      match cm.m_ports.(l).p_dir with `In -> l | `Out -> lnot l)
  | _ | (exception Not_found) ->
      elab_error "module %s has no port %s" (name sy cm.m_name) (name sy pname)

(* Bind child instance [cid]'s ports. *)
let rec bind_ports sc cm cid = function
  | [] -> ()
  | (pname, e) :: rest ->
      if pname <> kw_clk then begin
        let d = sc.el.d in
        let port = find_port d.syms cm pname in
        let cbase = d.insts.(cid).in_base in
        if port >= 0 then drive sc (cbase + port) e
        else
          match e with
          | E_id wnet -> add_copy sc.el (net_id sc wnet) (cbase + lnot port)
          | _ ->
              elab_error "output port %s of %s must connect to a plain net"
                (name d.syms pname) (name d.syms cm.m_name)
      end;
      bind_ports sc cm cid rest

let rec same_overrides a b =
  match (a, b) with
  | [], [] -> true
  | (p, x) :: a, (q, y) :: b -> p = q && Int64.equal x y && same_overrides a b
  | _ -> false

(* The plan of [cm] under [overrides]: made by its first instance. *)
let plan_for sy cm overrides ~prefix =
  match List.find (fun (k, _) -> same_overrides k overrides) cm.m_plans with
  | _, pl -> pl
  | exception Not_found ->
      let params = resolve_params sy cm overrides in
      let pl = new_plan sy cm params ~prefix in
      cm.m_plans <- (overrides, pl) :: cm.m_plans;
      pl

(* The dotted prefix of child [i_name] of instance [id]. *)
let child_prefix d id i_name = inst_prefix d id ^ name d.syms i_name ^ "."

(* Instantiate [pl]: allocate its nets and arrays after the last, then
   elaborate its items in source order, each child instance before its
   port bindings. Returns the instance id. *)
let rec instantiate el pl ~parent ~inst_name =
  let d = el.d in
  let m = pl.pl_mod in
  let base = alloc_nets el pl.pl_widths in
  let abase = d.narrays in
  let id =
    add_inst el
      {
        in_names = pl.pl_names;
        in_base = base;
        in_abase = abase;
        in_parent = parent;
        in_name = inst_name;
        in_kids = (if m.m_ninst = 0 then [||] else Array.make m.m_ninst (-1));
      }
  in
  for j = 0 to Array.length pl.pl_arrays - 1 do
    let ew, size = pl.pl_arrays.(j) in
    let wide = is_wide ew in
    add_array el
      {
        a_id = abase + j;
        a_width = ew;
        a_len = size;
        a_data = (if wide then [||] else Array.make size 0);
        a_wide = (if wide then Array.make size 0L else [||]);
        a_inst = id;
        a_name = pl.pl_names.nm_array_syms.(j);
      }
  done;
  let sc = { el; pl; nm = pl.pl_names; base; abase; inst = id } in
  List.iter
    (function
    | I_decl _ | I_array _ -> ()
    | I_assign (lhs, rhs) -> drive sc (net_id sc lhs) rhs
    | I_ff stmts ->
        el.rd.len <- 0;
        el.wr.len <- 0;
        add_ff el (compile_stmts sc stmts)
    | I_inst { i_mod; i_params; i_name; i_conns; i_ord } ->
        let sy = d.syms in
        let child =
          match pl.pl_child.(i_ord) with
          | Some c -> c
          | None ->
              let cm =
                match IT.find el.mods i_mod with
                | cm -> cm
                | exception Not_found -> elab_error "unknown module %s" (name sy i_mod)
              in
              let overrides =
                List.map (fun (p, e) -> (p, const_eval sy pl.pl_params e)) i_params
              in
              let c =
                plan_for sy cm overrides
                  ~prefix:(fun () -> child_prefix d id i_name)
              in
              pl.pl_child.(i_ord) <- Some c;
              c
        in
        let cid = instantiate el child ~parent:id ~inst_name:i_name in
        d.insts.(id).in_kids.(i_ord) <- cid;
        bind_ports sc child.pl_mod cid i_conns)
    m.m_items;
  id

(* Build the activity schedule once every net is known. Slots are the nets,
   then one per memory array. Each alias class — a net and every net that
   copies it, transitively — is scheduled on its source's slot: readers of
   any member register there, and [fwd] lists the members a change of the
   source is copied into. The settle processes are the nodes of a [Sched]
   graph; each always_ff block is listed under every slot it reads or
   writes. State nets and top-level inputs have no settle-time producer:
   their changes arrive from [commit] and the pokes through [pend].
   Everything starts dirty, so the first cycle sees the whole design. *)
let finalize el =
  let d = el.d in
  let nnets = d.nnets in
  let nslots = nnets + d.narrays in
  let root = Array.make (imax nslots 1) 0 in
  for s = 0 to nslots - 1 do
    root.(s) <- s
  done;
  let rec root_of s =
    let a = d.asrc.(s) in
    if a < 0 then s else root_of a
  in
  (* The nets aliasing net [a] directly, in increasing order:
     [kids.(kstart.(a))] up to [kids.(kstart.(a + 1) - 1)]. *)
  let kstart = Array.make (nnets + 1) 0 in
  for s = 0 to nnets - 1 do
    let a = d.asrc.(s) in
    if a >= 0 then begin
      root.(s) <- root_of s;
      kstart.(a + 1) <- kstart.(a + 1) + 1
    end
  done;
  for s = 0 to nnets - 1 do
    kstart.(s + 1) <- kstart.(s + 1) + kstart.(s)
  done;
  let kids = Array.make (imax 1 kstart.(nnets)) 0 in
  let next = Array.sub kstart 0 (imax 1 nnets) in
  for s = 0 to nnets - 1 do
    let a = d.asrc.(s) in
    if a >= 0 then begin
      kids.(next.(a)) <- s;
      next.(a) <- next.(a) + 1
    end
  done;
  (* Each slot's aliases, depth first in increasing order. *)
  let fwd = ivec () in
  let rec subtree s =
    for i = kstart.(s) to kstart.(s + 1) - 1 do
      let t = kids.(i) in
      push fwd t;
      subtree t
    done
  in
  let fwd_start = Array.make (nslots + 1) 0 in
  for s = 0 to nslots - 1 do
    fwd_start.(s) <- fwd.len;
    if s < nnets then subtree s
  done;
  fwd_start.(nslots) <- fwd.len;
  d.root <- root;
  d.fwd_start <- fwd_start;
  d.fwd <- fwd.a;
  (* Map each process's and block's reads and writes to slots, each list
     sorted without repeats. *)
  let slot r = root.(if r >= 0 then r else nnets + lnot r) in
  let to_slots (start : ivec) (v : ivec) n =
    push start v.len;
    let stop = Array.make (imax n 1) 0 in
    for k = 0 to n - 1 do
      let lo = start.a.(k) and hi = start.a.(k + 1) in
      for i = lo to hi - 1 do
        v.a.(i) <- slot v.a.(i)
      done;
      stop.(k) <- sort_uniq v.a lo hi
    done;
    stop
  in
  let np = el.nprocs in
  let rend = to_slots el.p_rstart el.p_reads np
  and wend = to_slots el.p_wstart el.p_writes np in
  let rstart = el.p_rstart.a and reads = el.p_reads.a in
  let wstart = el.p_wstart.a and writes = el.p_writes.a in
  let edges k ~read ~source:_ ~write =
    for i = rstart.(k) to rend.(k) - 1 do
      read reads.(i)
    done;
    for i = wstart.(k) to wend.(k) - 1 do
      write writes.(i)
    done
  in
  d.sched <- Sched.create (Sched.build_with ~slots:nslots ~nodes:np edges);
  let runs = el.runs in
  d.eval <- (fun k -> runs.(k) ());
  let nff = el.nff in
  let fend = to_slots el.f_start el.f_slots nff in
  let fstart = el.f_start.a and fslots = el.f_slots.a in
  (* The blocks touching each slot, in increasing order. *)
  let ffr_start = Array.make (nslots + 1) 0 in
  for b = 0 to nff - 1 do
    for i = fstart.(b) to fend.(b) - 1 do
      let s = fslots.(i) in
      ffr_start.(s + 1) <- ffr_start.(s + 1) + 1
    done
  done;
  for s = 0 to nslots - 1 do
    ffr_start.(s + 1) <- ffr_start.(s + 1) + ffr_start.(s)
  done;
  let ffr = Array.make (imax 1 ffr_start.(nslots)) 0 in
  let next = Array.sub ffr_start 0 (imax 1 nslots) in
  for b = 0 to nff - 1 do
    for i = fstart.(b) to fend.(b) - 1 do
      let s = fslots.(i) in
      ffr.(next.(s)) <- b;
      next.(s) <- next.(s) + 1
    done
  done;
  d.ffr_start <- ffr_start;
  d.ffr <- ffr;
  d.ffs <- Array.sub el.ff_bodies 0 nff;
  d.ff_dirty <- Array.make nff true;
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
  for s = 0 to nnets - 1 do
    if root.(s) = s && fwd_start.(s + 1) > fwd_start.(s) then defer d s
  done

let no_sched = Sched.create (Sched.build ~slots:0 ~nodes:[||])

let elaborate el modules ~top =
  let d = el.d in
  List.iter (fun m -> IT.replace el.mods m.m_name m) modules;
  let topm =
    match IT.find el.mods (lookup d.syms top) with
    | m -> m
    | exception Not_found -> elab_error "no module %s in the source" top
  in
  let params = resolve_params d.syms topm [] in
  let pl = new_plan d.syms topm params ~prefix:(fun () -> "") in
  topm.m_plans <- [ ([], pl) ];
  ignore (instantiate el pl ~parent:(-1) ~inst_name:(-1));
  (* A net driven continuously must not also be an always_ff target. *)
  for id = 0 to d.nnets - 1 do
    if Bytes.get el.ff_net id <> '\000' && Bytes.get el.driven id <> '\000' then
      elab_error "net driven by both continuous logic and always_ff"
  done

let stats d =
  (d.nnets, Sched.node_count (Sched.topology d.sched) + Array.length d.ffs)

let load ~top src =
  let module Trace = Calyx_telemetry.Trace in
  Trace.with_span ~cat:"stage" "rtl-load" @@ fun () ->
  let syms = new_syms () in
  let modules =
    Trace.with_span ~cat:"stage" "rtl-parse" (fun () -> parse_file syms src)
  in
  let d =
    {
      vals = [||];
      wvals = [||];
      widths = [||];
      asrc = [||];
      nnets = 0;
      syms;
      insts = [||];
      ninsts = 0;
      arrays = [||];
      narrays = 0;
      sched = no_sched;
      eval = ignore;
      root = [||];
      fwd_start = [||];
      fwd = [||];
      ffs = [||];
      ffr_start = [||];
      ffr = [||];
      ff_dirty = [||];
      pend = [||];
      npend = 0;
      stg_slot = [||];
      stg_idx = [||];
      stg_val = [||];
      stg_wval = [||];
      stg_len = 0;
      cycles = 0;
      evals = 0;
      ff_runs = 0;
      staged = 0;
    }
  in
  let el =
    {
      d;
      mods = IT.create 16;
      net_cx = [||];
      rd = ivec ();
      wr = ivec ();
      driven = Bytes.empty;
      ff_net = Bytes.empty;
      ff_arr = Bytes.empty;
      runs = [||];
      nprocs = 0;
      p_rstart = ivec ();
      p_reads = ivec ();
      p_wstart = ivec ();
      p_writes = ivec ();
      ff_bodies = [||];
      nff = 0;
      f_start = ivec ();
      f_slots = ivec ();
    }
  in
  Trace.with_span ~cat:"stage" "rtl-elaborate" (fun () ->
      elaborate el modules ~top);
  Trace.with_span ~cat:"stage" "rtl-schedule" (fun () -> finalize el);
  if Calyx_telemetry.Runtime.on () then begin
    let nets, procs = stats d in
    Trace.add_metric "bytes" (float_of_int (String.length src));
    Trace.add_metric "nets" (float_of_int nets);
    Trace.add_metric "procs" (float_of_int procs)
  end;
  d

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

(* How often each member of a combinational cycle may evaluate in one
   settle before it raises [Unstable]. *)
let max_settle_passes = 1000

(* Touch what changed since the last settle, then run the dirty
   processes. *)
let settle d =
  for i = 0 to d.npend - 1 do
    touch d d.pend.(i)
  done;
  d.npend <- 0;
  match Sched.run d.sched ~eval:d.eval ~max_passes:max_settle_passes with
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
  let ran = ref 0 in
  for b = 0 to Array.length d.ffs - 1 do
    if d.ff_dirty.(b) then begin
      d.ff_dirty.(b) <- false;
      incr ran;
      stage d d.ffs.(b)
    end
  done;
  d.ff_runs <- d.ff_runs + !ran;
  d.staged <- d.staged + d.stg_len;
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

(* The instance at the dotted [path] up to its last component, and that
   component's symbol. Raises [Not_found]. *)
let find_path d path =
  let sym s =
    let x = lookup d.syms s in
    if x < 0 then raise Not_found else x
  in
  let rec go n i =
    match String.index_from_opt path i '.' with
    | None -> (n, sym (String.sub path i (String.length path - i)))
    | Some j ->
        let s = sym (String.sub path i (j - i)) in
        go d.insts.(n.in_kids.(IT.find n.in_names.nm_kids s)) (j + 1)
  in
  go d.insts.(0) 0

let find_net d path =
  let n, s = find_path d path in
  n.in_base + IT.find n.in_names.nm_nets s

let top_net d name =
  match find_net d name with
  | id -> id
  | exception Not_found -> elab_error "no top-level net %s" name

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
  let evals0 = d.evals and ff_runs0 = d.ff_runs and staged0 = d.staged in
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
    Calyx_telemetry.Trace.add_metric "evals" (float_of_int (d.evals - evals0));
    Calyx_telemetry.Trace.add_metric "ff_blocks"
      (float_of_int (d.ff_runs - ff_runs0));
    Calyx_telemetry.Trace.add_metric "staged" (float_of_int (d.staged - staged0))
  end;
  !count

(* ------------------------------------------------------------------ *)
(* Poke/peek                                                           *)
(* ------------------------------------------------------------------ *)

let register_net d path =
  match find_net d (path ^ ".out") with
  | id -> id
  | exception Not_found -> elab_error "no register at %s" path

let read_register d path = read_net d (register_net d path)
let write_register d path v = poke_net d (register_net d path) v

let memory_array d path =
  match
    let n, s = find_path d (path ^ ".mem") in
    n.in_abase + IT.find n.in_names.nm_arrays s
  with
  | a -> d.arrays.(a)
  | exception Not_found -> elab_error "no memory at %s" path

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
