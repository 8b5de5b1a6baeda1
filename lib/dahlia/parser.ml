open Ast

exception Parse_error of string

(* An error at byte offset [ofs] of [src], located like a Calyx one. *)
let error_at src ofs fmt =
  Format.kasprintf
    (fun s ->
      raise
        (Parse_error
           (Calyx.Lexer.located (Calyx.Lexer.line_col src ofs) s)))
    fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | IDENT of string
  | NUM of int
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COLON
  | ASSIGN  (* := *)
  | EQ  (* = *)
  | DOTDOT
  | DASHES  (* --- *)
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | PIPE
  | CARET
  | SHL
  | SHR
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | NEQ
  | EOF

let token_name = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | NUM v -> Printf.sprintf "number %d" v
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | SEMI -> "';'"
  | COLON -> "':'"
  | ASSIGN -> "':='"
  | EQ -> "'='"
  | DOTDOT -> "'..'"
  | DASHES -> "'---'"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | AMP -> "'&'"
  | PIPE -> "'|'"
  | CARET -> "'^'"
  | SHL -> "'<<'"
  | SHR -> "'>>'"
  | LT -> "'<'"
  | GT -> "'>'"
  | LE -> "'<='"
  | GE -> "'>='"
  | EQEQ -> "'=='"
  | NEQ -> "'!='"
  | EOF -> "end of input"

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  (* Where the token being read starts, and where the last one ended. *)
  let start = ref 0 and last_end = ref 0 in
  let out = ref [] in
  let emit t =
    out := (t, !start) :: !out;
    last_end := !pos
  in
  let peek k = if !pos + k < n then Some src.[!pos + k] else None in
  let advance () = incr pos in
  while !pos < n do
    start := !pos;
    let c = src.[!pos] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance ()
    else if c = '/' && peek 1 = Some '/' then
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done
    else if is_digit c then begin
      while !pos < n && is_digit src.[!pos] do
        advance ()
      done;
      let digits = String.sub src !start (!pos - !start) in
      match int_of_string_opt digits with
      | Some v -> emit (NUM v)
      | None -> error_at src !start "number %s is too large" digits
    end
    else if is_ident_start c then begin
      while !pos < n && is_ident_char src.[!pos] do
        advance ()
      done;
      emit (IDENT (String.sub src !start (!pos - !start)))
    end
    else begin
      let two tok = advance (); advance (); emit tok in
      let one tok = advance (); emit tok in
      match (c, peek 1, peek 2) with
      | '-', Some '-', Some '-' ->
          advance (); advance (); advance ();
          emit DASHES
      | ':', Some '=', _ -> two ASSIGN
      | '.', Some '.', _ -> two DOTDOT
      | '<', Some '<', _ -> two SHL
      | '>', Some '>', _ -> two SHR
      | '<', Some '=', _ -> two LE
      | '>', Some '=', _ -> two GE
      | '=', Some '=', _ -> two EQEQ
      | '!', Some '=', _ -> two NEQ
      | '(', _, _ -> one LPAREN
      | ')', _, _ -> one RPAREN
      | '{', _, _ -> one LBRACE
      | '}', _, _ -> one RBRACE
      | '[', _, _ -> one LBRACKET
      | ']', _, _ -> one RBRACKET
      | ';', _, _ -> one SEMI
      | ':', _, _ -> one COLON
      | '=', _, _ -> one EQ
      | '+', _, _ -> one PLUS
      | '-', _, _ -> one MINUS
      | '*', _, _ -> one STAR
      | '/', _, _ -> one SLASH
      | '%', _, _ -> one PERCENT
      | '&', _, _ -> one AMP
      | '|', _, _ -> one PIPE
      | '^', _, _ -> one CARET
      | '<', _, _ -> one LT
      | '>', _, _ -> one GT
      | _ -> error_at src !start "unexpected character %C" c
    end
  done;
  (* End of input is just past the last token, not past trailing blanks. *)
  out := (EOF, !last_end) :: !out;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

(* Each token carries its byte offset in [src]; the last is EOF, where
   [pos] stays. *)
type state = { src : string; tokens : (token * int) array; mutable pos : int }

let peek st = fst st.tokens.(st.pos)
let advance st = if peek st <> EOF then st.pos <- st.pos + 1

(* A parse error at the current token, which is never consumed first, so
   the message names the line and column of the token the parser stopped
   at. *)
let parse_error st fmt = error_at st.src (snd st.tokens.(st.pos)) fmt

let expect st tok =
  if peek st = tok then advance st
  else
    parse_error st "expected %s but found %s" (token_name tok)
      (token_name (peek st))

let accept st tok =
  if peek st = tok then begin
    advance st;
    true
  end
  else false

let expect_ident st =
  match peek st with
  | IDENT s ->
      advance st;
      s
  | t -> parse_error st "expected an identifier, found %s" (token_name t)

let expect_num st =
  match peek st with
  | NUM v ->
      advance st;
      v
  | t -> parse_error st "expected a number, found %s" (token_name t)

let accept_keyword st kw =
  match peek st with
  | IDENT s when String.equal s kw ->
      advance st;
      true
  | _ -> false

let parse_typ st =
  if accept_keyword st "ubit" then begin
    expect st LT;
    let w = expect_num st in
    expect st GT;
    UBit w
  end
  else
    parse_error st "expected a type (ubit<N>), found %s" (token_name (peek st))

(* Expressions, by descending precedence:
   cmp > shift? No — comparisons loosest; then | ^ &, shifts, +/-, mul. *)
let rec parse_expr st = parse_cmp st

and parse_cmp st =
  let lhs = parse_bitor st in
  let cmp op =
    advance st;
    EBinop (op, lhs, parse_bitor st)
  in
  match peek st with
  | LT -> cmp Lt
  | GT -> cmp Gt
  | LE -> cmp Le
  | GE -> cmp Ge
  | EQEQ -> cmp Eq
  | NEQ -> cmp Neq
  | _ -> lhs

and parse_bitor st =
  let lhs = parse_bitxor st in
  if accept st PIPE then EBinop (BOr, lhs, parse_bitor st) else lhs

and parse_bitxor st =
  let lhs = parse_bitand st in
  if accept st CARET then EBinop (BXor, lhs, parse_bitxor st) else lhs

and parse_bitand st =
  let lhs = parse_shift st in
  if accept st AMP then EBinop (BAnd, lhs, parse_bitand st) else lhs

and parse_shift st =
  let lhs = parse_additive st in
  if accept st SHL then EBinop (Shl, lhs, parse_additive st)
  else if accept st SHR then EBinop (Shr, lhs, parse_additive st)
  else lhs

and parse_additive st =
  let lhs = parse_multiplicative st in
  let rec go lhs =
    if accept st PLUS then go (EBinop (Add, lhs, parse_multiplicative st))
    else if accept st MINUS then go (EBinop (Sub, lhs, parse_multiplicative st))
    else lhs
  in
  go lhs

and parse_multiplicative st =
  let lhs = parse_atom st in
  let rec go lhs =
    if accept st STAR then go (EBinop (Mul, lhs, parse_atom st))
    else if accept st SLASH then go (EBinop (Div, lhs, parse_atom st))
    else if accept st PERCENT then go (EBinop (Rem, lhs, parse_atom st))
    else lhs
  in
  go lhs

and parse_atom st =
  match peek st with
  | NUM v ->
      advance st;
      EInt v
  | IDENT "sqrt" ->
      advance st;
      expect st LPAREN;
      let e = parse_expr st in
      expect st RPAREN;
      ESqrt e
  | IDENT x ->
      advance st;
      let rec indices acc =
        if accept st LBRACKET then begin
          let e = parse_expr st in
          expect st RBRACKET;
          indices (e :: acc)
        end
        else List.rev acc
      in
      let idxs = indices [] in
      if idxs = [] then EVar x else ERead (x, idxs)
  | LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st RPAREN;
      e
  | t -> parse_error st "expected an expression, found %s" (token_name t)

let rec parse_stmt st =
  if accept_keyword st "let" then begin
    let x = expect_ident st in
    expect st COLON;
    let t = parse_typ st in
    expect st EQ;
    let e = parse_expr st in
    SLet (x, t, e)
  end
  else if accept_keyword st "if" then begin
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    let t = parse_block st in
    let f = if accept_keyword st "else" then parse_block st else SSkip in
    SIf (c, t, f)
  end
  else if accept_keyword st "while" then begin
    expect st LPAREN;
    let c = parse_expr st in
    expect st RPAREN;
    SWhile (c, parse_block st)
  end
  else if accept_keyword st "for" then begin
    expect st LPAREN;
    if not (accept_keyword st "let") then parse_error st "expected 'let' in for, found %s" (token_name (peek st));
    let var = expect_ident st in
    expect st COLON;
    let var_typ = parse_typ st in
    expect st EQ;
    let lo = expect_num st in
    expect st DOTDOT;
    let hi = expect_num st in
    expect st RPAREN;
    let unroll = if accept_keyword st "unroll" then expect_num st else 1 in
    let body = parse_block st in
    SFor { var; var_typ; lo; hi; unroll; body }
  end
  else begin
    let x = expect_ident st in
    let rec indices acc =
      if accept st LBRACKET then begin
        let e = parse_expr st in
        expect st RBRACKET;
        indices (e :: acc)
      end
      else List.rev acc
    in
    let idxs = indices [] in
    expect st ASSIGN;
    let e = parse_expr st in
    if idxs = [] then SAssign (x, e) else SStore (x, idxs, e)
  end

and parse_block st =
  expect st LBRACE;
  parse_stmts st (fun st -> peek st = RBRACE) (fun st -> expect st RBRACE)

(* chunk ("---" chunk)*; a chunk is ";"-separated statements. *)
and parse_stmts st at_end consume_end =
  let parse_chunk () =
    let rec go acc =
      if at_end st || peek st = DASHES then List.rev acc
      else begin
        let s = parse_stmt st in
        ignore (accept st SEMI);
        go (s :: acc)
      end
    in
    match go [] with [] -> SSkip | [ s ] -> s | ss -> SPar ss
  in
  let rec chunks acc =
    let c = parse_chunk () in
    if accept st DASHES then chunks (c :: acc)
    else begin
      consume_end st;
      match List.rev (c :: acc) with [ s ] -> s | ss -> SSeq ss
    end
  in
  chunks []

let parse_decl st =
  (* The "decl" keyword has been consumed. *)
  let name = expect_ident st in
  expect st COLON;
  let elem = parse_typ st in
  let rec dims acc =
    if accept st LBRACKET then begin
      let size = expect_num st in
      let bank = if accept_keyword st "bank" then expect_num st else 1 in
      expect st RBRACKET;
      dims ({ size; bank } :: acc)
    end
    else List.rev acc
  in
  let dims = dims [] in
  expect st SEMI;
  { decl_name = name; elem; dims }

let parse_string src =
  let st = { src; tokens = tokenize src; pos = 0 } in
  let rec decls acc =
    if accept_keyword st "decl" then decls (parse_decl st :: acc)
    else List.rev acc
  in
  let decls = decls [] in
  let body = parse_stmts st (fun st -> peek st = EOF) (fun _ -> ()) in
  { decls; body }
