type token =
  | IDENT of string
  | NUMBER of int
  | LIT of Bitvec.t
  | STRING of string
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | LANGLE
  | RANGLE
  | EQ
  | EQEQ
  | NEQ
  | LE
  | GE
  | SEMI
  | COLON
  | COMMA
  | DOT
  | QUESTION
  | BANG
  | AMP
  | PIPE
  | ARROW
  | EOF

exception Lex_error of string

(* The 1-based line and column of byte offset [ofs] in [src]. *)
let line_col src ofs =
  let line = ref 1 and start = ref 0 in
  for i = 0 to min ofs (String.length src) - 1 do
    if src.[i] = '\n' then begin
      incr line;
      start := i + 1
    end
  done;
  (!line, ofs - !start + 1)

let located (line, col) msg = Printf.sprintf "line %d:%d: %s" line col msg

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let lex src =
  let n = String.length src in
  let pos = ref 0 in
  (* Where the token (or comment) being read starts: a lexer error
     points there. *)
  let tok_start = ref 0 in
  let cap = (n / 4) + 16 in
  let tokens = ref (Array.make cap EOF) and offsets = ref (Array.make cap 0) in
  let ntokens = ref 0 in
  let lex_error fmt =
    Format.kasprintf
      (fun s -> raise (Lex_error (located (line_col src !tok_start) s)))
      fmt
  in
  (* The byte at [i], or NUL past the end. *)
  let at i = if i < n then String.unsafe_get src i else '\000' in
  let emit t =
    if !ntokens = Array.length !tokens then begin
      let grow a fill =
        let b = Array.make (2 * !ntokens) fill in
        Array.blit a 0 b 0 !ntokens;
        b
      in
      tokens := grow !tokens EOF;
      offsets := grow !offsets 0
    end;
    Array.unsafe_set !tokens !ntokens t;
    Array.unsafe_set !offsets !ntokens !tok_start;
    incr ntokens
  in
  (* The bytes satisfying [pred] from [pos] on. *)
  let read_while pred =
    let start = !pos in
    while !pos < n && pred (String.unsafe_get src !pos) do
      incr pos
    done;
    String.sub src start (!pos - start)
  in
  (* [t] after consuming one byte, or [t2] after two when the second one
     is [c2]. *)
  let one_or_two t c2 t2 =
    if at (!pos + 1) = c2 then begin
      pos := !pos + 2;
      emit t2
    end
    else begin
      incr pos;
      emit t
    end
  in
  let read_number () =
    let digits = read_while is_digit in
    let value =
      match int_of_string_opt digits with
      | Some v -> v
      | None -> lex_error "number %s is too large" digits
    in
    (* A width-annotated literal: <width>'d<value>. *)
    let literal text v =
      if value < 1 || value > Bitvec.max_width then
        lex_error "literal %d'%s: width %d is outside 1..%d" value text
          value Bitvec.max_width;
      match Int64.of_string_opt v with
      | Some n -> emit (LIT (Bitvec.make ~width:value n))
      | None -> lex_error "literal %d'%s does not fit in 64 bits" value text
    in
    if at !pos = '\'' then begin
      incr pos;
      match at !pos with
      | 'd' ->
          incr pos;
          let v = read_while is_digit in
          if String.equal v "" then lex_error "expected digits after 'd";
          literal ("d" ^ v) v
      | 'b' ->
          incr pos;
          let v = read_while (fun c -> c = '0' || c = '1') in
          if String.equal v "" then lex_error "expected bits after 'b";
          literal ("b" ^ v) ("0b" ^ v)
      | _ -> lex_error "expected 'd or 'b in literal"
    end
    else emit (NUMBER value)
  in
  let read_string () =
    incr pos;
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then lex_error "unterminated string"
      else
        match src.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then lex_error "unterminated escape";
            Buffer.add_char buf src.[!pos];
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    emit (STRING (Buffer.contents buf))
  in
  let rec skip_block_comment () =
    if !pos >= n then lex_error "unterminated comment"
    else if src.[!pos] = '*' && at (!pos + 1) = '/' then pos := !pos + 2
    else begin
      incr pos;
      skip_block_comment ()
    end
  in
  while !pos < n do
    match String.unsafe_get src !pos with
    | ' ' | '\t' | '\r' | '\n' -> incr pos
    | c -> (
        tok_start := !pos;
        match c with
        | '/' when at (!pos + 1) = '/' ->
            while !pos < n && src.[!pos] <> '\n' do
              incr pos
            done
        | '/' when at (!pos + 1) = '*' ->
            pos := !pos + 2;
            skip_block_comment ()
        | '"' -> read_string ()
        | c when is_digit c -> read_number ()
        | c when is_ident_start c ->
            let start = !pos in
            incr pos;
            while !pos < n && is_ident_char (String.unsafe_get src !pos) do
              incr pos
            done;
            emit (IDENT (String.sub src start (!pos - start)))
        | '(' -> incr pos; emit LPAREN
        | ')' -> incr pos; emit RPAREN
        | '{' -> incr pos; emit LBRACE
        | '}' -> incr pos; emit RBRACE
        | '[' -> incr pos; emit LBRACKET
        | ']' -> incr pos; emit RBRACKET
        | ';' -> incr pos; emit SEMI
        | ':' -> incr pos; emit COLON
        | ',' -> incr pos; emit COMMA
        | '.' -> incr pos; emit DOT
        | '?' -> incr pos; emit QUESTION
        | '&' -> incr pos; emit AMP
        | '|' -> incr pos; emit PIPE
        | '@' -> incr pos (* port attribute markers are tolerated and ignored *)
        | '=' -> one_or_two EQ '=' EQEQ
        | '!' -> one_or_two BANG '=' NEQ
        | '<' -> one_or_two LANGLE '=' LE
        | '>' -> one_or_two RANGLE '=' GE
        | '-' ->
            if at (!pos + 1) = '>' then begin
              pos := !pos + 2;
              emit ARROW
            end
            else lex_error "unexpected '-'"
        | c -> lex_error "unexpected character %C" c)
  done;
  tok_start := n;
  emit EOF;
  (Array.sub !tokens 0 !ntokens, Array.sub !offsets 0 !ntokens)

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %S" s
  | NUMBER v -> Printf.sprintf "number %d" v
  | LIT v -> Bitvec.to_string v
  | STRING s -> Printf.sprintf "%S" s
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | LANGLE -> "'<'"
  | RANGLE -> "'>'"
  | EQ -> "'='"
  | EQEQ -> "'=='"
  | NEQ -> "'!='"
  | LE -> "'<='"
  | GE -> "'>='"
  | SEMI -> "';'"
  | COLON -> "':'"
  | COMMA -> "','"
  | DOT -> "'.'"
  | QUESTION -> "'?'"
  | BANG -> "'!'"
  | AMP -> "'&'"
  | PIPE -> "'|'"
  | ARROW -> "'->'"
  | EOF -> "end of input"
