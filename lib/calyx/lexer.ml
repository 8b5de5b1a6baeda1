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

let lex_error line fmt =
  Format.kasprintf (fun s -> raise (Lex_error (Printf.sprintf "line %d: %s" line s))) fmt

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let pos = ref 0 in
  let line = ref 1 in
  let tokens = ref [] in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let peek2 () = if !pos + 1 < n then Some src.[!pos + 1] else None in
  let advance () =
    (if !pos < n && src.[!pos] = '\n' then incr line);
    incr pos
  in
  let emit t = tokens := t :: !tokens in
  let read_while pred =
    let start = !pos in
    while !pos < n && pred src.[!pos] do
      advance ()
    done;
    String.sub src start (!pos - start)
  in
  let read_number () =
    let digits = read_while is_digit in
    let value =
      match int_of_string_opt digits with
      | Some v -> v
      | None -> lex_error !line "number %s is too large" digits
    in
    (* A width-annotated literal: <width>'d<value>. *)
    let literal text v =
      if value < 1 || value > Bitvec.max_width then
        lex_error !line "literal %d'%s: width %d is outside 1..%d" value text
          value Bitvec.max_width;
      match Int64.of_string_opt v with
      | Some n -> emit (LIT (Bitvec.make ~width:value n))
      | None -> lex_error !line "literal %d'%s does not fit in 64 bits" value text
    in
    if peek () = Some '\'' then begin
      advance ();
      match peek () with
      | Some 'd' ->
          advance ();
          let v = read_while is_digit in
          if String.equal v "" then lex_error !line "expected digits after 'd";
          literal ("d" ^ v) v
      | Some 'b' ->
          advance ();
          let v = read_while (fun c -> c = '0' || c = '1') in
          if String.equal v "" then lex_error !line "expected bits after 'b";
          literal ("b" ^ v) ("0b" ^ v)
      | _ -> lex_error !line "expected 'd or 'b in literal"
    end
    else emit (NUMBER value)
  in
  let read_string () =
    advance ();
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> lex_error !line "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some c ->
              Buffer.add_char buf c;
              advance ()
          | None -> lex_error !line "unterminated escape");
          go ()
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    emit (STRING (Buffer.contents buf))
  in
  let rec skip_block_comment () =
    match (peek (), peek2 ()) with
    | Some '*', Some '/' ->
        advance ();
        advance ()
    | Some _, _ ->
        advance ();
        skip_block_comment ()
    | None, _ -> lex_error !line "unterminated comment"
  in
  while !pos < n do
    match src.[!pos] with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | '/' when peek2 () = Some '/' ->
        while !pos < n && src.[!pos] <> '\n' do
          advance ()
        done
    | '/' when peek2 () = Some '*' ->
        advance ();
        advance ();
        skip_block_comment ()
    | '"' -> read_string ()
    | c when is_digit c -> read_number ()
    | c when is_ident_start c -> emit (IDENT (read_while is_ident_char))
    | '(' -> advance (); emit LPAREN
    | ')' -> advance (); emit RPAREN
    | '{' -> advance (); emit LBRACE
    | '}' -> advance (); emit RBRACE
    | '[' -> advance (); emit LBRACKET
    | ']' -> advance (); emit RBRACKET
    | ';' -> advance (); emit SEMI
    | ':' -> advance (); emit COLON
    | ',' -> advance (); emit COMMA
    | '.' -> advance (); emit DOT
    | '?' -> advance (); emit QUESTION
    | '&' -> advance (); emit AMP
    | '|' -> advance (); emit PIPE
    | '@' -> advance () (* port attribute markers are tolerated and ignored *)
    | '=' ->
        advance ();
        if peek () = Some '=' then begin advance (); emit EQEQ end
        else emit EQ
    | '!' ->
        advance ();
        if peek () = Some '=' then begin advance (); emit NEQ end
        else emit BANG
    | '<' ->
        advance ();
        if peek () = Some '=' then begin advance (); emit LE end
        else emit LANGLE
    | '>' ->
        advance ();
        if peek () = Some '=' then begin advance (); emit GE end
        else emit RANGLE
    | '-' ->
        advance ();
        if peek () = Some '>' then begin advance (); emit ARROW end
        else lex_error !line "unexpected '-'"
    | c -> lex_error !line "unexpected character %C" c
  done;
  emit EOF;
  List.rev !tokens

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
