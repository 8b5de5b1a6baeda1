(** Lexer for the Calyx surface syntax. *)

type token =
  | IDENT of string
  | NUMBER of int
  | LIT of Bitvec.t  (** Width-annotated literal, e.g. [32'd42]. *)
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
(** Raised with a message that starts with the line and column of the
    offending token or comment ([line 3:14: ...]). *)

val lex : string -> token array * int array
(** Tokenize a whole source string; comments ([// …] and [/* … */]) and
    whitespace are skipped. The tokens end with {!EOF}; the second array
    holds the byte offset each token starts at (the end of the input for
    {!EOF}). *)

val line_col : string -> int -> int * int
(** The 1-based line and column of a byte offset in a source string. *)

val located : int * int -> string -> string
(** [located (line, col) msg] prefixes a message with its location, in
    the format of every Calyx lexer and parser error. *)

val token_to_string : token -> string
(** For error messages. *)
