let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""
let int = string_of_int
let bool b = if b then "true" else "false"
let null = "null"

let float f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> null
  | _ ->
      (* %h-style shortest form would not be JSON; %.17g always
         round-trips but is noisy, so try shorter forms first. *)
      let exact p = Printf.sprintf "%.*g" p f in
      let rec shortest p =
        if p >= 17 then exact 17
        else
          let s = exact p in
          if float_of_string s = f then s else shortest (p + 1)
      in
      shortest 6

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

(* ------------------------------------------------------------------ *)
(* Parsing (for the calyx report gate and the cover test suite)        *)
(* ------------------------------------------------------------------ *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

exception Parse_error of string

(* Raised inside the parser with the byte offset; [parse] and
   [parse_located] render the position their own way. *)
exception Failed_at of int * string

type parser_state = { src : string; mutable pos : int }

let parse_fail st fmt =
  Printf.ksprintf (fun msg -> raise (Failed_at (st.pos, msg))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> parse_fail st "expected %c, found %c" c d
  | None -> parse_fail st "expected %c, found end of input" c

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else parse_fail st "expected %s" word

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> parse_fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | None -> parse_fail st "unterminated escape"
        | Some 'u' ->
            if st.pos + 4 >= String.length st.src then
              parse_fail st "truncated \\u escape";
            let hex = String.sub st.src (st.pos + 1) 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> parse_fail st "bad \\u escape %s" hex
            in
            (* Only BMP escapes are produced by this repository's emitter;
               encode the code point as UTF-8. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
              Buffer.add_char buf
                (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
            end;
            st.pos <- st.pos + 5;
            go ()
        | Some c ->
            let decoded =
              match c with
              | '"' -> '"'
              | '\\' -> '\\'
              | '/' -> '/'
              | 'n' -> '\n'
              | 't' -> '\t'
              | 'r' -> '\r'
              | 'b' -> '\b'
              | 'f' -> '\012'
              | c -> parse_fail st "bad escape \\%c" c
            in
            Buffer.add_char buf decoded;
            st.pos <- st.pos + 1;
            go ())
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let numeric c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && numeric st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Number f
  | None -> parse_fail st "bad number %S" text

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_fail st "unexpected end of input"
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Object []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          let key = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (key, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              members ()
          | _ -> expect st '}'
        in
        members ();
        Object (List.rev !fields)
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Array []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              elements ()
          | _ -> expect st ']'
        in
        elements ();
        Array (List.rev !items)
      end
  | Some '"' -> String (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let parse_document src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then parse_fail st "trailing input";
  v

let parse src =
  try parse_document src
  with Failed_at (pos, msg) ->
    raise (Parse_error (Printf.sprintf "at offset %d: %s" pos msg))

let parse_located ~file ?(line = 1) src =
  try parse_document src
  with Failed_at (pos, msg) ->
    (* An error at the end of the input is placed on its last line of
       text, not on the empty line after a final newline. *)
    let rec back p =
      if p > 0 && String.contains " \t\r\n" src.[p - 1] then back (p - 1) else p
    in
    let pos = if pos >= String.length src then back (String.length src) else pos in
    let lines = ref line in
    String.iteri (fun i c -> if i < pos && c = '\n' then incr lines) src;
    raise (Parse_error (Printf.sprintf "%s:%d: %s" file !lines msg))

let member key = function
  | Object fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Number f -> Some f | _ -> None
let to_string = function String s -> Some s | _ -> None
let to_list = function Array items -> Some items | _ -> None
let keys = function Object fields -> List.map fst fields | _ -> []
