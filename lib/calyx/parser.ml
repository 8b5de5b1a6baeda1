open Ir

exception Parse_error of string

(* The tokens, the byte offset of each, and the index of the next one;
   [pos] never moves past the closing EOF. *)
type state = {
  src : string;
  tokens : Lexer.token array;
  offsets : int array;
  mutable pos : int;
}

(* An error located at the token with index [k]. *)
let error_at st k fmt =
  Format.kasprintf
    (fun s ->
      raise
        (Parse_error (Lexer.located (Lexer.line_col st.src st.offsets.(k)) s)))
    fmt

let peek st = st.tokens.(st.pos)

let next st =
  let t = st.tokens.(st.pos) in
  if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1;
  t

let expect st tok =
  let k = st.pos in
  let got = next st in
  if got <> tok then
    error_at st k "expected %s but found %s" (Lexer.token_to_string tok)
      (Lexer.token_to_string got)

let expect_ident st =
  let k = st.pos in
  match next st with
  | Lexer.IDENT s -> s
  | t ->
      error_at st k "expected an identifier but found %s"
        (Lexer.token_to_string t)

let expect_number st =
  let k = st.pos in
  match next st with
  | Lexer.NUMBER v -> v
  | t ->
      error_at st k "expected a number but found %s" (Lexer.token_to_string t)

let expect_string st =
  let k = st.pos in
  match next st with
  | Lexer.STRING s -> s
  | t ->
      error_at st k "expected a string but found %s" (Lexer.token_to_string t)

let expect_keyword st kw =
  let k = st.pos in
  match next st with
  | Lexer.IDENT s when String.equal s kw -> ()
  | t -> error_at st k "expected %S but found %s" kw (Lexer.token_to_string t)

let accept st tok =
  if peek st = tok then begin
    ignore (next st);
    true
  end
  else false

let accept_keyword st kw =
  match peek st with
  | Lexer.IDENT s when String.equal s kw ->
      ignore (next st);
      true
  | _ -> false

(* <"key"=value, ...> *)
let parse_attrs st =
  if accept st Lexer.LANGLE then begin
    let rec go acc =
      let key = expect_string st in
      expect st Lexer.EQ;
      let value = expect_number st in
      let acc = Attrs.add key value acc in
      if accept st Lexer.COMMA then go acc
      else begin
        expect st Lexer.RANGLE;
        acc
      end
    in
    go Attrs.empty
  end
  else Attrs.empty

(* ident | ident.port | ident[hole] *)
let parse_port_ref st =
  let base = expect_ident st in
  if accept st Lexer.DOT then Cell_port (base, expect_ident st)
  else if accept st Lexer.LBRACKET then begin
    let hole = expect_ident st in
    expect st Lexer.RBRACKET;
    Hole (base, hole)
  end
  else This base

let parse_atom st =
  match peek st with
  | Lexer.LIT v ->
      ignore (next st);
      Lit v
  | Lexer.NUMBER _ ->
      error_at st st.pos
        "bare numbers are not atoms; use a sized literal like 32'd5"
  | _ -> Port (parse_port_ref st)

(* Guards: ! binds tightest, then comparisons, then &, then |. *)
let rec parse_guard st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if accept st Lexer.PIPE then Or (lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if accept st Lexer.AMP then And (lhs, parse_and st) else lhs

and parse_not st =
  if accept st Lexer.BANG then Not (parse_not st) else parse_cmp st

and parse_cmp st =
  if accept st Lexer.LPAREN then begin
    let g = parse_guard st in
    expect st Lexer.RPAREN;
    g
  end
  else
    let lhs = parse_atom st in
    let cmp op =
      ignore (next st);
      Cmp (op, lhs, parse_atom st)
    in
    match peek st with
    | Lexer.EQEQ -> cmp Eq
    | Lexer.NEQ -> cmp Neq
    | Lexer.LANGLE -> cmp Lt
    | Lexer.RANGLE -> cmp Gt
    | Lexer.LE -> cmp Le
    | Lexer.GE -> cmp Ge
    | _ -> Atom lhs

(* [k] is the index of the guard's first token. *)
let guard_as_atom st k = function
  | Atom a -> a
  | g -> error_at st k "expected an atom but found guard %a" Ir.pp_guard g

(* dst = src; | dst = guard ? src; *)
let parse_assignment st =
  let dst = parse_port_ref st in
  expect st Lexer.EQ;
  let k = st.pos in
  let e = parse_guard st in
  let assignment =
    if accept st Lexer.QUESTION then
      let src = parse_atom st in
      { dst; src; guard = e }
    else { dst; src = guard_as_atom st k e; guard = True }
  in
  expect st Lexer.SEMI;
  assignment

let parse_group st =
  (* The [group] keyword has already been consumed. *)
  let name = expect_ident st in
  let attrs = parse_attrs st in
  expect st Lexer.LBRACE;
  let rec go acc =
    if accept st Lexer.RBRACE then List.rev acc
    else go (parse_assignment st :: acc)
  in
  { group_name = name; group_attrs = attrs; assigns = go [] }

let parse_wires st =
  expect_keyword st "wires";
  expect st Lexer.LBRACE;
  let rec go groups continuous =
    if accept st Lexer.RBRACE then (List.rev groups, List.rev continuous)
    else if accept_keyword st "group" then
      go (parse_group st :: groups) continuous
    else go groups (parse_assignment st :: continuous)
  in
  go [] []

let parse_cells st =
  expect_keyword st "cells";
  expect st Lexer.LBRACE;
  let rec go acc =
    if accept st Lexer.RBRACE then List.rev acc
    else begin
      let attrs = parse_attrs st in
      let name = expect_ident st in
      expect st Lexer.EQ;
      let proto_at = st.pos in
      let proto_name = expect_ident st in
      expect st Lexer.LPAREN;
      let rec params acc =
        match peek st with
        | Lexer.RPAREN ->
            ignore (next st);
            List.rev acc
        | _ ->
            let v = expect_number st in
            if accept st Lexer.COMMA then params (v :: acc)
            else begin
              expect st Lexer.RPAREN;
              List.rev (v :: acc)
            end
      in
      let ps = params [] in
      expect st Lexer.SEMI;
      let proto =
        if Prims.find proto_name <> None then Prim (proto_name, ps)
        else if ps = [] then Comp proto_name
        else
          error_at st proto_at
            "unknown primitive %s (user components take no parameters)"
            proto_name
      in
      go ({ cell_name = name; cell_proto = proto; cell_attrs = attrs } :: acc)
    end
  in
  go []

let rec parse_control st =
  let attrs_after kw =
    ignore kw;
    parse_attrs st
  in
  if accept_keyword st "seq" then begin
    let attrs = attrs_after "seq" in
    expect st Lexer.LBRACE;
    Seq (parse_block st, attrs)
  end
  else if accept_keyword st "par" then begin
    let attrs = attrs_after "par" in
    expect st Lexer.LBRACE;
    Par (parse_block st, attrs)
  end
  else if accept_keyword st "if" then begin
    let attrs = attrs_after "if" in
    let cond_port = parse_port_ref st in
    let cond_group =
      if accept_keyword st "with" then Some (expect_ident st) else None
    in
    expect st Lexer.LBRACE;
    let tbranch = parse_stmts st in
    let fbranch =
      if accept_keyword st "else" then begin
        expect st Lexer.LBRACE;
        parse_stmts st
      end
      else Empty
    in
    If { cond_port; cond_group; tbranch; fbranch; if_attrs = attrs }
  end
  else if accept_keyword st "invoke" then begin
    let attrs = parse_attrs st in
    let cell = expect_ident st in
    expect st Lexer.LPAREN;
    let rec args acc =
      match peek st with
      | Lexer.RPAREN ->
          ignore (next st);
          List.rev acc
      | _ ->
          let p = expect_ident st in
          expect st Lexer.EQ;
          let a = parse_atom st in
          if accept st Lexer.COMMA then args ((p, a) :: acc)
          else begin
            expect st Lexer.RPAREN;
            List.rev ((p, a) :: acc)
          end
    in
    let invoke_inputs = args [] in
    (* Optional second binding list: output port -> destination port. *)
    let invoke_outputs =
      if accept st Lexer.LPAREN then begin
        let rec outs acc =
          match peek st with
          | Lexer.RPAREN ->
              ignore (next st);
              List.rev acc
          | _ ->
              let p = expect_ident st in
              expect st Lexer.EQ;
              let dst = parse_port_ref st in
              if accept st Lexer.COMMA then outs ((p, dst) :: acc)
              else begin
                expect st Lexer.RPAREN;
                List.rev ((p, dst) :: acc)
              end
        in
        outs []
      end
      else []
    in
    ignore (accept st Lexer.SEMI);
    Invoke { cell; invoke_inputs; invoke_outputs; invoke_attrs = attrs }
  end
  else if accept_keyword st "while" then begin
    let attrs = attrs_after "while" in
    let cond_port = parse_port_ref st in
    let cond_group =
      if accept_keyword st "with" then Some (expect_ident st) else None
    in
    expect st Lexer.LBRACE;
    let body = parse_stmts st in
    While { cond_port; cond_group; body; while_attrs = attrs }
  end
  else begin
    let name = expect_ident st in
    let attrs = parse_attrs st in
    let c = Enable (name, attrs) in
    ignore (accept st Lexer.SEMI);
    c
  end

(* Statements up to a closing brace; one statement stays bare, several
   become an implicit seq. *)
and parse_stmts st =
  match parse_block st with
  | [] -> Empty
  | [ c ] -> c
  | cs -> Seq (cs, Attrs.empty)

and parse_block st =
  let rec go acc =
    if accept st Lexer.RBRACE then List.rev acc
    else begin
      let c = parse_control st in
      ignore (accept st Lexer.SEMI);
      go (c :: acc)
    end
  in
  go []

let parse_port_defs st dir =
  expect st Lexer.LPAREN;
  let rec go acc =
    match peek st with
    | Lexer.RPAREN ->
        ignore (next st);
        List.rev acc
    | _ ->
        let attrs = parse_attrs st in
        let name = expect_ident st in
        expect st Lexer.COLON;
        let width = expect_number st in
        let pd = { pd_name = name; pd_width = width; pd_dir = dir; pd_attrs = attrs } in
        if accept st Lexer.COMMA then go (pd :: acc)
        else begin
          expect st Lexer.RPAREN;
          List.rev (pd :: acc)
        end
  in
  go []

let interface_attrs inputs outputs =
  (* Tag the calling-convention ports so later passes can find them even in
     hand-written sources that omit the attributes. *)
  let tag key pd =
    if String.equal pd.pd_name key && not (Attrs.mem key pd.pd_attrs) then
      { pd with pd_attrs = Attrs.add key 1 pd.pd_attrs }
    else pd
  in
  (List.map (tag "go") inputs, List.map (tag "done") outputs)

let parse_signature st =
  let name = expect_ident st in
  let attrs = parse_attrs st in
  let inputs = parse_port_defs st Input in
  expect st Lexer.ARROW;
  let outputs = parse_port_defs st Output in
  let inputs, outputs = interface_attrs inputs outputs in
  (name, attrs, inputs, outputs)

let parse_component st =
  expect_keyword st "component";
  let name, attrs, inputs, outputs = parse_signature st in
  expect st Lexer.LBRACE;
  let cells = parse_cells st in
  let groups, continuous = parse_wires st in
  expect_keyword st "control";
  expect st Lexer.LBRACE;
  let control = parse_stmts st in
  expect st Lexer.RBRACE;
  {
    comp_name = name;
    inputs;
    outputs;
    cells;
    groups;
    continuous;
    control;
    comp_attrs = attrs;
    is_extern = None;
  }

let parse_extern st =
  let path = expect_string st in
  expect st Lexer.LBRACE;
  let rec go acc =
    if accept st Lexer.RBRACE then List.rev acc
    else begin
      expect_keyword st "component";
      let name, attrs, inputs, outputs = parse_signature st in
      expect st Lexer.SEMI;
      let comp =
        {
          comp_name = name;
          inputs;
          outputs;
          cells = [];
          groups = [];
          continuous = [];
          control = Empty;
          comp_attrs = attrs;
          is_extern = Some path;
        }
      in
      go (comp :: acc)
    end
  in
  go []

let parse_context st entrypoint =
  let rec go acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | Lexer.IDENT "extern" ->
        ignore (next st);
        go (List.rev_append (parse_extern st) acc)
    | Lexer.IDENT "import" ->
        (* import "path"; is accepted and ignored (we have no file system
           search path; the standard library is built in). *)
        ignore (next st);
        ignore (expect_string st);
        ignore (accept st Lexer.SEMI);
        go acc
    | _ -> go (parse_component st :: acc)
  in
  { components = go []; entrypoint }

let parse_string ?(entrypoint = "main") src =
  let tokens, offsets = Lexer.lex src in
  let st = { src; tokens; offsets; pos = 0 } in
  parse_context st entrypoint

let parse_file ?entrypoint path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse_string ?entrypoint src
