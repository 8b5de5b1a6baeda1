type direction = In | Out

type prim_port = { pp_name : string; pp_width : int; pp_dir : direction }

type kind = Register | Memory | Pipelined | Combinational

type cost =
  | Free
  | Adder
  | Ordered_compare
  | Equality
  | Bitwise
  | Shift
  | Multiplier
  | Flip_flops
  | Ram
  | Mult_pipe
  | Div_pipe
  | Sqrt_pipe

type info = {
  prim_name : string;
  param_names : string list;
  kind : kind;
  cost : cost;
  shareable : bool;
  latency : int option;
  make_ports : int list -> prim_port list;
}

exception Unknown_primitive of string

let mult_latency = 4
let div_latency = 8

let inp name w = { pp_name = name; pp_width = w; pp_dir = In }
let outp name w = { pp_name = name; pp_width = w; pp_dir = Out }

let bad_params name expected got =
  invalid_arg
    (Printf.sprintf "%s expects %d parameter(s), got %d" name expected got)

(* Every port a primitive exposes carries a bit vector, so its width must
   be one the simulator and the emitter can represent. *)
let check_widths name params ports =
  List.iter
    (fun p ->
      if p.pp_width < 1 || p.pp_width > Bitvec.max_width then
        invalid_arg
          (Printf.sprintf "%s(%s): port %s would be %d bits wide (must be 1..%d)"
             name
             (String.concat ", " (List.map string_of_int params))
             p.pp_name p.pp_width Bitvec.max_width))
    ports;
  ports

let with_params name n f params =
  if List.length params <> n then bad_params name n (List.length params)
  else check_widths name params (f params)

let prim ?(shareable = false) ?latency name kind cost param_names ports =
  {
    prim_name = name;
    param_names;
    kind;
    cost;
    shareable;
    latency;
    make_ports = with_params name (List.length param_names) ports;
  }

(* A primitive whose ports follow from its one WIDTH parameter. *)
let of_width ?shareable ?latency name kind cost ports =
  prim ?shareable ?latency name kind cost [ "WIDTH" ] (function
    | [ w ] -> ports w
    | _ -> assert false)

(* A two-input, one-output combinational operator of uniform width. *)
let binop ?(out_width = Fun.id) name cost =
  of_width ~shareable:true name Combinational cost (fun w ->
      [ inp "left" w; inp "right" w; outp "out" (out_width w) ])

let comparison = binop ~out_width:(fun _ -> 1)

let unop ?(shareable = true) name cost =
  of_width ~shareable name Combinational cost (fun w ->
      [ inp "in" w; outp "out" w ])

(* A width adapter: [fits iw ow] holds for the widths it can map
   between (a slice only narrows, a pad only widens). *)
let adapter name ~fits ~wrong_way =
  prim ~shareable:true name Combinational Free [ "IN_WIDTH"; "OUT_WIDTH" ]
    (function
    | [ iw; ow ] when fits iw ow -> [ inp "in" iw; outp "out" ow ]
    | [ iw; ow ] ->
        invalid_arg
          (Printf.sprintf "%s(%d, %d): OUT_WIDTH %d is %s than IN_WIDTH %d"
             name iw ow ow wrong_way iw)
    | _ -> assert false)

(* A go/done unit computing [outs] from [ins] over [latency] cycles. *)
let pipelined ?latency name cost ~ins ~outs =
  of_width ?latency name Pipelined cost (fun w ->
      List.map (fun p -> inp p w) ins
      @ (inp "go" 1 :: List.map (fun p -> outp p w) outs)
      @ [ outp "done" 1 ])

(* Parameters: WIDTH, one size per dimension, then one address width per
   dimension. *)
let memory name param_names =
  let dims = (List.length param_names - 1) / 2 in
  prim ~latency:1 name Memory Ram param_names (function
    | w :: sizes ->
        List.mapi
          (fun i idx -> inp ("addr" ^ string_of_int i) idx)
          (List.filteri (fun i _ -> i >= dims) sizes)
        @ [ inp "write_data" w; inp "write_en" 1; outp "read_data" w;
            outp "done" 1 ]
    | [] -> assert false)

let all =
  [
    of_width ~latency:1 "std_reg" Register Flip_flops (fun w ->
        [ inp "in" w; inp "write_en" 1; outp "out" w; outp "done" 1 ]);
    prim "std_const" Combinational Free [ "WIDTH"; "VALUE" ] (function
      | [ w; _ ] -> [ outp "out" w ]
      | _ -> assert false);
    unop ~shareable:false "std_wire" Free;
    adapter "std_slice" ~fits:( >= ) ~wrong_way:"wider";
    adapter "std_pad" ~fits:( <= ) ~wrong_way:"narrower";
    binop "std_add" Adder;
    binop "std_sub" Adder;
    binop "std_and" Bitwise;
    binop "std_or" Bitwise;
    binop "std_xor" Bitwise;
    unop "std_not" Bitwise;
    binop "std_lsh" Shift;
    binop "std_rsh" Shift;
    binop "std_mult" Multiplier;
    comparison "std_lt" Ordered_compare;
    comparison "std_gt" Ordered_compare;
    comparison "std_eq" Equality;
    comparison "std_neq" Equality;
    comparison "std_le" Ordered_compare;
    comparison "std_ge" Ordered_compare;
    pipelined ~latency:mult_latency "std_mult_pipe" Mult_pipe
      ~ins:[ "left"; "right" ] ~outs:[ "out" ];
    pipelined ~latency:div_latency "std_div_pipe" Div_pipe
      ~ins:[ "left"; "right" ] ~outs:[ "out_quotient"; "out_remainder" ];
    (* No fixed latency: the paper's data-dependent example. *)
    pipelined "std_sqrt" Sqrt_pipe ~ins:[ "in" ] ~outs:[ "out" ];
    memory "std_mem_d1" [ "WIDTH"; "SIZE"; "IDX_SIZE" ];
    memory "std_mem_d2"
      [ "WIDTH"; "D0_SIZE"; "D1_SIZE"; "D0_IDX_SIZE"; "D1_IDX_SIZE" ];
  ]

let table =
  let tbl = Hashtbl.create 37 in
  List.iter (fun i -> Hashtbl.replace tbl i.prim_name i) all;
  tbl

let find name = Hashtbl.find_opt table name

let info name =
  match find name with
  | Some i -> i
  | None -> raise (Unknown_primitive name)

let ports name params = (info name).make_ports params

let port_width name params port =
  List.find_map
    (fun p -> if String.equal p.pp_name port then Some p.pp_width else None)
    (ports name params)

let words name params =
  match ((info name).kind, params) with
  | Memory, _ :: sizes ->
      List.filteri (fun i _ -> i < List.length sizes / 2) sizes
      |> List.fold_left ( * ) 1
  | _ -> 1

let comb_arcs name params =
  let info = info name in
  let ports = info.make_ports params in
  let names dir =
    List.filter_map (fun p -> if p.pp_dir = dir then Some p.pp_name else None) ports
  in
  match info.kind with
  | Combinational ->
      List.concat_map (fun i -> List.map (fun o -> (i, o)) (names Out)) (names In)
  | Memory ->
      List.filter_map
        (fun i ->
          if String.starts_with ~prefix:"addr" i then Some (i, "read_data")
          else None)
        (names In)
  | Register | Pipelined -> []
