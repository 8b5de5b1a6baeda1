type direction = In | Out

type prim_port = { pp_name : string; pp_width : int; pp_dir : direction }

type info = {
  prim_name : string;
  param_names : string list;
  stateful : bool;
  shareable : bool;
  latency : int option;
  combinational : bool;
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

(* A two-input, one-output combinational operator of uniform width. *)
let binop ?(out_width = fun w -> w) name =
  {
    prim_name = name;
    param_names = [ "WIDTH" ];
    stateful = false;
    shareable = true;
    latency = None;
    combinational = true;
    make_ports =
      with_params name 1 (function
        | [ w ] -> [ inp "left" w; inp "right" w; outp "out" (out_width w) ]
        | _ -> assert false);
  }

let comparison name = binop ~out_width:(fun _ -> 1) name

let unop name =
  {
    prim_name = name;
    param_names = [ "WIDTH" ];
    stateful = false;
    shareable = true;
    latency = None;
    combinational = true;
    make_ports =
      with_params name 1 (function
        | [ w ] -> [ inp "in" w; outp "out" w ]
        | _ -> assert false);
  }

let std_reg =
  {
    prim_name = "std_reg";
    param_names = [ "WIDTH" ];
    stateful = true;
    shareable = false;
    latency = Some 1;
    combinational = false;
    make_ports =
      with_params "std_reg" 1 (function
        | [ w ] -> [ inp "in" w; inp "write_en" 1; outp "out" w; outp "done" 1 ]
        | _ -> assert false);
  }

let std_const =
  {
    prim_name = "std_const";
    param_names = [ "WIDTH"; "VALUE" ];
    stateful = false;
    shareable = false;
    latency = None;
    combinational = true;
    make_ports =
      with_params "std_const" 2 (function
        | [ w; _v ] -> [ outp "out" w ]
        | _ -> assert false);
  }

let std_wire =
  { (unop "std_wire") with shareable = false }

let std_slice =
  {
    prim_name = "std_slice";
    param_names = [ "IN_WIDTH"; "OUT_WIDTH" ];
    stateful = false;
    shareable = true;
    latency = None;
    combinational = true;
    make_ports =
      with_params "std_slice" 2 (function
        | [ iw; ow ] -> [ inp "in" iw; outp "out" ow ]
        | _ -> assert false);
  }

let std_pad =
  {
    prim_name = "std_pad";
    param_names = [ "IN_WIDTH"; "OUT_WIDTH" ];
    stateful = false;
    shareable = true;
    latency = None;
    combinational = true;
    make_ports =
      with_params "std_pad" 2 (function
        | [ iw; ow ] -> [ inp "in" iw; outp "out" ow ]
        | _ -> assert false);
  }

let std_mult_pipe =
  {
    prim_name = "std_mult_pipe";
    param_names = [ "WIDTH" ];
    stateful = true;
    shareable = false;
    latency = Some mult_latency;
    combinational = false;
    make_ports =
      with_params "std_mult_pipe" 1 (function
        | [ w ] ->
            [ inp "left" w; inp "right" w; inp "go" 1; outp "out" w;
              outp "done" 1 ]
        | _ -> assert false);
  }

let std_div_pipe =
  {
    prim_name = "std_div_pipe";
    param_names = [ "WIDTH" ];
    stateful = true;
    shareable = false;
    latency = Some div_latency;
    combinational = false;
    make_ports =
      with_params "std_div_pipe" 1 (function
        | [ w ] ->
            [ inp "left" w; inp "right" w; inp "go" 1;
              outp "out_quotient" w; outp "out_remainder" w; outp "done" 1 ]
        | _ -> assert false);
  }

let std_sqrt =
  {
    prim_name = "std_sqrt";
    param_names = [ "WIDTH" ];
    stateful = true;
    shareable = false;
    latency = None (* data-dependent; the paper's mixed-latency example *);
    combinational = false;
    make_ports =
      with_params "std_sqrt" 1 (function
        | [ w ] -> [ inp "in" w; inp "go" 1; outp "out" w; outp "done" 1 ]
        | _ -> assert false);
  }

let std_mem_d1 =
  {
    prim_name = "std_mem_d1";
    param_names = [ "WIDTH"; "SIZE"; "IDX_SIZE" ];
    stateful = true;
    shareable = false;
    latency = Some 1;
    combinational = false;
    make_ports =
      with_params "std_mem_d1" 3 (function
        | [ w; _size; idx ] ->
            [ inp "addr0" idx; inp "write_data" w; inp "write_en" 1;
              outp "read_data" w; outp "done" 1 ]
        | _ -> assert false);
  }

let std_mem_d2 =
  {
    prim_name = "std_mem_d2";
    param_names = [ "WIDTH"; "D0_SIZE"; "D1_SIZE"; "D0_IDX_SIZE"; "D1_IDX_SIZE" ];
    stateful = true;
    shareable = false;
    latency = Some 1;
    combinational = false;
    make_ports =
      with_params "std_mem_d2" 5 (function
        | [ w; _d0; _d1; i0; i1 ] ->
            [ inp "addr0" i0; inp "addr1" i1; inp "write_data" w;
              inp "write_en" 1; outp "read_data" w; outp "done" 1 ]
        | _ -> assert false);
  }

let all =
  [
    std_reg;
    std_const;
    std_wire;
    std_slice;
    std_pad;
    binop "std_add";
    binop "std_sub";
    binop "std_and";
    binop "std_or";
    binop "std_xor";
    unop "std_not";
    binop "std_lsh";
    binop "std_rsh";
    binop "std_mult";
    comparison "std_lt";
    comparison "std_gt";
    comparison "std_eq";
    comparison "std_neq";
    comparison "std_le";
    comparison "std_ge";
    std_mult_pipe;
    std_div_pipe;
    std_sqrt;
    std_mem_d1;
    std_mem_d2;
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

let comb_arcs name params =
  let info = info name in
  let ports = info.make_ports params in
  let names dir =
    List.filter_map (fun p -> if p.pp_dir = dir then Some p.pp_name else None) ports
  in
  if info.combinational then
    List.concat_map (fun i -> List.map (fun o -> (i, o)) (names Out)) (names In)
  else if String.equal name "std_mem_d1" || String.equal name "std_mem_d2" then
    List.filter_map
      (fun i ->
        if String.starts_with ~prefix:"addr" i then Some (i, "read_data")
        else None)
      (names In)
  else []
