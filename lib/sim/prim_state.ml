open Calyx

exception Sim_error of string

let sim_error fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

(* Two-operand arithmetic, named so that the compiled engine can evaluate
   it on native ints (see [compile_step]). *)
type arith = Add | Sub | Mul | And | Or | Xor | Lsh | Rsh

type comb_kind =
  | Const of Bitvec.t
  | Wire
  | Slice of int
  | Pad of int
  | Arith of arith
  | Binop of (Bitvec.t -> Bitvec.t -> Bitvec.t)
  | Unop of (Bitvec.t -> Bitvec.t)

(* An operator's reference semantics (Bitvec's, which the fixpoint engine
   runs) and its native-int form, whose result the caller masks. A
   shift's native form takes an amount below the width. *)
let arith_fn = function
  | Add -> (Bitvec.add, ( + ))
  | Sub -> (Bitvec.sub, ( - ))
  | Mul -> (Bitvec.mul, ( * ))
  | And -> (Bitvec.logand, ( land ))
  | Or -> (Bitvec.logor, ( lor ))
  | Xor -> (Bitvec.logxor, ( lxor ))
  | Lsh -> (Bitvec.shift_left, ( lsl ))
  | Rsh -> (Bitvec.shift_right, ( lsr ))

type pipe_op =
  | Mult
  | Div
  | Sqrt

type pipe = {
  p_op : pipe_op;
  p_width : int;
  p_fixed_latency : int option;  (* None: data-dependent (sqrt) *)
  mutable p_counter : int;
  mutable p_target : int;  (* cycles for the in-flight operation *)
  mutable p_results : (string * Bitvec.t) list;
  mutable p_done : bool;
}

type mem = {
  m_width : int;
  m_dims : int list;  (* sizes per dimension *)
  m_idx : int list;  (* address widths per dimension *)
  m_data : Bitvec.t array;  (* row-major *)
  mutable m_done : bool;
}

type custom = {
  c_outputs : (string -> Bitvec.t) -> (string * Bitvec.t) list;
  c_commit : (string -> Bitvec.t) -> unit;
  c_reset : unit -> unit;
}

type t =
  | Comb of comb_kind
  | Reg of { r_width : int; mutable r_value : Bitvec.t; mutable r_done : bool }
  | Mem of mem
  | Pipe of pipe
  | Custom of custom

let isqrt v =
  if Int64.compare v 0L < 0 then sim_error "isqrt of negative value"
  else begin
    (* Newton iteration on Int64; inputs are < 2^63 here. *)
    let rec go x =
      let x' = Int64.div (Int64.add x (Int64.div v x)) 2L in
      if Int64.compare x' x >= 0 then x else go x'
    in
    if Int64.compare v 2L < 0 then v
    else
      let guess = Int64.of_float (Float.sqrt (Int64.to_float v) +. 2.0) in
      go (Int64.max guess 1L)
  end

let create name params =
  match (name, params) with
  | "std_reg", [ w ] -> Reg { r_width = w; r_value = Bitvec.zero w; r_done = false }
  | "std_const", [ w; v ] -> Comb (Const (Bitvec.of_int ~width:w v))
  | "std_wire", [ _ ] -> Comb Wire
  | "std_slice", [ _; ow ] -> Comb (Slice ow)
  | "std_pad", [ _; ow ] -> Comb (Pad ow)
  | "std_add", [ _ ] -> Comb (Arith Add)
  | "std_sub", [ _ ] -> Comb (Arith Sub)
  | "std_and", [ _ ] -> Comb (Arith And)
  | "std_or", [ _ ] -> Comb (Arith Or)
  | "std_xor", [ _ ] -> Comb (Arith Xor)
  | "std_not", [ _ ] -> Comb (Unop Bitvec.lognot)
  | "std_lsh", [ _ ] -> Comb (Arith Lsh)
  | "std_rsh", [ _ ] -> Comb (Arith Rsh)
  | "std_mult", [ _ ] -> Comb (Arith Mul)
  | "std_lt", [ _ ] -> Comb (Binop Bitvec.lt)
  | "std_gt", [ _ ] -> Comb (Binop Bitvec.gt)
  | "std_eq", [ _ ] -> Comb (Binop Bitvec.eq)
  | "std_neq", [ _ ] -> Comb (Binop Bitvec.neq)
  | "std_le", [ _ ] -> Comb (Binop Bitvec.le)
  | "std_ge", [ _ ] -> Comb (Binop Bitvec.ge)
  | "std_mem_d1", [ w; size; idx ] ->
      Mem
        {
          m_width = w;
          m_dims = [ size ];
          m_idx = [ idx ];
          m_data = Array.make size (Bitvec.zero w);
          m_done = false;
        }
  | "std_mem_d2", [ w; d0; d1; i0; i1 ] ->
      Mem
        {
          m_width = w;
          m_dims = [ d0; d1 ];
          m_idx = [ i0; i1 ];
          m_data = Array.make (d0 * d1) (Bitvec.zero w);
          m_done = false;
        }
  | "std_mult_pipe", [ w ] ->
      Pipe
        {
          p_op = Mult;
          p_width = w;
          p_fixed_latency = Some Calyx.Prims.mult_latency;
          p_counter = 0;
          p_target = 0;
          p_results = [];
          p_done = false;
        }
  | "std_div_pipe", [ w ] ->
      Pipe
        {
          p_op = Div;
          p_width = w;
          p_fixed_latency = Some Calyx.Prims.div_latency;
          p_counter = 0;
          p_target = 0;
          p_results = [];
          p_done = false;
        }
  | "std_sqrt", [ w ] ->
      Pipe
        {
          p_op = Sqrt;
          p_width = w;
          p_fixed_latency = None;
          p_counter = 0;
          p_target = 0;
          p_results = [];
          p_done = false;
        }
  | _ ->
      (* Validate the name so unknown primitives raise Unknown_primitive and
         known ones with bad parameters raise Invalid_argument. *)
      ignore (Calyx.Prims.ports name params);
      sim_error "primitive %s has no behavioural model" name

let bool_bit b = if b then Bitvec.one 1 else Bitvec.zero 1

let mem_address m ~read =
  (* Flatten the (possibly multi-dimensional) address; out-of-range reads
     fall outside the array and are handled by the caller. *)
  let rec go dims idxs addr =
    match (dims, idxs) with
    | [], [] -> Some addr
    | d :: dims', i :: idxs' ->
        let v = Bitvec.to_int (read (Printf.sprintf "addr%d" i)) in
        if v >= d then None else go dims' idxs' ((addr * d) + v)
    | _ -> assert false
  in
  let positions = List.mapi (fun i _ -> i) m.m_dims in
  go m.m_dims positions 0

let pipe_compute p ~read =
  match p.p_op with
  | Mult ->
      [ ("out", Bitvec.mul (read "left") (read "right")) ]
  | Div ->
      [
        ("out_quotient", Bitvec.div (read "left") (read "right"));
        ("out_remainder", Bitvec.rem (read "left") (read "right"));
      ]
  | Sqrt ->
      [ ("out", Bitvec.make ~width:p.p_width (isqrt (Bitvec.to_int64 (read "in")))) ]

let sqrt_cycles v =
  (* Data-dependent latency: one cycle per two significant bits, at least
     two cycles — a plausible iterative square-root unit. *)
  let rec bits n acc = if Int64.equal n 0L then acc else bits (Int64.shift_right_logical n 1) (acc + 1) in
  max 2 ((bits v 0 + 1) / 2)

let custom ~outputs ~commit ?(reset = fun () -> ()) () =
  Custom { c_outputs = outputs; c_commit = commit; c_reset = reset }

let outputs t ~read =
  match t with
  | Custom c -> c.c_outputs read
  | Comb (Const v) -> [ ("out", v) ]
  | Comb Wire -> [ ("out", read "in") ]
  | Comb (Slice ow) -> [ ("out", Bitvec.truncate (read "in") ow) ]
  | Comb (Pad ow) -> [ ("out", Bitvec.zero_extend (read "in") ow) ]
  | Comb (Arith op) ->
      [ ("out", fst (arith_fn op) (read "left") (read "right")) ]
  | Comb (Binop f) -> [ ("out", f (read "left") (read "right")) ]
  | Comb (Unop f) -> [ ("out", f (read "in")) ]
  | Reg r -> [ ("out", r.r_value); ("done", bool_bit r.r_done) ]
  | Mem m ->
      let data =
        match mem_address m ~read with
        | Some addr -> m.m_data.(addr)
        | None -> Bitvec.zero m.m_width
      in
      [ ("read_data", data); ("done", bool_bit m.m_done) ]
  | Pipe p ->
      let outs =
        match p.p_results with
        | [] -> (
            match p.p_op with
            | Mult | Sqrt -> [ ("out", Bitvec.zero p.p_width) ]
            | Div ->
                [
                  ("out_quotient", Bitvec.zero p.p_width);
                  ("out_remainder", Bitvec.zero p.p_width);
                ])
        | outs -> outs
      in
      outs @ [ ("done", bool_bit p.p_done) ]

let commit t ~read =
  match t with
  | Custom c -> c.c_commit read
  | Comb _ -> ()
  | Reg r ->
      if Bitvec.is_true (read "write_en") then begin
        r.r_value <- read "in";
        r.r_done <- true
      end
      else r.r_done <- false
  | Mem m ->
      if Bitvec.is_true (read "write_en") then begin
        (match mem_address m ~read with
        | Some addr -> m.m_data.(addr) <- read "write_data"
        | None -> ());
        m.m_done <- true
      end
      else m.m_done <- false
  | Pipe p ->
      if not (Bitvec.is_true (read "go")) then begin
        p.p_counter <- 0;
        p.p_done <- false
      end
      else if p.p_done then begin
        (* go held through the done cycle: restart. *)
        p.p_done <- false;
        p.p_counter <- 0
      end
      else begin
        (if p.p_counter = 0 then
           (* Sample the operands and fix the latency as the operation
              starts. *)
           p.p_target <-
             (match p.p_fixed_latency with
             | Some l -> l
             | None -> sqrt_cycles (Bitvec.to_int64 (read "in"))));
        p.p_counter <- p.p_counter + 1;
        if p.p_counter >= p.p_target then begin
          p.p_results <- pipe_compute p ~read;
          p.p_done <- true;
          p.p_counter <- 0
        end
      end

(* Staged evaluation for the compiled engine: every port name is
   resolved to a slot thunk/writer ONCE, at closure-build time, so the
   per-settle hot path does no string lookups and allocates nothing
   beyond the result bitvecs. Semantics mirror [outputs] and [commit]
   exactly — the differential fuzz against the fixpoint engine depends
   on it. *)

(* Native-int arithmetic for [Arith] results of up to [narrow] bits. A
   result below 256 comes from [small], like Bitvec's own interned values,
   so it costs no allocation. *)
let narrow = 62

let small =
  Array.init narrow (fun wi ->
      Array.init 256 (fun v -> Bitvec.of_int ~width:(wi + 1) v))

let[@inline] ival x = Int64.to_int (Bitvec.to_int64 x)
let[@inline] nmask w = (1 lsl w) - 1

(* A [w]-bit value already masked to [w] bits. *)
let native w v = if v < 256 then small.(w - 1).(v) else Bitvec.of_int ~width:w v

(* Bitvec's shift amount: 64 stands for any amount of 64 or more. *)
let shift_amount s =
  let v = Bitvec.to_int64 s in
  if Int64.unsigned_compare v 64L >= 0 then 64 else Int64.to_int v

(* The flat element index the address ports select, or -1 when one of
   them is out of range. *)
let staged_mem_address m ~read =
  let dims = Array.of_list m.m_dims in
  let thunks =
    Array.of_list
      (List.mapi (fun i _ -> read (Printf.sprintf "addr%d" i)) m.m_dims)
  in
  let n = Array.length dims in
  fun () ->
    let addr = ref 0 and i = ref 0 in
    while !i < n do
      let v = Bitvec.to_int (thunks.(!i) ()) in
      if v >= dims.(!i) then begin
        addr := -1;
        i := n
      end
      else begin
        addr := (!addr * dims.(!i)) + v;
        incr i
      end
    done;
    !addr

let t1 = Bitvec.one 1
let f1 = Bitvec.zero 1

let compile_step t ~read ~write =
  let w name = match write name with Some f -> f | None -> fun _ -> () in
  match t with
  | Comb (Const v) ->
      let out = w "out" in
      fun () -> out v
  | Comb Wire ->
      let out = w "out" and vin = read "in" in
      fun () -> out (vin ())
  | Comb (Slice ow) ->
      let out = w "out" and vin = read "in" in
      fun () -> out (Bitvec.truncate (vin ()) ow)
  | Comb (Pad ow) ->
      let out = w "out" and vin = read "in" in
      fun () -> out (Bitvec.zero_extend (vin ()) ow)
  | Comb (Arith op) ->
      let out = w "out" and l = read "left" and r = read "right" in
      let slow, f = arith_fn op in
      let shift = op = Lsh || op = Rsh in
      (* Operands of up to [narrow] bits compute on native ints; anything
         else, the width error included, takes Bitvec's operator. *)
      fun () ->
        let a = l () and b = r () in
        let w = Bitvec.width a in
        if w > narrow then out (slow a b)
        else if shift then
          let n = shift_amount b in
          out (native w (if n >= w then 0 else f (ival a) n land nmask w))
        else if w <> Bitvec.width b then out (slow a b)
        else out (native w (f (ival a) (ival b) land nmask w))
  | Comb (Binop f) ->
      let out = w "out" and l = read "left" and r = read "right" in
      fun () -> out (f (l ()) (r ()))
  | Comb (Unop f) ->
      let out = w "out" and vin = read "in" in
      fun () -> out (f (vin ()))
  | Reg r ->
      let out = w "out" and dn = w "done" in
      fun () ->
        out r.r_value;
        dn (if r.r_done then t1 else f1)
  | Mem m ->
      let rd = w "read_data" and dn = w "done" in
      let zero = Bitvec.zero m.m_width in
      let addr = staged_mem_address m ~read in
      fun () ->
        (let a = addr () in
         rd (if a < 0 then zero else m.m_data.(a)));
        dn (if m.m_done then t1 else f1)
  | Pipe p -> (
      let dn = w "done" in
      let zero = Bitvec.zero p.p_width in
      match p.p_op with
      | Mult | Sqrt ->
          let out = w "out" in
          fun () ->
            (match p.p_results with
            | (_, v) :: _ -> out v
            | [] -> out zero);
            dn (if p.p_done then t1 else f1)
      | Div ->
          let q = w "out_quotient" and r = w "out_remainder" in
          fun () ->
            (match p.p_results with
            | [ (_, qv); (_, rv) ] ->
                q qv;
                r rv
            | _ ->
                q zero;
                r zero);
            dn (if p.p_done then t1 else f1))
  | Custom c ->
      (* Custom models read and write by name at runtime; stage lazily so
         their behaviour (including errors on unknown ports) is
         unchanged. *)
      fun () ->
        let rd name = (read name) () in
        List.iter (fun (pname, v) -> (w pname) v) (c.c_outputs rd)

(* What a staged clock edge reports, as a bit set. *)
let edge_changed = 1
let edge_again = 2

let compile_commit t ~read =
  match t with
  | Comb _ -> None
  | Custom c ->
      Some
        (fun () ->
          c.c_commit (fun name -> (read name) ());
          edge_changed lor edge_again)
  | Reg r ->
      let we = read "write_en" and vin = read "in" in
      Some
        (fun () ->
          if Bitvec.is_true (we ()) then begin
            let v = vin () in
            let changed = (not r.r_done) || not (Bitvec.equal r.r_value v) in
            r.r_value <- v;
            r.r_done <- true;
            if changed then edge_changed else 0
          end
          else begin
            let changed = r.r_done in
            r.r_done <- false;
            if changed then edge_changed else 0
          end)
  | Mem m ->
      let we = read "write_en" and wd = read "write_data" in
      let addr = staged_mem_address m ~read in
      Some
        (fun () ->
          if Bitvec.is_true (we ()) then begin
            (let a = addr () in
             if a >= 0 then m.m_data.(a) <- wd ());
            m.m_done <- true;
            edge_changed
          end
          else begin
            let changed = m.m_done in
            m.m_done <- false;
            if changed then edge_changed else 0
          end)
  | Pipe p ->
      let go = read "go" in
      let compute, target =
        match p.p_op with
        | Mult ->
            let l = read "left" and r = read "right" in
            ( (fun () -> [ ("out", Bitvec.mul (l ()) (r ())) ]),
              fun () -> Option.get p.p_fixed_latency )
        | Div ->
            let l = read "left" and r = read "right" in
            ( (fun () ->
                let lv = l () and rv = r () in
                [
                  ("out_quotient", Bitvec.div lv rv);
                  ("out_remainder", Bitvec.rem lv rv);
                ]),
              fun () -> Option.get p.p_fixed_latency )
        | Sqrt ->
            let i = read "in" in
            ( (fun () ->
                [
                  ( "out",
                    Bitvec.make ~width:p.p_width
                      (isqrt (Bitvec.to_int64 (i ()))) );
                ]),
              fun () ->
                match p.p_fixed_latency with
                | Some l -> l
                | None -> sqrt_cycles (Bitvec.to_int64 (i ())) )
      in
      Some
        (fun () ->
          let was_done = p.p_done and was_results = p.p_results in
          (* With go low the edge clears the unit, which is idempotent;
             with go high it counts, so the next edge must run too. *)
          let again =
            if not (Bitvec.is_true (go ())) then begin
              p.p_counter <- 0;
              p.p_done <- false;
              0
            end
            else if p.p_done then begin
              (* go held through the done cycle: restart. *)
              p.p_done <- false;
              p.p_counter <- 0;
              edge_again
            end
            else begin
              if p.p_counter = 0 then p.p_target <- target ();
              p.p_counter <- p.p_counter + 1;
              if p.p_counter >= p.p_target then begin
                p.p_results <- compute ();
                p.p_done <- true;
                p.p_counter <- 0
              end;
              edge_again
            end
          in
          if p.p_done <> was_done || p.p_results != was_results then
            again lor edge_changed
          else again)

let reset = function
  | Custom c -> c.c_reset ()
  | Comb _ -> ()
  | Reg r -> r.r_done <- false
  | Mem m -> m.m_done <- false
  | Pipe p ->
      p.p_counter <- 0;
      p.p_done <- false;
      p.p_results <- []

let get_register = function
  | Reg r -> r.r_value
  | _ -> sim_error "not a register"

let set_register t v =
  match t with
  | Reg r ->
      if Bitvec.width v <> r.r_width then
        sim_error "register width mismatch: %d vs %d" (Bitvec.width v) r.r_width;
      r.r_value <- v
  | _ -> sim_error "not a register"

let get_memory = function
  | Mem m -> Array.copy m.m_data
  | _ -> sim_error "not a memory"

let set_memory t data =
  match t with
  | Mem m ->
      if Array.length data <> Array.length m.m_data then
        sim_error "memory size mismatch: %d vs %d" (Array.length data)
          (Array.length m.m_data);
      Array.iteri
        (fun i v ->
          if Bitvec.width v <> m.m_width then
            sim_error "memory element width mismatch at %d" i
          else m.m_data.(i) <- v)
        data
  | _ -> sim_error "not a memory"
