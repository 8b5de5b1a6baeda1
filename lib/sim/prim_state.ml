open Calyx

exception Sim_error of string

let sim_error fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

(* Two-operand arithmetic and comparison, named so that each engine can
   evaluate them its own way: the fixpoint engine on Bitvec, the
   compiled engine on native ints (see [compile_step]). *)
type arith = Add | Sub | Mul | And | Or | Xor | Lsh | Rsh
type cmp = Lt | Gt | Eq | Neq | Le | Ge

type comb_kind =
  | Const of Bitvec.t
  | Wire
  | Slice of int
  | Pad of int
  | Arith of arith
  | Compare of cmp
  | Not

let arith_bits = function
  | Add -> Bitvec.add
  | Sub -> Bitvec.sub
  | Mul -> Bitvec.mul
  | And -> Bitvec.logand
  | Or -> Bitvec.logor
  | Xor -> Bitvec.logxor
  | Lsh -> Bitvec.shift_left
  | Rsh -> Bitvec.shift_right

let cmp_bits = function
  | Lt -> Bitvec.lt
  | Gt -> Bitvec.gt
  | Eq -> Bitvec.eq
  | Neq -> Bitvec.neq
  | Le -> Bitvec.le
  | Ge -> Bitvec.ge

type pipe_op =
  | Mult
  | Div
  | Sqrt

(* Stored values are kept as a slot stores them (Slot): a native int up
   to [Slot.narrow] bits, an int64 above; the other field stays zero. *)
type pipe = {
  p_op : pipe_op;
  p_width : int;
  p_fixed_latency : int option;  (* None: data-dependent (sqrt) *)
  mutable p_counter : int;
  mutable p_target : int;  (* cycles for the in-flight operation *)
  mutable p_out : int;  (* the result (the quotient of a division) *)
  mutable p_rem : int;  (* a division's remainder *)
  mutable p_wout : int64;
  mutable p_wrem : int64;
  mutable p_done : bool;
}

type mem = {
  m_width : int;
  m_dims : int array;  (* sizes per dimension *)
  m_ints : int array;  (* row-major; [||] when the elements are wide *)
  m_wides : int64 array;  (* row-major; [||] when they are narrow *)
  mutable m_done : bool;
}

type reg = {
  r_width : int;
  mutable r_int : int;
  mutable r_wide : int64;
  mutable r_done : bool;
}

type t =
  | Comb of comb_kind
  | Reg of reg
  | Mem of mem
  | Pipe of pipe

let rec isqrt v =
  if Int64.compare v 0L < 0 then
    (* Unsigned [v] >= 2^63: the root is 2r or 2r + 1 for r the root of
       v / 4, and (2r + 1)^2 < 2^64. *)
    let s = Int64.shift_left (isqrt (Int64.shift_right_logical v 2)) 1 in
    let s1 = Int64.succ s in
    if Int64.unsigned_compare (Int64.mul s1 s1) v <= 0 then s1 else s
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

let mem w dims =
  let size = Array.fold_left ( * ) 1 dims in
  let wide = Slot.is_wide w in
  Mem
    {
      m_width = w;
      m_dims = dims;
      m_ints = (if wide then [||] else Array.make size 0);
      m_wides = (if wide then Array.make size 0L else [||]);
      m_done = false;
    }

let pipe op w latency =
  Pipe
    {
      p_op = op;
      p_width = w;
      p_fixed_latency = latency;
      p_counter = 0;
      p_target = 0;
      p_out = 0;
      p_rem = 0;
      p_wout = 0L;
      p_wrem = 0L;
      p_done = false;
    }

let create name params =
  match (name, params) with
  | "std_reg", [ w ] ->
      Reg { r_width = w; r_int = 0; r_wide = 0L; r_done = false }
  | "std_const", [ w; v ] -> Comb (Const (Bitvec.of_int ~width:w v))
  | "std_wire", [ _ ] -> Comb Wire
  | "std_slice", [ _; ow ] -> Comb (Slice ow)
  | "std_pad", [ _; ow ] -> Comb (Pad ow)
  | "std_add", [ _ ] -> Comb (Arith Add)
  | "std_sub", [ _ ] -> Comb (Arith Sub)
  | "std_and", [ _ ] -> Comb (Arith And)
  | "std_or", [ _ ] -> Comb (Arith Or)
  | "std_xor", [ _ ] -> Comb (Arith Xor)
  | "std_not", [ _ ] -> Comb Not
  | "std_lsh", [ _ ] -> Comb (Arith Lsh)
  | "std_rsh", [ _ ] -> Comb (Arith Rsh)
  | "std_mult", [ _ ] -> Comb (Arith Mul)
  | "std_lt", [ _ ] -> Comb (Compare Lt)
  | "std_gt", [ _ ] -> Comb (Compare Gt)
  | "std_eq", [ _ ] -> Comb (Compare Eq)
  | "std_neq", [ _ ] -> Comb (Compare Neq)
  | "std_le", [ _ ] -> Comb (Compare Le)
  | "std_ge", [ _ ] -> Comb (Compare Ge)
  | "std_mem_d1", [ w; size; _ ] -> mem w [| size |]
  | "std_mem_d2", [ w; d0; d1; _; _ ] -> mem w [| d0; d1 |]
  | "std_mult_pipe", [ w ] -> pipe Mult w (Some Calyx.Prims.mult_latency)
  | "std_div_pipe", [ w ] -> pipe Div w (Some Calyx.Prims.div_latency)
  | "std_sqrt", [ w ] -> pipe Sqrt w None
  | _ ->
      (* Validate the name so unknown primitives raise Unknown_primitive and
         known ones with bad parameters raise Invalid_argument. *)
      ignore (Calyx.Prims.ports name params);
      sim_error "primitive %s has no behavioural model" name

(* ------------------------------------------------------------------ *)
(* The reference model: Bitvec in, Bitvec out (the fixpoint engine)    *)
(* ------------------------------------------------------------------ *)

let bool_bit b = if b then Bitvec.one 1 else Bitvec.zero 1
let addr_name i = "addr" ^ string_of_int i

let mem_address m ~read =
  (* Flatten the (possibly multi-dimensional) address; out-of-range reads
     fall outside the array and are handled by the caller. *)
  let rec go i addr =
    if i = Array.length m.m_dims then Some addr
    else
      let d = m.m_dims.(i) in
      let v = Bitvec.to_int (read (addr_name i)) in
      if v >= d then None else go (i + 1) ((addr * d) + v)
  in
  go 0 0

let mem_get m a =
  if Slot.is_wide m.m_width then Bitvec.make ~width:m.m_width m.m_wides.(a)
  else Bitvec.of_int ~width:m.m_width m.m_ints.(a)

let mem_set m a v =
  if Slot.is_wide m.m_width then m.m_wides.(a) <- Slot.wide_of_bits m.m_width v
  else m.m_ints.(a) <- Slot.int_of_bits m.m_width v

let reg_get r = Slot.to_bits r.r_width r.r_int r.r_wide

let reg_set r v =
  if Slot.is_wide r.r_width then r.r_wide <- Slot.wide_of_bits r.r_width v
  else r.r_int <- Slot.int_of_bits r.r_width v

let pipe_out p = Slot.to_bits p.p_width p.p_out p.p_wout
let pipe_rem p = Slot.to_bits p.p_width p.p_rem p.p_wrem

let pipe_store p out rem =
  let w = p.p_width in
  if Slot.is_wide w then begin
    p.p_wout <- Slot.wide_of_bits w out;
    p.p_wrem <- Slot.wide_of_bits w rem
  end
  else begin
    p.p_out <- Slot.int_of_bits w out;
    p.p_rem <- Slot.int_of_bits w rem
  end

let pipe_compute p ~read =
  match p.p_op with
  | Mult ->
      pipe_store p
        (Bitvec.mul (read "left") (read "right"))
        (Bitvec.zero p.p_width)
  | Div ->
      let l = read "left" and r = read "right" in
      pipe_store p (Bitvec.div l r) (Bitvec.rem l r)
  | Sqrt ->
      pipe_store p
        (Bitvec.make ~width:p.p_width (isqrt (Bitvec.to_int64 (read "in"))))
        (Bitvec.zero p.p_width)

let sqrt_cycles v =
  (* Data-dependent latency: one cycle per two significant bits, at least
     two cycles — a plausible iterative square-root unit. *)
  let rec bits n acc = if Int64.equal n 0L then acc else bits (Int64.shift_right_logical n 1) (acc + 1) in
  max 2 ((bits v 0 + 1) / 2)

let outputs t ~read =
  match t with
  | Comb (Const v) -> [ ("out", v) ]
  | Comb Wire -> [ ("out", read "in") ]
  | Comb (Slice ow) -> [ ("out", Bitvec.truncate (read "in") ow) ]
  | Comb (Pad ow) -> [ ("out", Bitvec.zero_extend (read "in") ow) ]
  | Comb (Arith op) -> [ ("out", arith_bits op (read "left") (read "right")) ]
  | Comb (Compare op) -> [ ("out", cmp_bits op (read "left") (read "right")) ]
  | Comb Not -> [ ("out", Bitvec.lognot (read "in")) ]
  | Reg r -> [ ("out", reg_get r); ("done", bool_bit r.r_done) ]
  | Mem m ->
      let data =
        match mem_address m ~read with
        | Some addr -> mem_get m addr
        | None -> Bitvec.zero m.m_width
      in
      [ ("read_data", data); ("done", bool_bit m.m_done) ]
  | Pipe p ->
      let outs =
        match p.p_op with
        | Mult | Sqrt -> [ ("out", pipe_out p) ]
        | Div -> [ ("out_quotient", pipe_out p); ("out_remainder", pipe_rem p) ]
      in
      outs @ [ ("done", bool_bit p.p_done) ]

let commit t ~read =
  match t with
  | Comb _ -> ()
  | Reg r ->
      if Bitvec.is_true (read "write_en") then begin
        reg_set r (read "in");
        r.r_done <- true
      end
      else r.r_done <- false
  | Mem m ->
      if Bitvec.is_true (read "write_en") then begin
        (match mem_address m ~read with
        | Some addr -> mem_set m addr (read "write_data")
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
          pipe_compute p ~read;
          p.p_done <- true;
          p.p_counter <- 0
        end
      end

(* ------------------------------------------------------------------ *)
(* The staged model: slots in, slots out (the compiled engine)         *)
(* ------------------------------------------------------------------ *)

(* Every port name is resolved to its slot ONCE, at closure-build time,
   so the per-settle hot path does no string lookups and no allocation.
   The compiled engine runs only designs whose slots are all narrow
   (Sim.create), so every port here is a native int. The arithmetic is
   this section's own; its semantics mirror [outputs] and [commit]
   exactly — the differential fuzz against the fixpoint engine depends
   on it. *)

type ports = {
  env : Slot.env;
  input : string -> int;
  output : string -> int;
  write : int -> int -> unit;
}

let width p s = p.env.Slot.widths.(s)

(* The writer of an output, which drops the value if the port has no
   slot. *)
let out p name = match p.output name with s when s >= 0 -> p.write s | _ -> ignore

let bit b = if b then 1 else 0

(* Native-int arithmetic of [w]-bit operands, [w <= Slot.narrow]: values
   are non-negative, so signed compares and [/] are the unsigned ones. *)
let narrow_arith op w o a l r =
  let m = Slot.mask w in
  match op with
  | Add -> fun () -> o ((a.(l) + a.(r)) land m)
  | Sub -> fun () -> o ((a.(l) - a.(r)) land m)
  | Mul -> fun () -> o (a.(l) * a.(r) land m)
  | And -> fun () -> o (a.(l) land a.(r))
  | Or -> fun () -> o (a.(l) lor a.(r))
  | Xor -> fun () -> o (a.(l) lxor a.(r))
  | Lsh ->
      fun () ->
        let n = a.(r) in
        o (if n >= w then 0 else (a.(l) lsl n) land m)
  | Rsh ->
      fun () ->
        let n = a.(r) in
        o (if n >= w then 0 else a.(l) lsr n)

let narrow_cmp op o (a : int array) l r =
  match op with
  | Lt -> fun () -> o (bit (a.(l) < a.(r)))
  | Gt -> fun () -> o (bit (a.(l) > a.(r)))
  | Eq -> fun () -> o (bit (a.(l) = a.(r)))
  | Neq -> fun () -> o (bit (a.(l) <> a.(r)))
  | Le -> fun () -> o (bit (a.(l) <= a.(r)))
  | Ge -> fun () -> o (bit (a.(l) >= a.(r)))

let compile_comb p kind =
  let ins =
    List.map p.input
      (match kind with
      | Arith _ | Compare _ -> [ "left"; "right" ]
      | Const _ -> []
      | Wire | Slice _ | Pad _ | Not -> [ "in" ])
  in
  let a = p.env.ints in
  let o = out p "out" in
  match (kind, ins) with
  | Const v, _ ->
      let x = Slot.int_of_bits (Bitvec.width v) v in
      fun () -> o x
  | (Wire | Pad _), [ i ] -> fun () -> o a.(i)
  | Slice ow, [ i ] ->
      let m = Slot.mask ow in
      fun () -> o (a.(i) land m)
  | Not, [ i ] ->
      let m = Slot.mask (width p i) in
      fun () -> o (lnot a.(i) land m)
  | Arith op, [ l; r ] -> narrow_arith op (width p l) o a l r
  | Compare op, [ l; r ] -> narrow_cmp op o a l r
  | _ -> assert false

(* The flat element index the address ports select, or -1 when one of
   them is out of range. *)
let staged_mem_address p m =
  let dims = m.m_dims in
  let n = Array.length dims in
  let slots = Array.init n (fun i -> p.input (addr_name i)) in
  let a = p.env.ints in
  fun () ->
    let addr = ref 0 and i = ref 0 in
    while !i < n do
      let v = a.(slots.(!i)) in
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

let compile_step t p =
  match t with
  | Comb kind -> compile_comb p kind
  | Reg r ->
      let o = out p "out" and dn = out p "done" in
      fun () ->
        o r.r_int;
        dn (bit r.r_done)
  | Mem m ->
      let rd = out p "read_data" and dn = out p "done" in
      let addr = staged_mem_address p m in
      fun () ->
        (let a = addr () in
         rd (if a < 0 then 0 else m.m_ints.(a)));
        dn (bit m.m_done)
  | Pipe pp -> (
      let dn = out p "done" in
      match pp.p_op with
      | Mult | Sqrt ->
          let o = out p "out" in
          fun () ->
            o pp.p_out;
            dn (bit pp.p_done)
      | Div ->
          let q = out p "out_quotient" and r = out p "out_remainder" in
          fun () ->
            q pp.p_out;
            r pp.p_rem;
            dn (bit pp.p_done))

(* What a staged clock edge reports, as a bit set. *)
let edge_changed = 1
let edge_again = 2

let compile_commit t p =
  let a = p.env.ints in
  match t with
  | Comb _ -> None
  | Reg r ->
      let we = p.input "write_en" and vin = p.input "in" in
      Some
        (fun () ->
          if a.(we) = 0 then begin
            let changed = r.r_done in
            r.r_done <- false;
            if changed then edge_changed else 0
          end
          else begin
            let v = a.(vin) in
            let changed = (not r.r_done) || r.r_int <> v in
            r.r_int <- v;
            r.r_done <- true;
            if changed then edge_changed else 0
          end)
  | Mem m ->
      let we = p.input "write_en" in
      let addr = staged_mem_address p m in
      let wd = p.input "write_data" in
      Some
        (fun () ->
          if a.(we) <> 0 then begin
            (let i = addr () in
             if i >= 0 then m.m_ints.(i) <- a.(wd));
            m.m_done <- true;
            edge_changed
          end
          else begin
            let changed = m.m_done in
            m.m_done <- false;
            if changed then edge_changed else 0
          end)
  | Pipe pp ->
      let go = p.input "go" in
      let compute, target =
        let fixed () = Option.get pp.p_fixed_latency in
        let m = Slot.mask pp.p_width in
        match pp.p_op with
        | Mult ->
            let l = p.input "left" and r = p.input "right" in
            ((fun () -> pp.p_out <- a.(l) * a.(r) land m), fixed)
        | Div ->
            let l = p.input "left" and r = p.input "right" in
            ( (fun () ->
                let lv = a.(l) and rv = a.(r) in
                if rv = 0 then begin
                  pp.p_out <- m;
                  pp.p_rem <- lv
                end
                else begin
                  pp.p_out <- lv / rv;
                  pp.p_rem <- lv mod rv
                end),
              fixed )
        | Sqrt ->
            let i = p.input "in" in
            ( (fun () -> pp.p_out <- Int64.to_int (isqrt (Int64.of_int a.(i)))),
              fun () ->
                match pp.p_fixed_latency with
                | Some l -> l
                | None -> sqrt_cycles (Int64.of_int a.(i)) )
      in
      Some
        (fun () ->
          let was_done = pp.p_done in
          (* With go low the edge clears the unit, which is idempotent;
             with go high it counts, so the next edge must run too. A
             result computed anew counts as a change. *)
          let again, computed =
            if a.(go) = 0 then begin
              pp.p_counter <- 0;
              pp.p_done <- false;
              (0, false)
            end
            else if pp.p_done then begin
              (* go held through the done cycle: restart. *)
              pp.p_done <- false;
              pp.p_counter <- 0;
              (edge_again, false)
            end
            else begin
              if pp.p_counter = 0 then pp.p_target <- target ();
              pp.p_counter <- pp.p_counter + 1;
              if pp.p_counter >= pp.p_target then begin
                compute ();
                pp.p_done <- true;
                pp.p_counter <- 0;
                (edge_again, true)
              end
              else (edge_again, false)
            end
          in
          if pp.p_done <> was_done || computed then again lor edge_changed
          else again)

let reset = function
  | Comb _ -> ()
  | Reg r -> r.r_done <- false
  | Mem m -> m.m_done <- false
  | Pipe p ->
      p.p_counter <- 0;
      p.p_done <- false;
      p.p_out <- 0;
      p.p_rem <- 0;
      p.p_wout <- 0L;
      p.p_wrem <- 0L

let get_register = function
  | Reg r -> reg_get r
  | _ -> sim_error "not a register"

let set_register t v =
  match t with
  | Reg r ->
      if Bitvec.width v <> r.r_width then
        sim_error "register width mismatch: %d vs %d" (Bitvec.width v) r.r_width;
      reg_set r v
  | _ -> sim_error "not a register"

let mem_length m = Array.length m.m_ints + Array.length m.m_wides

let get_memory = function
  | Mem m -> Array.init (mem_length m) (mem_get m)
  | _ -> sim_error "not a memory"

let set_memory t data =
  match t with
  | Mem m ->
      if Array.length data <> mem_length m then
        sim_error "%d values for a memory of %d elements" (Array.length data)
          (mem_length m);
      Array.iteri
        (fun i v ->
          if Bitvec.width v <> m.m_width then
            sim_error "memory element width mismatch at %d" i
          else mem_set m i v)
        data
  | _ -> sim_error "not a memory"
