open Calyx

let narrow = 62
let[@inline] is_wide w = w > narrow
let[@inline] mask w = (1 lsl w) - 1
let mask64 w = if w >= 64 then -1L else Int64.pred (Int64.shift_left 1L w)

let to_bits w i x =
  if is_wide w then Bitvec.make ~width:w x else Bitvec.of_int ~width:w i

let int_of_bits w v = Int64.to_int (Bitvec.to_int64 v) land mask w
let wide_of_bits w v = Int64.logand (Bitvec.to_int64 v) (mask64 w)

type env = { ints : int array; wides : int64 array; widths : int array }

let create widths =
  let n = Array.length widths in
  {
    ints = Array.make n 0;
    wides = (if Array.exists is_wide widths then Array.make n 0L else [||]);
    widths;
  }

let get e s =
  let w = e.widths.(s) in
  if is_wide w then Bitvec.make ~width:w e.wides.(s)
  else Bitvec.of_int ~width:w e.ints.(s)

let set e s v =
  let w = e.widths.(s) in
  if is_wide w then e.wides.(s) <- wide_of_bits w v
  else e.ints.(s) <- int_of_bits w v

let is_true e s =
  if is_wide e.widths.(s) then not (Int64.equal e.wides.(s) 0L)
  else e.ints.(s) <> 0

let same a s b t =
  a.ints.(s) = b.ints.(t)
  && ((not (is_wide a.widths.(s))) || Int64.equal a.wides.(s) b.wides.(t))

let copy a s b t =
  b.ints.(t) <- a.ints.(s);
  if is_wide a.widths.(s) then b.wides.(t) <- a.wides.(s)

let clear e =
  Array.fill e.ints 0 (Array.length e.ints) 0;
  Array.fill e.wides 0 (Array.length e.wides) 0L
