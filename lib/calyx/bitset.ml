(* Sets of small non-negative ints as growable arrays of [Sys.int_size]-bit
   words. Trailing zero words carry no meaning: [equal] and [hash] ignore
   them, so sets built at different capacities compare as sets. *)

let bits = Sys.int_size

type t = { mutable words : int array }

let create () = { words = [||] }
let copy s = { words = Array.copy s.words }

let ensure s n =
  let len = Array.length s.words in
  if n > len then begin
    let words = Array.make (max n (2 * len)) 0 in
    Array.blit s.words 0 words 0 len;
    s.words <- words
  end

let add s i =
  let w = i / bits in
  ensure s (w + 1);
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits))

let remove s i =
  let w = i / bits in
  if w < Array.length s.words then
    s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod bits))

let mem s i =
  let w = i / bits in
  w < Array.length s.words && s.words.(w) land (1 lsl (i mod bits)) <> 0

let of_list l =
  let s = create () in
  List.iter (add s) l;
  s

let union_into ~into s =
  let n = Array.length s.words in
  ensure into n;
  for w = 0 to n - 1 do
    into.words.(w) <- into.words.(w) lor s.words.(w)
  done

let union a b =
  let long, short =
    if Array.length a.words >= Array.length b.words then (a, b) else (b, a)
  in
  let s = copy long in
  union_into ~into:s short;
  s

let diff a b =
  let s = copy a in
  for w = 0 to min (Array.length a.words) (Array.length b.words) - 1 do
    s.words.(w) <- s.words.(w) land lnot b.words.(w)
  done;
  s

let disjoint a b =
  let n = min (Array.length a.words) (Array.length b.words) in
  let rec go w = w >= n || (a.words.(w) land b.words.(w) = 0 && go (w + 1)) in
  go 0

(* Length without trailing zero words. *)
let used s =
  let rec go n = if n > 0 && s.words.(n - 1) = 0 then go (n - 1) else n in
  go (Array.length s.words)

let equal a b =
  let n = used a in
  n = used b
  &&
  let rec go w = w >= n || (a.words.(w) = b.words.(w) && go (w + 1)) in
  go 0

let hash s =
  let h = ref 0 in
  for w = 0 to used s - 1 do
    h := (!h * 65599) + s.words.(w)
  done;
  !h land max_int

let iter f s =
  Array.iteri
    (fun w word ->
      if word <> 0 then
        for b = 0 to bits - 1 do
          if word land (1 lsl b) <> 0 then f ((w * bits) + b)
        done)
    s.words

let cardinal s =
  let rec pop n w = if w = 0 then n else pop (n + 1) (w land (w - 1)) in
  Array.fold_left pop 0 s.words
