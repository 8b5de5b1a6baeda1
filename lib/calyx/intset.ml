(* Little-endian Patricia tries (Okasaki and Gill, "Fast Mergeable Integer
   Maps") keyed by word index, whose leaves hold one word of member bits.
   A set has exactly one trie, so equal sets have equal shapes; [hash] is
   computed from the shape and cached in each branch.

   Every operation returns its argument itself, not a copy, when the
   result equals it, at every level of the trie. Sets derived from one
   another therefore share all the subtrees they agree on, and the
   operations stop at the first shared subtree ([s == t]). *)

let bits = Sys.int_size

type t =
  | Empty
  | Leaf of { word : int; mask : int }
  | Branch of { prefix : int; bit : int; left : t; right : t; hash : int }

let empty = Empty

let hash = function
  | Empty -> 0
  | Leaf l -> ((l.word * 65599) + l.mask) land max_int
  | Branch b -> b.hash

(* Bits set in a word, in two 32-bit halves (a word has 63 bits). *)
let popcount m =
  let half x =
    let x = x - ((x lsr 1) land 0x55555555) in
    let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
    let x = (x + (x lsr 4)) land 0x0f0f0f0f in
    ((x * 0x01010101) land 0xffffffff) lsr 24
  in
  half (m land 0xffffffff) + half (m lsr 32)

let rec cardinal = function
  | Empty -> 0
  | Leaf l -> popcount l.mask
  | Branch b -> cardinal b.left + cardinal b.right

let several = function
  | Empty -> false
  | Leaf l -> l.mask land (l.mask - 1) <> 0
  | Branch _ -> true

let leaf word mask = if mask = 0 then Empty else Leaf { word; mask }

(* Both children non-empty. *)
let node prefix bit left right =
  Branch
    {
      prefix;
      bit;
      left;
      right;
      hash = ((hash left * 65599) + hash right + bit) land max_int;
    }

let branch prefix bit left right =
  match (left, right) with
  | Empty, t | t, Empty -> t
  | _ -> node prefix bit left right

let zero_bit k bit = k land bit = 0
let matches k prefix bit = k land (bit - 1) = prefix

(* Two subtrees whose keys disagree below both of their branching bits. *)
let join p0 t0 p1 t1 =
  let bit = (p0 lxor p1) land -(p0 lxor p1) in
  let prefix = p0 land (bit - 1) in
  if zero_bit p0 bit then node prefix bit t0 t1 else node prefix bit t1 t0

let rec find_word w = function
  | Empty -> 0
  | Leaf l -> if l.word = w then l.mask else 0
  | Branch b ->
      if not (matches w b.prefix b.bit) then 0
      else find_word w (if zero_bit w b.bit then b.left else b.right)

let rec add_word w m t =
  match t with
  | Empty -> leaf w m
  | Leaf l ->
      if l.word = w then
        let m' = l.mask lor m in
        if m' = l.mask then t else leaf w m'
      else join w (leaf w m) l.word t
  | Branch b ->
      if not (matches w b.prefix b.bit) then join w (leaf w m) b.prefix t
      else if zero_bit w b.bit then
        let l = add_word w m b.left in
        if l == b.left then t else node b.prefix b.bit l b.right
      else
        let r = add_word w m b.right in
        if r == b.right then t else node b.prefix b.bit b.left r

let add i s = add_word (i / bits) (1 lsl (i mod bits)) s
let of_list l = List.fold_left (fun s i -> add i s) Empty l

let rec remove_word w m t =
  match t with
  | Empty -> Empty
  | Leaf l ->
      if l.word <> w then t
      else
        let m' = l.mask land lnot m in
        if m' = l.mask then t else leaf w m'
  | Branch b ->
      if not (matches w b.prefix b.bit) then t
      else if zero_bit w b.bit then
        let l = remove_word w m b.left in
        if l == b.left then t else branch b.prefix b.bit l b.right
      else
        let r = remove_word w m b.right in
        if r == b.right then t else branch b.prefix b.bit b.left r

let rec union s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, u | u, Empty -> u
    | Leaf a, Leaf b when a.word = b.word ->
        let m = a.mask lor b.mask in
        if m = a.mask then s else if m = b.mask then t else leaf a.word m
    | Leaf a, _ ->
        let u = add_word a.word a.mask t in
        if u == t then t else u
    | _, Leaf b -> add_word b.word b.mask s
    | Branch a, Branch b ->
        if a.bit = b.bit && a.prefix = b.prefix then
          let l = union a.left b.left and r = union a.right b.right in
          if l == a.left && r == a.right then s
          else if l == b.left && r == b.right then t
          else node a.prefix a.bit l r
        else if a.bit < b.bit && matches b.prefix a.prefix a.bit then
          if zero_bit b.prefix a.bit then
            let l = union a.left t in
            if l == a.left then s else node a.prefix a.bit l a.right
          else
            let r = union a.right t in
            if r == a.right then s else node a.prefix a.bit a.left r
        else if b.bit < a.bit && matches a.prefix b.prefix b.bit then
          if zero_bit a.prefix b.bit then
            let l = union s b.left in
            if l == b.left then t else node b.prefix b.bit l b.right
          else
            let r = union s b.right in
            if r == b.right then t else node b.prefix b.bit b.left r
        else join a.prefix s b.prefix t

(* The members gathered word by word in a dense array spanning the words
   in use, then one path per non-zero word: no intermediate union. *)
let union_many = function
  | [] -> Empty
  | [ s ] -> s
  | sets ->
      let words = ref [||] in
      let gather w m =
        if w >= Array.length !words then begin
          let a = Array.make (max (w + 1) (2 * Array.length !words)) 0 in
          Array.blit !words 0 a 0 (Array.length !words);
          words := a
        end;
        !words.(w) <- !words.(w) lor m
      in
      let rec iter = function
        | Empty -> ()
        | Leaf l -> gather l.word l.mask
        | Branch b ->
            iter b.left;
            iter b.right
      in
      List.iter iter sets;
      let t = ref Empty in
      Array.iteri (fun w m -> if m <> 0 then t := add_word w m !t) !words;
      !t

let rec diff s t =
  if s == t then Empty
  else
    match (s, t) with
    | Empty, _ -> Empty
    | _, Empty -> s
    | Leaf a, _ ->
        let m = a.mask land lnot (find_word a.word t) in
        if m = a.mask then s else leaf a.word m
    | _, Leaf b -> remove_word b.word b.mask s
    | Branch a, Branch b ->
        if a.bit = b.bit && a.prefix = b.prefix then
          let l = diff a.left b.left and r = diff a.right b.right in
          if l == a.left && r == a.right then s else branch a.prefix a.bit l r
        else if a.bit < b.bit && matches b.prefix a.prefix a.bit then
          if zero_bit b.prefix a.bit then
            let l = diff a.left t in
            if l == a.left then s else branch a.prefix a.bit l a.right
          else
            let r = diff a.right t in
            if r == a.right then s else branch a.prefix a.bit a.left r
        else if b.bit < a.bit && matches a.prefix b.prefix b.bit then
          diff s (if zero_bit a.prefix b.bit then b.left else b.right)
        else s

let rec equal s t =
  s == t
  ||
  match (s, t) with
  | Leaf a, Leaf b -> a.word = b.word && a.mask = b.mask
  | Branch a, Branch b ->
      a.hash = b.hash && a.bit = b.bit && a.prefix = b.prefix
      && equal a.left b.left && equal a.right b.right
  | _ -> false

let rec iter_words f = function
  | Empty -> ()
  | Leaf l -> f l.word l.mask
  | Branch b ->
      iter_words f b.left;
      iter_words f b.right

let iter_bits f word mask =
  let rec go m i =
    if m <> 0 then
      if m land 0xff = 0 then go (m lsr 8) (i + 8)
      else begin
        if m land 1 <> 0 then f i;
        go (m lsr 1) (i + 1)
      end
  in
  go mask (word * bits)
