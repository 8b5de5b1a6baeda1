module SM = Ir.String_map

let bits = Sys.int_size

(* Nodes are interned to dense ids in first-add order. Conflicts are kept
   as given, cliques and cross products of node sets; no adjacency is
   built. *)
type t = {
  ids : (string, int) Hashtbl.t;
  mutable cliques : Intset.t list;
  mutable crosses : Intset.t list list;
}

let create () = { ids = Hashtbl.create 64; cliques = []; crosses = [] }

let node g n =
  match Hashtbl.find_opt g.ids n with
  | Some i -> i
  | None ->
      let i = Hashtbl.length g.ids in
      Hashtbl.replace g.ids n i;
      i

let add_node g n = ignore (node g n)

let add_clique g s = if Intset.several s then g.cliques <- s :: g.cliques

let add_edge g a b = add_clique g (Intset.of_list [ node g a; node g b ])

let add_cross g arms = g.crosses <- arms :: g.crosses

(* [table.(v)], for each node [v], is the set of nodes [u < v] that do not
   conflict with [v], as words of bits; [None] while no conflict has
   named [v] (then it is every [u < v]). Each conflict is applied to the
   members whose set is still non-empty (the [open_] bits), and cliques
   go largest first: one that holds every node closes them all at once,
   and the rest cost a scan of their words. *)
let non_neighbours g =
  let n = Hashtbl.length g.ids in
  let table = Array.make n None in
  let open_ = Array.make ((n / bits) + 1) (-1) in
  open_.(0) <- open_.(0) land lnot 1;
  let subtract v others =
    let w =
      match table.(v) with
      | Some w -> w
      | None ->
          let w =
            Array.init ((v / bits) + 1) (fun k ->
                if k < v / bits then -1 else (1 lsl (v mod bits)) - 1)
          in
          table.(v) <- Some w;
          w
    in
    Intset.iter_words
      (fun k m -> if k < Array.length w then w.(k) <- w.(k) land lnot m)
      others;
    if Array.for_all (fun x -> x = 0) w then
      open_.(v / bits) <- open_.(v / bits) land lnot (1 lsl (v mod bits))
  in
  let each_open members f =
    Intset.iter_words
      (fun k m -> Intset.iter_bits f k (m land open_.(k)))
      members
  in
  List.map (fun c -> (Intset.cardinal c, c)) g.cliques
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare b a)
  |> List.iter (fun (_, c) -> each_open c (fun v -> subtract v c));
  (* Each arm's members conflict with the union of the other arms: the
     arms before it (a running prefix) and after it (suffixes). *)
  List.iter
    (fun arms ->
      let arms = Array.of_list arms in
      let k = Array.length arms in
      let suffix = Array.make (k + 1) Intset.empty in
      for i = k - 1 downto 0 do
        suffix.(i) <- Intset.union arms.(i) suffix.(i + 1)
      done;
      let prefix = ref Intset.empty in
      Array.iteri
        (fun i arm ->
          let others = Intset.union !prefix suffix.(i + 1) in
          each_open arm (fun v -> subtract v others);
          prefix := Intset.union !prefix arm)
        arms)
    g.crosses;
  table

(* The index of the lowest set bit of a non-zero word. *)
let lowest m =
  let rec go m i =
    if m land 0xff = 0 then go (m lsr 8) (i + 8)
    else if m land 1 = 0 then go (m lsr 1) (i + 1)
    else i
  in
  go m 0

let edges g =
  let table = non_neighbours g in
  let total = ref 0 in
  Array.iteri
    (fun v -> function
      | None -> ()
      | Some w ->
          let apart = Array.fold_left (fun n x -> n + Intset.popcount x) 0 w in
          total := !total + v - apart)
    table;
  !total

(* Growable words of bits. *)
let set_bit words i =
  let k = i / bits in
  if k >= Array.length !words then begin
    let a = Array.make (max (k + 1) (2 * Array.length !words)) 0 in
    Array.blit !words 0 a 0 (Array.length !words);
    words := a
  end;
  !words.(k) <- !words.(k) lor (1 lsl (i mod bits))

(* Node [v] joins the first representative of its class, in creation
   (= id) order, all of whose members lie in [v]'s non-neighbour set;
   representatives are searched among that set's own members. A node no
   conflict names joins the class's first representative. *)
let greedy g ~cls =
  let table = non_neighbours g in
  let n = Hashtbl.length g.ids in
  let names = Array.make n "" in
  Hashtbl.iter (fun name i -> names.(i) <- name) g.ids;
  let classes = Hashtbl.create 16 in
  let rep = Array.make n 0 in
  let members = Array.init n (fun _ -> ref [||]) in
  for v = 0 to n - 1 do
    let reps =
      let c = cls names.(v) in
      match Hashtbl.find_opt classes c with
      | Some r -> r
      | None ->
          let r = ref [||] in
          Hashtbl.replace classes c r;
          r
    in
    let fits w r =
      let m = !(members.(r)) in
      (* Members are below [v]: no word of theirs lies past [w]. *)
      let len = min (Array.length m) (Array.length w) in
      let rec go k = k >= len || (m.(k) land lnot w.(k) = 0 && go (k + 1)) in
      go 0
    in
    let found =
      match table.(v) with
      | None ->
          let rec first k =
            if k >= Array.length !reps then None
            else if !reps.(k) = 0 then first (k + 1)
            else Some ((k * bits) + lowest !reps.(k))
          in
          first 0
      | Some w ->
          let rec scan k =
            if k >= Array.length w || k >= Array.length !reps then None
            else
              let rec first m =
                if m = 0 then scan (k + 1)
                else
                  let r = (k * bits) + lowest m in
                  if fits w r then Some r else first (m land (m - 1))
              in
              first (w.(k) land !reps.(k))
          in
          scan 0
    in
    match found with
    | Some r ->
        rep.(v) <- r;
        set_bit members.(r) v
    | None ->
        rep.(v) <- v;
        set_bit members.(v) v;
        set_bit reps v
  done;
  let map = ref SM.empty in
  Array.iteri (fun v name -> map := SM.add name names.(rep.(v)) !map) names;
  !map
