module SM = Ir.String_map

(* Nodes are interned to dense ids in first-add order; the adjacency of
   node [i] is the bitset [rows.(i)]. No row ever contains its own id. *)
type t = { ids : (string, int) Hashtbl.t; mutable rows : Bitset.t array }

let create () = { ids = Hashtbl.create 64; rows = [||] }

let node g n =
  match Hashtbl.find_opt g.ids n with
  | Some i -> i
  | None ->
      let i = Hashtbl.length g.ids in
      if i = Array.length g.rows then
        g.rows <-
          Array.init (max 16 (2 * i)) (fun k ->
              if k < i then g.rows.(k) else Bitset.create ());
      Hashtbl.replace g.ids n i;
      i

let add_node g n = ignore (node g n)

let connect g i s =
  Bitset.union_into ~into:g.rows.(i) s;
  Bitset.remove g.rows.(i) i

let add_edge g a b =
  if not (String.equal a b) then begin
    let i = node g a and j = node g b in
    Bitset.add g.rows.(i) j;
    Bitset.add g.rows.(j) i
  end

let add_clique_ids g s = Bitset.iter (fun i -> connect g i s) s

(* Each member of arm [k] is connected to the union of the other arms: the
   union of the arms before [k] (a running prefix) and of those after it
   (precomputed suffixes). Every cross-arm pair is reached from both ends,
   so the rows stay symmetric. *)
let add_cross_ids g arms =
  let arms = Array.of_list arms in
  let n = Array.length arms in
  let suffix = Array.make (n + 1) (Bitset.create ()) in
  for k = n - 1 downto 0 do
    suffix.(k) <- Bitset.union arms.(k) suffix.(k + 1)
  done;
  let prefix = ref (Bitset.create ()) in
  Array.iteri
    (fun k arm ->
      let others = Bitset.union !prefix suffix.(k + 1) in
      Bitset.iter (fun i -> connect g i others) arm;
      prefix := Bitset.union !prefix arm)
    arms

(* A representative's members, as one bitset: a node fits it when its own
   row is disjoint from that set. Representatives are kept per class, in
   creation order, so the first fit is the first fit overall. *)
let greedy g ~cls ~order =
  let reps : (string, (string * Bitset.t) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  List.fold_left
    (fun assignment name ->
      let i = node g name in
      let same_class =
        let c = cls name in
        match Hashtbl.find_opt reps c with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.replace reps c l;
            l
      in
      let rep =
        match
          List.find_opt
            (fun (_, members) -> Bitset.disjoint members g.rows.(i))
            !same_class
        with
        | Some (rep, members) ->
            Bitset.add members i;
            rep
        | None ->
            same_class := !same_class @ [ (name, Bitset.of_list [ i ]) ];
            name
      in
      SM.add name rep assignment)
    SM.empty order
