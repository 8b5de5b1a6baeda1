open Ir
module SS = String_set
module B = Bitset

module Set_tbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

type result = {
  registers : string list;
  live_in : Bitset.t;
  conflict_cliques : Bitset.t list;
}

(* A group's register sets as bitsets over register ids. *)
type sets = { reads : B.t; must_writes : B.t; may_writes : B.t; touched : B.t }

let analyze ~id:reg_id comp =
  let registers =
    List.filter_map
      (fun c ->
        match c.cell_proto with
        | Prim ("std_reg", _) -> Some c.cell_name
        | _ -> None)
      comp.cells
  in
  let id = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace id r (reg_id r)) registers;
  let regs = SS.of_list registers in
  let bits s =
    let b = B.create () in
    SS.iter (fun r -> B.add b (Hashtbl.find id r)) s;
    b
  in
  let groups = group_index comp in
  let sets_tbl = Hashtbl.create 64 in
  let sets g =
    match Hashtbl.find_opt sets_tbl g with
    | Some s -> s
    | None ->
        let group =
          match Hashtbl.find_opt groups g with
          | Some group -> group
          | None -> ir_error "unknown group %s in component %s" g comp.comp_name
        in
        let reads = bits (Read_write_set.reads regs group) in
        let may_writes = bits (Read_write_set.may_writes regs group) in
        let s =
          {
            reads;
            must_writes = bits (Read_write_set.must_writes regs group);
            may_writes;
            touched = B.union reads may_writes;
          }
        in
        Hashtbl.replace sets_tbl g s;
        s
  in
  let reg_of_atom = function
    | Port (Cell_port (c, "out")) -> Hashtbl.find_opt id c
    | _ -> None
  in
  (* Registers continuous assignments read or write are in use in every
     cycle (they feed output ports, or hold a lowered program's state);
     they interfere with everything, each other included. *)
  let always_live = B.create () in
  List.iter
    (fun a ->
      List.iter
        (function
          | Port (Cell_port (c, _)) -> (
              match Hashtbl.find_opt id c with
              | Some i -> B.add always_live i
              | None -> ())
          | Lit _ | Port _ -> ())
        (Port a.dst :: assignment_atoms a))
    comp.continuous;
  (* Live sets repeat heavily across groups; deduplicate. Sets are never
     mutated once built, so they can be shared as table keys. *)
  let cliques = ref [] in
  let seen = Set_tbl.create 64 in
  let clique s =
    if B.cardinal s > 1 && not (Set_tbl.mem seen s) then begin
      Set_tbl.replace seen s ();
      cliques := s :: !cliques
    end
  in
  clique always_live;
  let union_all = List.fold_left B.union (B.create ()) in
  let cond = function Some g -> (sets g).touched | None -> B.create () in
  (* Registers touched anywhere in a subtree (for parallel interference). *)
  let rec touched = function
    | Empty | Invoke _ -> B.create ()
    | Enable (g, _) -> (sets g).touched
    | Seq (cs, _) | Par (cs, _) -> union_all (List.map touched cs)
    | If { cond_group; tbranch; fbranch; _ } ->
        union_all [ cond cond_group; touched tbranch; touched fbranch ]
    | While { cond_group; body; _ } ->
        B.union (cond cond_group) (touched body)
  in
  let visit_group g live_after =
    let s = sets g in
    let live_in = B.union s.reads (B.diff live_after s.must_writes) in
    (* At this node, everything written interferes with everything live
       across or out of the node. *)
    clique (B.union (B.union live_in s.may_writes) always_live);
    live_in
  in
  let rec flow ctrl live_after =
    match ctrl with
    | Empty -> live_after
    | Invoke { invoke_inputs; invoke_outputs; _ } ->
        (* Reads its argument registers; writes the invoked cell and any
           registers bound as output destinations. *)
        let read = B.create () and written = B.create () in
        List.iter
          (fun (_, a) -> Option.iter (B.add read) (reg_of_atom a))
          invoke_inputs;
        List.iter
          (fun (_, dst) ->
            match dst with
            | Cell_port (c, _) -> Option.iter (B.add written) (Hashtbl.find_opt id c)
            | Hole _ | This _ -> ())
          invoke_outputs;
        (* Conservative: output writes are not treated as must-writes (no
           kill), but they interfere with everything live across the call. *)
        let live_in = B.union read live_after in
        clique (B.union (B.union live_in written) always_live);
        live_in
    | Enable (g, _) -> visit_group g live_after
    | Seq (cs, _) -> List.fold_right flow cs live_after
    | Par (cs, _) ->
        (* Each child sees the liveness leaving the par (writes in one child
           are visible after the block; Section 5.2). Registers touched by
           different children interfere: one clique over the union of the
           children's touched sets has exactly the edges of the pairwise
           cliques, since any two of its members lie in one child or in
           two different ones. *)
        let ins = List.map (fun c -> flow c live_after) cs in
        (match cs with
        | _ :: _ :: _ -> clique (union_all (List.map touched cs))
        | _ -> ());
        List.fold_left B.union live_after ins
    | If { cond_group; tbranch; fbranch; _ } ->
        let lt = flow tbranch live_after in
        let lf = flow fbranch live_after in
        let l = B.union lt lf in
        (match cond_group with Some cg -> visit_group cg l | None -> l)
    | While { cond_group; body; _ } ->
        (* live_in = reads(cond) ∪ live_after ∪ live_in(body applied to
           live_in) — iterate to a fixpoint. *)
        let rec iterate current =
          let body_in = flow body current in
          let next =
            let l = B.union live_after body_in in
            match cond_group with Some cg -> visit_group cg l | None -> l
          in
          if B.equal next current then next else iterate (B.union next current)
        in
        iterate
          (match cond_group with
          | Some cg -> B.union (sets cg).reads live_after
          | None -> live_after)
  in
  let live_in = flow comp.control always_live in
  { registers; live_in; conflict_cliques = !cliques }
