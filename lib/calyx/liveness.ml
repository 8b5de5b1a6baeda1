open Ir
module S = Intset
module Name_tbl = Hashtbl.Make (String)

module Set_tbl = Hashtbl.Make (struct
  type t = Intset.t

  let equal = Intset.equal
  let hash = Intset.hash
end)

type result = { registers : string list; cliques : Intset.t list }

(* A group's register sets, built once. [touched] is reads ∪ may-writes;
   must-writes ⊆ may-writes (Read_write_set). *)
type sets = { reads : S.t; must_writes : S.t; touched : S.t }

let analyze ~id:reg_id comp =
  let registers =
    List.filter_map
      (fun c -> if cell_kind c = Some Register then Some c.cell_name else None)
      comp.cells
  in
  let id = Name_tbl.create 64 in
  List.iter (fun r -> Name_tbl.replace id r (reg_id r)) registers;
  let reg c = Name_tbl.find_opt id c in
  let groups = group_index comp in
  let sets_tbl = Name_tbl.create 64 in
  let sets g =
    match Name_tbl.find_opt sets_tbl g with
    | Some s -> s
    | None ->
        let group =
          match Hashtbl.find_opt groups g with
          | Some group -> group
          | None -> ir_error "unknown group %s in component %s" g comp.comp_name
        in
        let r = Read_write_set.registers reg group in
        let reads = S.of_list r.reads in
        let s =
          {
            reads;
            must_writes = S.of_list r.must_writes;
            touched = S.union reads (S.of_list r.may_writes);
          }
        in
        Name_tbl.replace sets_tbl g s;
        s
  in
  (* Registers continuous assignments read or write are in use in every
     cycle (they feed output ports, or hold a lowered program's state);
     they interfere with everything, each other included. *)
  let always_live =
    List.fold_left
      (fun acc a ->
        List.fold_left
          (fun acc -> function
            | Port (Cell_port (c, _)) -> (
                match reg c with Some i -> S.add i acc | None -> acc)
            | Lit _ | Port _ -> acc)
          acc
          (Port a.dst :: assignment_atoms a))
      S.empty comp.continuous
  in
  (* Cliques repeat heavily: most are a live set that the group's own
     registers do not extend (98% of group nodes at systolic 32x32), the
     same set for every group of a [par]. Equal sets are kept once. *)
  let cliques = ref [] in
  let seen = Set_tbl.create 64 in
  let clique s =
    if S.several s && not (Set_tbl.mem seen s) then begin
      Set_tbl.replace seen s ();
      cliques := s :: !cliques
    end
  in
  clique always_live;
  (* At a group, everything it writes interferes with everything live
     across or out of it: live_in ∪ may_writes ∪ always_live, which is
     live_after ∪ touched ∪ always_live since must_writes ⊆ may_writes. *)
  let group_clique s live_after =
    clique (S.union (S.union live_after s.touched) always_live)
  in
  let visit_group g live_after =
    let s = sets g in
    group_clique s live_after;
    S.union s.reads (S.diff live_after s.must_writes)
  in
  let cond = function Some g -> (sets g).touched | None -> S.empty in
  (* [flow ctrl live_after] is the liveness entering [ctrl] and the
     registers [ctrl]'s groups touch. *)
  let rec flow ctrl live_after =
    match ctrl with
    | Empty -> (live_after, S.empty)
    | Invoke { invoke_inputs; invoke_outputs; _ } ->
        (* Reads its argument registers; writes the invoked cell and any
           registers bound as output destinations. Conservative: output
           writes are not treated as must-writes (no kill), but they
           interfere with everything live across the call. *)
        let read =
          List.fold_left
            (fun acc (_, a) ->
              match a with
              | Port (Cell_port (c, "out")) -> (
                  match reg c with Some i -> S.add i acc | None -> acc)
              | _ -> acc)
            S.empty invoke_inputs
        in
        let written =
          List.fold_left
            (fun acc (_, dst) ->
              match dst with
              | Cell_port (c, _) -> (
                  match reg c with Some i -> S.add i acc | None -> acc)
              | Hole _ | This _ -> acc)
            S.empty invoke_outputs
        in
        let live_in = S.union read live_after in
        clique (S.union (S.union live_in written) always_live);
        (live_in, S.empty)
    | Enable (g, _) -> (visit_group g live_after, (sets g).touched)
    | Seq (cs, _) ->
        let live, touched =
          List.fold_right
            (fun c (live, touched) ->
              let live, t = flow c live in
              (live, t :: touched))
            cs (live_after, [])
        in
        (live, S.union_many touched)
    | Par (cs, _) ->
        (* Each child sees the liveness leaving the par (writes in one child
           are visible after the block; Section 5.2), so the par's live set
           is live_after ∪ each child's live_in. Registers touched by
           different children interfere: one clique over the union of the
           children's touched sets has exactly the edges of the pairwise
           cliques, since any two of its members lie in one child or in
           two different ones. *)
        let live, touched =
          List.fold_left
            (fun (live, touched) c ->
              match c with
              | Enable (g, _) ->
                  (* What the group kills is live after the par anyway,
                     so live_after ∪ its live_in is live_after ∪ reads.
                     Skipping the kill saves a fresh path per group (the
                     ablation in EXPERIMENTS.md). *)
                  let s = sets g in
                  group_clique s live_after;
                  (S.union live s.reads, s.touched :: touched)
              | _ ->
                  let l, t = flow c live_after in
                  (S.union live l, t :: touched))
            (live_after, []) cs
        in
        let touched = S.union_many touched in
        (match cs with _ :: _ :: _ -> clique touched | _ -> ());
        (live, touched)
    | If { cond_group; tbranch; fbranch; _ } ->
        let lt, tt = flow tbranch live_after in
        let lf, tf = flow fbranch live_after in
        let l = S.union lt lf in
        ( (match cond_group with Some cg -> visit_group cg l | None -> l),
          S.union_many [ cond cond_group; tt; tf ] )
    | While { cond_group; body; _ } ->
        (* live_in = reads(cond) ∪ live_after ∪ live_in(body applied to
           live_in) — iterate to a fixpoint. *)
        let rec iterate current =
          let body_in, touched = flow body current in
          let next =
            let l = S.union live_after body_in in
            match cond_group with Some cg -> visit_group cg l | None -> l
          in
          if S.equal next current then (next, touched)
          else iterate (S.union next current)
        in
        let live, touched =
          iterate
            (match cond_group with
            | Some cg -> S.union (sets cg).reads live_after
            | None -> live_after)
        in
        (live, S.union (cond cond_group) touched)
  in
  ignore (flow comp.control always_live);
  { registers; cliques = !cliques }
