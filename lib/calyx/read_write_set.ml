open Ir
module SS = String_set

type 'r registers = { reads : 'r list; must_writes : 'r list; may_writes : 'r list }

let registers reg group =
  List.fold_left
    (fun acc a ->
      let reads =
        List.fold_left
          (fun reads -> function
            | Port (Cell_port (c, "out")) -> (
                match reg c with Some r -> r :: reads | None -> reads)
            | _ -> reads)
          acc.reads (assignment_atoms a)
      in
      match a.dst with
      | Cell_port (c, (("in" | "write_en") as port)) -> (
          match reg c with
          | None -> { acc with reads }
          | Some r ->
              let must_writes =
                match (port, a.guard, a.src) with
                | "write_en", True, Lit v when Bitvec.is_true v -> r :: acc.must_writes
                | _ -> acc.must_writes
              in
              { reads; must_writes; may_writes = r :: acc.may_writes })
      | _ -> { acc with reads })
    { reads = []; must_writes = []; may_writes = [] }
    group.assigns

(* Cell-granularity sets for the par data-race lint: unlike the
   register-only sets above, these cover every cell (memories, pipelined
   units, sub-components, combinational operators). *)

let cell_reads group =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc atom ->
          match atom with
          | Port (Cell_port (c, _)) -> SS.add c acc
          | _ -> acc)
        acc (assignment_atoms a))
    SS.empty group.assigns

let cell_writes group =
  List.fold_left
    (fun acc a ->
      match a.dst with Cell_port (c, _) -> SS.add c acc | _ -> acc)
    SS.empty group.assigns
