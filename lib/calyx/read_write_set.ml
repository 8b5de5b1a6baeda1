open Ir
module SS = String_set

let reads regs group =
  List.fold_left
    (fun acc a ->
      List.fold_left
        (fun acc atom ->
          match atom with
          | Port (Cell_port (c, "out")) when SS.mem c regs -> SS.add c acc
          | _ -> acc)
        acc (assignment_atoms a))
    SS.empty group.assigns

let may_writes regs group =
  List.fold_left
    (fun acc a ->
      match a.dst with
      | Cell_port (c, ("in" | "write_en")) when SS.mem c regs -> SS.add c acc
      | _ -> acc)
    SS.empty group.assigns

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

let must_writes regs group =
  List.fold_left
    (fun acc a ->
      match (a.dst, a.guard, a.src) with
      | Cell_port (c, "write_en"), True, Lit v
        when SS.mem c regs && Bitvec.is_true v ->
          SS.add c acc
      | _ -> acc)
    SS.empty group.assigns
