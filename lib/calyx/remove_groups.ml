open Ir

(* The guard-expression meaning of an atom read as a 1-bit truth value. *)
let atom_truthy = function
  | Lit v -> if Bitvec.is_true v then True else Not True
  | Port p -> Atom (Port p)

(* Each interface hole materializes as a 1-bit std_wire cell: all writes to
   the hole drive the wire's input (their disjunction, as separate guarded
   drivers of one port) and every read becomes a read of the wire's output.
   Sharing the signal through a wire — rather than substituting the written
   expression into each use — keeps the generated guard logic linear in the
   program size, just like the wires a real RTL backend would emit. *)
let lower_component (_ctx : context) comp =
  if comp.groups = [] && comp.control = Empty then comp
  else begin
    let top =
      match comp.control with
      | Enable (g, _) -> Some g
      | Empty -> None
      | _ ->
          ir_error
            "remove-groups: component %s still has control statements (run \
             compile-control first)"
            comp.comp_name
    in
    (* One wire per hole that is referenced anywhere. *)
    let wires : (string * string, string) Hashtbl.t = Hashtbl.create 32 in
    let fresh = name_supply (List.map (fun c -> c.cell_name) comp.cells) in
    let new_cells = ref [] in
    let wire_for (g, h) =
      match Hashtbl.find_opt wires (g, h) with
      | Some w -> w
      | None ->
          let name = fresh (g ^ "_" ^ h) in
          new_cells :=
            Builder.prim
              ~attrs:(Attrs.of_list [ ("generated", 1) ])
              name "std_wire" [ 1 ]
            :: !new_cells;
          Hashtbl.replace wires (g, h) name;
          name
    in
    let rewrite_port = function
      | Hole (g, h) -> Cell_port (wire_for (g, h), "out")
      | p -> p
    in
    let rewrite_read a =
      (* Destinations are handled separately (hole writes drive wire.in). *)
      let a' = map_assignment_ports rewrite_port a in
      { a' with dst = a.dst }
    in
    let rewrite a =
      let a = rewrite_read a in
      match a.dst with
      | Hole (g, h) ->
          (* A write to the hole becomes a guarded driver of the wire:
             wire.in = (guard & truthy src) ? 1. *)
          Some
            {
              dst = Cell_port (wire_for (g, h), "in");
              src = Lit (Bitvec.one 1);
              guard = simplify_guard (And (a.guard, atom_truthy a.src));
            }
      | _ -> Some a
    in
    let lowered = List.filter_map rewrite (all_assignments comp) in
    (* Calling-convention wiring: the top group runs while go is high and
       it has not signalled done; the component's done is the top group's. *)
    let interface =
      match top with
      | Some g ->
          let go = wire_for (g, "go") in
          let done_ = wire_for (g, "done") in
          [
            {
              dst = Cell_port (go, "in");
              src = Lit (Bitvec.one 1);
              guard =
                And
                  ( Atom (Port (This "go")),
                    Not (Atom (Port (Cell_port (done_, "out")))) );
            };
            {
              dst = This "done";
              src = Port (Cell_port (done_, "out"));
              guard = True;
            };
          ]
      | None ->
          [ { dst = This "done"; src = Lit (Bitvec.one 1);
              guard = Atom (Port (This "go")) } ]
    in
    (* Drop assignments whose guard is the canonical false. *)
    let live a = match a.guard with Not True -> false | _ -> true in
    {
      comp with
      cells = comp.cells @ List.rev !new_cells;
      groups = [];
      continuous = List.filter live (lowered @ interface);
      control = Empty;
    }
  end

let pass =
  Pass.make ~name:"remove-groups"
    ~description:"materialize interface signals as wires and dissolve groups"
    (Pass.per_component lower_component)
