(** The Calyx intermediate language (Section 3 of the paper).

    A Calyx program ({!context}) is a set of {!component}s. Each component
    instantiates sub-components ({!cell}s), connects their ports with guarded
    {!assignment}s — either grouped into named {!group}s or continuous — and
    orchestrates the groups with a {!control} program.

    Every component implicitly carries the interface ports of the calling
    convention (Section 4.1): a 1-bit [go] input and a 1-bit [done] output.
    The {!Builder} module inserts them automatically. *)

type direction = Input | Output

type port_def = {
  pd_name : string;
  pd_width : int;
  pd_dir : direction;
  pd_attrs : Attrs.t;
}
(** A port in a component signature. *)

(** What a cell instantiates. *)
type prototype =
  | Prim of string * int list
      (** A standard primitive with its integer parameters,
          e.g. [Prim ("std_add", [32])]. *)
  | Comp of string  (** A user-defined component, by name. *)

type cell = {
  cell_name : string;
  cell_proto : prototype;
  cell_attrs : Attrs.t;
}

(** A reference to a port. *)
type port_ref =
  | Cell_port of string * string  (** [c.p] — port [p] of cell [c]. *)
  | Hole of string * string
      (** [g[h]] — interface hole [h] (["go"] or ["done"]) of group [g]. *)
  | This of string  (** A port of the enclosing component. *)

(** The leaves of guards and the sources of assignments. Atoms, guards
    and assignments take their port type as a parameter: a program names
    ports ({!port_ref}); its resolved form ({!Ports.resolve_assignment})
    numbers them with {!Ports} ids. *)
type 'p atom_ = Port of 'p | Lit of Bitvec.t

type atom = port_ref atom_

type cmp_op = Eq | Neq | Lt | Gt | Le | Ge

(** Guard expressions (Section 3.2): boolean connectives over port
    truthiness and unsigned comparisons of atoms. *)
type 'p guard_ =
  | True
  | Atom of 'p atom_  (** True iff the atom's value is non-zero. *)
  | Cmp of cmp_op * 'p atom_ * 'p atom_
  | And of 'p guard_ * 'p guard_
  | Or of 'p guard_ * 'p guard_
  | Not of 'p guard_

type guard = port_ref guard_

type 'p assignment_ = { dst : 'p; src : 'p atom_; guard : 'p guard_ }
(** [dst = guard ? src]. Assignments are non-blocking: all active
    assignments propagate within the same cycle. *)

type assignment = port_ref assignment_

type group = {
  group_name : string;
  group_attrs : Attrs.t;
  assigns : assignment list;
}

(** The control sub-language (Section 3.4). *)
type control =
  | Empty
  | Enable of string * Attrs.t  (** Pass control to a group. *)
  | Seq of control list * Attrs.t
  | Par of control list * Attrs.t
  | If of {
      cond_port : port_ref;
      cond_group : string option;
          (** The [with] group that computes the condition, if any. *)
      tbranch : control;
      fbranch : control;
      if_attrs : Attrs.t;
    }
  | While of {
      cond_port : port_ref;
      cond_group : string option;
      body : control;
      while_attrs : Attrs.t;
    }
  | Invoke of {
      cell : string;
      invoke_inputs : (string * atom) list;
          (** Input port of the invoked cell -> driven atom. *)
      invoke_outputs : (string * port_ref) list;
          (** Output port of the invoked cell -> destination port, wired
              for the duration of the invoke. *)
      invoke_attrs : Attrs.t;
    }

type component = {
  comp_name : string;
  inputs : port_def list;
  outputs : port_def list;
  cells : cell list;
  groups : group list;
  continuous : assignment list;  (** Assignments outside any group. *)
  control : control;
  comp_attrs : Attrs.t;
  is_extern : string option;
      (** [Some path] for [extern "path" { ... }] declarations: the component
          has a signature but no body (Section 6.2, black-box RTL). *)
}

type context = {
  components : component list;
  entrypoint : string;  (** Name of the top-level component (["main"]). *)
}

exception Ir_error of string

val ir_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Ir_error} with a formatted message. *)

(** {1 Lookup} *)

val find_component : context -> string -> component
val find_component_opt : context -> string -> component option
val entry : context -> component

val cell_index : component -> (string, cell) Hashtbl.t
val group_index : component -> (string, group) Hashtbl.t
(** The one way to look up a cell or group by name (or {!Ports.find_cell},
    where a port table is already at hand). On a duplicate name the first
    declaration wins. Each costs a pass over the component's cells or
    groups: build it once per analysis per component and pass it down,
    never once per query. A miss is reported as
    ["unknown cell %s in component %s"] or
    ["unknown group %s in component %s"].

    The tables are not stored in {!component}: every [{ comp with cells }]
    copy would carry a stale one. *)

val signature_ports : component -> port_def list
(** Inputs followed by outputs. *)

val update_component : context -> component -> context
(** Replace the component of the same name. *)

(** {1 Ports} *)

val cell_ports : context -> prototype -> (string * int * direction) list
(** All ports of a prototype as [(name, width, direction)]. *)

(** {1 Port tables}

    One component's ports, indexed: the cells by name, each prototype's
    port list, and a dense int id for every port. Width and id queries are
    constant time, where a scan of the component's cells per query makes
    every back end that asks once per assignment quadratic. *)

module Ports : sig
  type t

  val create : context -> component -> t
  (** Build the table of a component. Ids are dense from 0, in this order:
      the signature ports (inputs, then outputs), each group's [go] then
      [done] hole, then each cell's ports in [Ir.cell_ports] order. The first
      declaration of a name (signature port, group, cell, or a prototype's
      port) wins and later ones get no id. Prototype port lists are
      memoized in the table only, never across tables. A cell whose
      prototype does not resolve gets no ids; lookups of its ports re-raise
      what [Ir.cell_ports] raised. Name lookups cost two hash lookups; the
      per-id arrays behind {!port}, {!width_of_id} and {!direction_of_id}
      are built on the first such query. *)

  val tables : context -> component -> t
  (** [tables ctx] builds a component's table on its first request and
      returns the same table after, for analyses that visit every instance
      of a hierarchy. Each [tables ctx] keeps its own tables. *)

  val count : t -> int
  val port : t -> int -> port_ref
  (** The port an id names ([This], [Hole] or [Cell_port]). *)

  val width_of_id : t -> int -> int
  val direction_of_id : t -> int -> direction
  (** The declared direction: a signature port's, a cell port's as seen
      from the cell (an adder's [left] is an [Input]), [Input] for a [go]
      hole and [Output] for a [done] hole. *)

  type info = { id : int; width : int; dir : direction }
  (** A port's id, width and direction ([dir] as {!direction_of_id}). *)

  type resolution =
    | Resolved of info
    | Unknown_cell  (** No such cell, or a hole of no such group. *)
    | Unresolved_prototype of exn
        (** The cell's prototype raised this when resolved. *)
    | No_port  (** No such port on the cell, signature or group. *)

  val resolve : t -> port_ref -> resolution

  val id : t -> port_ref -> int
  (** Raises {!Ir_error} (["unknown cell %s in component %s"],
      ["cell %s (in %s) has no port %s"], ["component %s has no port %s"],
      or the group counterparts for holes) or the exception of an
      unresolved prototype. *)

  val width : t -> port_ref -> int
  (** Width of a port; a hole is 1 bit even when its group is unknown.
      Raises as {!id} otherwise. *)

  val resolve_assignment : t -> assignment -> int assignment_
  (** The assignment over port ids, the one resolved form the back ends
      read. Its source is resolved first, then its guard's atoms left to
      right, then its destination; the first that does not resolve
      raises as {!id}. *)

  val resolve_dst : t -> assignment -> int
  (** The destination's id of {!resolve_assignment}'s result, resolving
      the other ports in the same order, so it raises what that raises,
      and allocating nothing. *)

  val assignment_of_ids : t -> int assignment_ -> assignment
  (** The inverse of {!resolve_assignment}, for messages: it prints as
      the assignment that was resolved. *)

  val find_cell : t -> string -> cell option
  (** The first declaration of a cell. *)

  val cell_ports :
    t -> string -> ((string * int * direction) list, exn) result option
  (** The ports of a cell's prototype ([None] for an unknown cell). *)

  val proto_ports : t -> prototype -> (string * int * direction) list
  (** [Ir.cell_ports] of a prototype (raising what it raises), memoized in
      the table. *)
end

(** {1 Construction helpers} *)

val name_supply : string list -> string -> string
(** [name_supply taken] is a generator of fresh names: each call [fresh base]
    returns [base] or [base0], [base1], … — the first candidate that is
    neither in [taken] nor a name the generator returned before. Amortized
    constant time per name. *)

val add_cells : component -> cell list -> component
val add_groups : component -> group list -> component
(** Append in order, raising ["cell %s already exists in %s"] (or the
    group counterpart) on the first name, in list order, that the
    component or an earlier element already has. One name table per
    call: add many at once rather than one by one. *)

val add_cell : component -> cell -> component
val add_group : component -> group -> component
(** The one-element cases of {!add_cells} and {!add_groups}. *)

(** {1 Traversal} *)

val guard_atoms : 'p guard_ -> 'p atom_ list
(** Left to right. *)

val assignment_atoms : 'p assignment_ -> 'p atom_ list
(** Source and guard atoms (not the destination). *)

(** The maps copy on change: where the function returns its argument
    ([==]) everywhere, they return theirs, and a rebuilt value shares
    every part the function left alone. *)

val map_assignment_ports : (port_ref -> port_ref) -> assignment -> assignment
(** Applies to the destination, the source, and all guard atoms. *)

val map_assignments : (assignment -> assignment) -> component -> component
(** Over all groups and the continuous assignments. A group (or list)
    none of whose assignments changed is kept as it is. *)

val all_assignments : component -> assignment list
(** Continuous assignments plus every group's assignments. *)

val map_control : (control -> control) -> control -> control
(** Bottom-up rewrite of every control node. A node whose children are
    unchanged is handed to the function as it is. *)

val iter_control : (control -> unit) -> control -> unit
(** Pre-order visit of every control node. *)

val iter_control_path : (string -> control -> unit) -> control -> unit
(** Like {!iter_control}, but hands each statement its path from the root
    (e.g. ["seq[1].par[0]"]; the root's path is [""]), for diagnostics
    that address a control statement. *)

val control_preorder : control -> (int * string * control) list
(** The canonical control-node numbering used for span attribution: every
    non-[Empty] statement in pre-order (children left to right; [If] visits
    the then branch before the else branch) as [(id, path, node)], ids
    counting from 0 and paths as in {!iter_control_path}. The simulator's
    control events ({!Calyx_sim.Sim.ctrl_event}) carry these ids. *)

val control_node_label : control -> string
(** A short human label for a control node: ["seq"], ["par"], ["if"],
    ["while"], ["enable g"], ["invoke c"]. *)

val enabled_groups : control -> string list
(** Names of groups enabled anywhere in a control program, including
    [with] condition groups; without duplicates, in first-visit order. *)

val control_size : control -> int
(** Number of control statements (for the Section 7.4 statistics): every
    node except [Empty] counts as one. *)

val rename_enables : (string -> string) -> control -> control
(** Rename group references (enables and [with] groups). *)

(** {1 Equality and printing (for diagnostics and tests)} *)

val equal_port_ref : port_ref -> port_ref -> bool
val equal_atom : atom -> atom -> bool
val equal_guard : guard -> guard -> bool
val equal_assignment : assignment -> assignment -> bool

val port_name : port_ref -> string
(** The one printed form of a port: [cell.port], [group[hole]] or a
    signature port's name. *)

val pp_port_ref : Format.formatter -> port_ref -> unit
(** Prints {!port_name}. *)

val pp_atom : Format.formatter -> atom -> unit
val pp_guard : Format.formatter -> guard -> unit

module String_set : Set.S with type elt = string
module String_map : Map.S with type key = string

val simplify_guard : guard -> guard
(** Boolean simplification ([And (True, g)] = [g], double negation, …);
    [Not True] is the canonical false. *)

val guard_size : 'p guard_ -> int
(** Number of operators and atoms in a guard (used by the area model). *)
