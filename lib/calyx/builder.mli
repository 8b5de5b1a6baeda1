(** Convenience constructors for Calyx IR.

    Frontends (the systolic generator, the Dahlia backend) and tests build
    programs through this module rather than assembling records by hand. All
    functions are pure; a component is threaded through the construction. *)

open Ir

(** {1 Ports and atoms} *)

val port : string -> string -> port_ref
(** [port cell p] is [cell.p]. *)

val hole : string -> string -> port_ref
(** [hole group h] is [group[h]]; [h] is ["go"] or ["done"]. *)

val this : string -> port_ref
(** A port of the enclosing component. *)

val pa : string -> string -> atom
(** [pa cell p] is the atom reading [cell.p]. *)

val ha : string -> string -> atom
val thisa : string -> atom
val lit : width:int -> int -> atom
(** An integer literal of the given width. *)

val bit : bool -> atom
(** A 1-bit constant. *)

(** {1 Guards} *)

val g_port : string -> string -> guard
(** Truthiness of [cell.port]. *)

val g_hole : string -> string -> guard
val g_this : string -> guard
val g_and : guard -> guard -> guard
(** Conjunction, simplifying [True] operands. *)

val g_or : guard -> guard -> guard
val g_not : guard -> guard
val g_eq : atom -> atom -> guard
val g_lt : atom -> atom -> guard
val g_ge : atom -> atom -> guard
val g_and_all : guard list -> guard

(** {1 Assignments and groups} *)

val assign : ?guard:guard -> port_ref -> atom -> assignment
val group : ?attrs:Attrs.t -> string -> assignment list -> group

(** {1 Cells} *)

val cell : ?attrs:Attrs.t -> string -> prototype -> cell
val prim : ?attrs:Attrs.t -> string -> string -> int list -> cell
(** [prim name "std_add" [32]] instantiates a primitive. *)

val instance : ?attrs:Attrs.t -> string -> string -> cell
(** [instance name comp] instantiates a user-defined component. *)

val reg : string -> int -> cell
(** [reg name w] is a [std_reg(w)]. *)

val add_over : string -> int -> cell
(** A shareable [std_add(w)] (carries ["share"=1]). *)

val mem_d1 : ?external_:bool -> string -> width:int -> size:int -> idx:int -> cell

(** {1 Control} *)

val enable : ?attrs:Attrs.t -> string -> control
val seq : ?attrs:Attrs.t -> control list -> control
val par : ?attrs:Attrs.t -> control list -> control
val if_ :
  ?attrs:Attrs.t ->
  ?cond:string ->
  port_ref ->
  control ->
  control ->
  control
(** [if_ ~cond:g p t f] is [if p with g { t } else { f }]. *)

val while_ : ?attrs:Attrs.t -> ?cond:string -> port_ref -> control -> control

val invoke :
  ?attrs:Attrs.t ->
  ?outputs:(string * port_ref) list ->
  string ->
  (string * atom) list ->
  control
(** [invoke cell [(port, atom); ...]]: run a go/done cell to completion
    with the given input drivers (lowered by [Compile_invoke]). The
    optional [outputs] bind cell output ports to destination ports, wired
    for the duration of the invoke: [invoke ~outputs:[("out", dst)] ...]
    drives [dst = cell.out]. *)

(** {1 Components} *)

val io_port : ?attrs:Attrs.t -> direction -> string -> int -> port_def

val component :
  ?attrs:Attrs.t ->
  ?inputs:(string * int) list ->
  ?outputs:(string * int) list ->
  string ->
  component
(** A new empty component. The calling-convention ports [go : 1] (input,
    attribute ["go"=1]) and [done : 1] (output, attribute ["done"=1]) are
    appended automatically unless ports of those names are supplied. *)

val with_cells : cell list -> component -> component
val with_groups : group list -> component -> component
val with_continuous : assignment list -> component -> component
val with_control : control -> component -> component

val context : ?entrypoint:string -> component list -> context
(** A program; the entrypoint defaults to ["main"]. *)
