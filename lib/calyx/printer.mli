(** Pretty-printer for the Calyx surface syntax.

    The output round-trips through {!Parser}: for any well-formed context
    [ctx], [Parser.parse_string (to_string ctx)] is structurally equal to
    [ctx]. This is checked by property-based tests. *)

val pp_context : Format.formatter -> Ir.context -> unit
val pp_component : Format.formatter -> Ir.component -> unit
val pp_control : Format.formatter -> Ir.control -> unit
val pp_assignment : Format.formatter -> Ir.assignment -> unit

val to_string : Ir.context -> string
(** The whole program as Calyx source text. *)
