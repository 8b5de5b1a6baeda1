(** Register sharing via live-range analysis (Section 5.2).

    Uses {!Liveness} to find registers with disjoint live ranges, colors the
    interference graph greedily (width-for-width), and renames registers
    throughout the component. Registers read by continuous assignments are
    never shared (their value is observable at all times).

    With telemetry on, the pass span carries three metrics, each summed
    over the components: [registers], [cliques] (distinct conflict
    cliques of two or more registers) and [conflict_edges] (pairs of
    registers that may not share). *)

val pass : Pass.t

val sharing_map : Ir.context -> Ir.component -> string Ir.String_map.t
(** The register-to-representative map the pass would apply. *)
