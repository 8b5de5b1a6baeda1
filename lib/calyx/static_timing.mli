(** Latency-sensitive compilation — the paper's {e Sensitive} pass
    (Section 4.4).

    Best-effort and bottom-up: whenever every group nested under a control
    statement carries a ["static"] latency attribute, the statement is
    compiled into a single {e static} group driven by a self-incrementing
    counter that enables each child for exactly its latency and never reads
    the children's done signals. Statements with any dynamic child are left
    for {!Compile_control}, so latency-sensitive and -insensitive code mix
    freely.

    Timing convention: a static group of latency [n] performs its work
    during its first [n] active cycles and raises done combinationally in
    cycle [n] (its final FSM state), so a static parent can allot exactly
    [n] cycles while a dynamic parent pays one extra observation cycle.

    [seq] is compiled to consecutive windows (latency = sum), [par] to
    overlapping windows (latency = max), and [if] to a condition window
    followed by branch windows on a latched condition
    (latency = cond + max(then, else)). [while] is never static (its trip
    count is dynamic), but its condition group and body still benefit. *)

val pass : Pass.t

val control_latency :
  (string, Ir.group) Hashtbl.t -> Ir.component -> Ir.control -> int option
(** The latency this pass would realize for a control program, when every
    nested group is static. Shared with {!Infer_latency} so component-level
    latencies agree with the generated hardware. The table is
    {!Ir.group_index} of the component, built once by the caller; an
    enabled group missing from it raises
    ["unknown group %s in component %s"]. *)
