(** Latency inference (Section 5.3).

    Conservatively infers ["static"] attributes for groups and components so
    the {!Static_timing} pass can apply even when the frontend supplied no
    annotations (the systolic array generator relies on this entirely).

    Group rules, in the paper's "simple groups" spirit:
    - a group whose done is a constant 1 takes one cycle;
    - a group whose done is a register's or memory's [done], with an
      unconditional [write_en = 1], takes one cycle;
    - a group whose done is a go/done cell's [done] and that drives the
      cell's [go] takes the cell's latency (the paper's example rule);
    - a group that stores a go/done cell's result into a register on the
      cell's done ([r.write_en = c.done], [g[done] = r.done]) takes the
      cell's latency plus one.

    Component rule: when every group is static and the control program's
    shape is statically timeable, the component receives a ["static"]
    attribute equal to {!Static_timing.control_latency}, letting invoking
    groups in parent components infer their latency in turn. The pass
    iterates over the program to a fixpoint so latencies flow bottom-up
    through the component hierarchy. *)

val pass : Pass.t

val derived_group_latency :
  Ir.context ->
  (string, Ir.cell) Hashtbl.t ->
  Ir.component ->
  Ir.group ->
  int option
(** The latency the group rules above derive, {e ignoring} any existing
    ["static"] annotation — what the inferred hardware will actually take.
    The latency-contract lint compares this against the annotation. The
    table is {!Ir.cell_index} of the component, built once by the caller;
    a cell missing from it raises ["unknown cell %s in component %s"]. *)
