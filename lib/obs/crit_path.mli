(** Par critical-path analysis over recorded control spans.

    For every executed [par] statement (every activation separately, when a
    [par] runs inside a loop), attributes cycles to each arm, computes the
    slack against the slowest arm, and names the bottleneck. Arms that are
    plain group enables are cross-checked against the latency
    {!Calyx.Infer_latency} derives (plus the done-observation cycle unless
    the group's done is combinational — the {!Profile}
    convention); on a static program the measured and expected durations
    agree, and any disagreement is flagged. *)

open Calyx

type arm_report = {
  ar_path : string;  (** Control path of the arm, e.g. ["par[1]"]. *)
  ar_label : string;  (** {!Ir.control_node_label} of the arm. *)
  ar_cycles : int;  (** Measured duration; 0 if no span was recorded. *)
  ar_slack : int;  (** Bottleneck arm's cycles minus this arm's. *)
  ar_expected : int option;  (** For enable arms with derivable latency. *)
  ar_mismatch : bool;  (** [expected] present and different. *)
}

type par_report = {
  pr_instance : string;
  pr_component : string;
  pr_path : string;  (** Control path of the [par] ([""] = root). *)
  pr_enter : int;  (** First cycle of this activation. *)
  pr_cycles : int;
  pr_bottleneck : string;  (** Path of the slowest arm. *)
  pr_arms : arm_report list;
}

val analyze :
  Ir.context -> Calyx_sim.Sim.t -> Spans.t -> par_report list
(** Join the spans recorded by {!Spans.create} back to the [par] nodes of
    [ctx]; one report per par activation, sorted by instance, path, and
    start cycle. Call after the run completes. *)

val mismatches : par_report list -> arm_report list
(** All arms whose measured duration disagrees with the derived latency. *)

val render : ?period_ns:float -> par_report list -> string
(** With [period_ns] (the STA-estimated clock period), each par activation
    additionally reports its wall-clock duration and each arm its slack in
    nanoseconds. *)

val to_json : ?period_ns:float -> par_report list -> string
(** A JSON array, one object per par activation; with [period_ns], par
    objects gain an ["ns"] field and arms a ["slack_ns"] field. *)
