(** Behavioural models of the Calyx standard primitives.

    Each instantiated primitive cell carries a {!t}: its registered
    values, stored as {!Slot} stores a value of their width. Per clock
    cycle the fixpoint engine calls {!outputs} (possibly many times,
    during combinational fixpoint iteration) and then {!commit} exactly
    once at the clock edge, both on {!Calyx.Bitvec}, at every width; the
    compiled engine runs the staged forms, {!compile_step} and
    {!compile_commit}, on native ints, and only on primitives whose ports
    are all at most {!Slot.narrow} bits wide (see {!Sim.create}).

    Timing contract: a go/done primitive of latency [L] that sees its
    go/write-enable raised during cycle [t] commits its result at the end of
    cycle [t+L-1] and presents [done = 1] during cycle [t+L]. Registers and
    memories follow the same rule with [L = 1]. *)

open Calyx

type t

exception Sim_error of string

val create : string -> int list -> t
(** [create prim_name params] instantiates fresh state. Raises
    [Prims.Unknown_primitive] for unknown names. *)

val outputs : t -> read:(string -> Bitvec.t) -> (string * Bitvec.t) list
(** Current output port values as a function of the input ports (via
    [read]) and the internal state. Pure with respect to the state. *)

val commit : t -> read:(string -> Bitvec.t) -> unit
(** Clock edge: update internal state from the input ports. *)

(** {1 Staged evaluation (the compiled engine)} *)

type ports = {
  env : Slot.env;  (** the instance's slot values *)
  input : string -> int;
      (** an input port's slot; raises {!Sim_error} for an unknown name *)
  output : string -> int;  (** an output port's slot, or -1 to drop it *)
  write : int -> int -> unit;  (** [write s] is the writer of output slot [s] *)
}
(** Where a staged primitive reads its inputs and sends its outputs. Every
    slot is narrow: at most {!Slot.narrow} bits, held in [env.ints]. *)

val compile_step : t -> ports -> unit -> unit
(** Staged {!outputs} for the compiled engine: port names are resolved
    to slots once at build time; the returned closure reads the slots
    and calls the writers with no string lookups and no allocation per
    call. Its arithmetic is its own, on native ints, and behaves like
    {!outputs}'s on Bitvec. The primitive's ports must all be narrow. *)

val edge_changed : int
val edge_again : int

val compile_commit : t -> ports -> (unit -> int) option
(** Staged {!commit}: same clock-edge semantics, names resolved at build
    time; [None] for a combinational primitive, which has no edge. The
    closure returns a bit set, the compiled engine's commit-time
    bookkeeping:
    - {!edge_changed}: the primitive's outputs may differ from before the
      edge (conservative: it may be a false positive, its absence never
      is). It re-marks the primitive's node in the slot graph.
    - {!edge_again}: the edge is not idempotent, so the next edge must
      run even if no input it reads changes — a pipelined unit while its
      go is high. Otherwise, running the edge again on the same inputs
      and state changes nothing. *)

val reset : t -> unit
(** Clear transient state (done flags, pipeline counters); keeps memory and
    register contents. *)

(** {1 Test-bench access (registers and memories)} *)

val get_register : t -> Bitvec.t
(** Raises {!Sim_error} if the primitive is not a register. *)

val set_register : t -> Bitvec.t -> unit

val get_memory : t -> Bitvec.t array
(** A copy of a memory's contents (row-major for [std_mem_d2]). Raises
    {!Sim_error} if the primitive is not a memory. *)

val set_memory : t -> Bitvec.t array -> unit
(** Load memory contents; lengths must match. *)

val isqrt : int64 -> int64
(** Integer square root of an unsigned 64-bit value (used by the
    [std_sqrt] model and its tests). *)

