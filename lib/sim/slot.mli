(** How the simulator stores a value.

    Every port of an instance is a slot. A slot of up to {!narrow} bits
    holds its value as a native [int] in {!env.ints}; a wider slot (63 or
    64 bits, which an OCaml [int] cannot hold unsigned) holds it as an
    [int64] in {!env.wides}. Values are kept masked to the slot's width.
    Which of the two a slot uses follows from its width alone. The
    fixpoint engine reads both; the compiled engine reads only
    {!env.ints}, and runs only designs with no wide slot.

    {!Calyx.Bitvec} stays the type at the simulator's edges (test
    benches, sinks, status snapshots) and in the fixpoint engine's
    arithmetic; {!get} and {!set} are the one conversion between the
    two. *)

open Calyx

val narrow : int
(** Widest slot held as a native [int] (62). *)

val is_wide : int -> bool
(** [is_wide w] is [w > narrow]. *)

val mask : int -> int
(** [mask w] is [2^w - 1], for [w <= narrow]. *)

val to_bits : int -> int -> int64 -> Bitvec.t
(** [to_bits w i x] is the [w]-bit value whose storage is [i] if [w] is
    narrow and [x] if it is wide. *)

val int_of_bits : int -> Bitvec.t -> int
(** The narrow storage of a value at width [w]: its low [w] bits. *)

val wide_of_bits : int -> Bitvec.t -> int64
(** The wide storage of a value at width [w]: its low [w] bits. *)

type env = {
  ints : int array;  (** narrow slots' values; [0] in a wide slot *)
  wides : int64 array;  (** wide slots' values; [[||]] if no slot is wide *)
  widths : int array;  (** each slot's width *)
}
(** The values of a set of slots. *)

val create : int array -> env
(** [create widths]: every slot zero. [widths] is shared, not copied. *)

val get : env -> int -> Bitvec.t
(** A slot's value at the slot's width. *)

val set : env -> int -> Bitvec.t -> unit
(** Store a value in a slot, truncated or zero-extended to its width. *)

val is_true : env -> int -> bool
(** Whether a slot's value is non-zero (guard truthiness). *)

val same : env -> int -> env -> int -> bool
(** [same a s b t]: whether slot [s] of [a] and slot [t] of [b], of one
    width, hold the same value. *)

val copy : env -> int -> env -> int -> unit
(** [copy a s b t] stores slot [s] of [a] in slot [t] of [b], of one
    width. *)

val clear : env -> unit
(** Every slot back to zero. *)
