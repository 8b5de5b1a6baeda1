(** Fixed-width unsigned bit vectors.

    Every value travelling on a Calyx wire is a bit vector with a width
    between 1 and 64 bits. Arithmetic is modulo [2^width]; comparisons are
    unsigned. This is the type of the IR's literals and constant folding
    in the compiler, and the value type at the edges of both simulators
    (test benches, events, register and memory access). Inside, the
    simulators store values as native ints ([Calyx_sim.Slot] and the RTL
    interpreter's nets); the fixpoint engine, the simulator's reference,
    computes on this module's operators. *)

type t
(** A bit vector: a width and a value truncated to that width. *)

val max_width : int
(** Largest supported width (64). *)

exception Width_error of string
(** Raised when widths are out of range or mismatched for an operation. *)

val make : width:int -> int64 -> t
(** [make ~width v] truncates [v] to [width] bits. Raises {!Width_error} if
    [width < 1 || width > max_width]. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] is [make ~width (Int64.of_int v)]. *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w]. *)

val one : int -> t
(** [one w] is the value 1 at width [w]. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val width : t -> int
(** Width in bits. *)

val to_int64 : t -> int64
(** The value, zero-extended into an [int64]. *)

val to_int : t -> int
(** The value as an OCaml [int]. Raises {!Width_error} if it does not fit. *)

val is_zero : t -> bool
(** [is_zero v] is true iff all bits are 0. *)

val is_true : t -> bool
(** [is_true v] is true iff the value is non-zero (Calyx guard truthiness). *)

val equal : t -> t -> bool
(** Structural equality (width and bits). *)

val compare : t -> t -> int
(** Total order: first by width, then by unsigned value. *)

(** {1 Arithmetic (all modulo [2^width]; operands must share a width)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val div : t -> t -> t
(** Unsigned division. Division by zero yields all-ones (hardware-style). *)

val rem : t -> t -> t
(** Unsigned remainder. Remainder by zero yields the dividend. *)

(** {1 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val shift_left : t -> t -> t
(** [shift_left v s] shifts by the value of [s]; shifts >= width give 0. *)

val shift_right : t -> t -> t
(** Logical (unsigned) right shift; shifts >= width give 0. *)

(** {1 Comparisons (unsigned, result is a 1-bit vector)} *)

val eq : t -> t -> t
val neq : t -> t -> t
val lt : t -> t -> t
val gt : t -> t -> t
val le : t -> t -> t
val ge : t -> t -> t

(** {1 Width adjustment} *)

val truncate : t -> int -> t
(** [truncate v w] keeps the low [w] bits (Calyx [std_slice]). *)

val zero_extend : t -> int -> t
(** [zero_extend v w] widens to [w] bits (Calyx [std_pad]). Raises
    {!Width_error} if [w] is smaller than the current width. *)

val concat : t -> t -> t
(** [concat hi lo] forms the [width hi + width lo]-bit concatenation. *)

val pp : Format.formatter -> t -> unit
(** Prints as [w'dN], e.g. [32'd42]. *)

val to_string : t -> string
