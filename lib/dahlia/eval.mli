(** The source semantics of Dahlia: a functional interpreter over a
    type-checked program, and the one reference the toolchain checks
    designs against. The PolyBench test benches compare every declared
    memory of a simulated design with {!run}, and the HLS cost model
    ([Hls_model]) computes every value of its schedule walk through
    {!expr} and {!exec}.

    Every value is an unsigned 32-bit integer and arithmetic wraps at 32
    bits, as the Calyx backend's 32-bit datapath computes it:
    - [a / 0] is all ones and [a % 0] is [a] (the hardware divider's
      results);
    - a shift by 32 or more gives 0;
    - a comparison gives 1 or 0;
    - [sqrt] is the integer square root {!Calyx_sim.Prim_state.isqrt}.

    A read outside a memory's bounds gives 0 and a store outside them is
    dropped. Unordered composition runs its statements in order, and a
    [for] loop's [unroll] factor does not change what it computes.

    Declared widths below 32 are not modelled: a [ubit<8>] variable or
    memory holds a 32-bit value here. *)

exception Eval_error of string

type env
(** A program's store: its variables and every declared memory. *)

val env : Ast.prog -> inputs:(string * int list) list -> env
(** Type-checks the program ({!Typecheck.check}) and builds its initial
    store. A memory named in [inputs] holds those values, row-major and
    wrapped to 32 bits; every other memory is zeroed. Raises {!Eval_error}
    when an input's length is not its memory's size. *)

val expr : env -> Ast.expr -> int
(** The value of an expression in the current store. *)

val set : env -> string -> int -> unit
(** Bind a variable, as a [for] loop binds its index. *)

val exec : env -> Ast.stmt -> unit
(** Run a statement to completion, updating the store. *)

val run : Ast.prog -> inputs:(string * int list) list -> (string * int array) list
(** Run the program's body from [env prog ~inputs]; every declared
    memory's final contents, in declaration order. *)
