(** The 19 PolyBench linear-algebra kernels in Dahlia (Section 7.2).

    Each kernel carries its Dahlia source, an unrolled variant for the 11
    kernels whose parallelism the type discipline admits (banked memories +
    fully unrolled parallel loops), and deterministic input data. What a
    kernel computes is stated once, by its source: the test benches check
    a design against the source's semantics ({!Dahlia.Eval}).

    Problem sizes are simulation-friendly (N = 8; doitgen 4×4×4); the
    paper's evaluation measures relative cycle counts and areas, which are
    size-stable at this scale. *)

type kernel = {
  name : string;
  description : string;
  source : string;  (** Sequential Dahlia source. *)
  unrolled : string option;  (** Unrolled + banked variant, if admitted. *)
  inputs : (string * int list) list;
      (** Logical memory name → deterministic contents. *)
}

val n : int
(** The common problem size (8). *)

val all : kernel list
(** All 19 kernels, in the paper's category order. *)

val find : string -> kernel
(** Raises [Invalid_argument] naming the unknown kernel and listing the
    known ones. *)

val unrollable : kernel list
(** The 11 kernels with an unrolled variant. *)
