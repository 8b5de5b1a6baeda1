(** Mutable, growable sets of small non-negative integers, one bit per
    member.

    The compiler's interference analyses intern names to dense ids and
    work on these sets: a union or a disjointness test costs one machine
    word per [Sys.int_size] ids, not one comparison per member. Sets grow
    on demand; {!equal} and {!hash} compare membership only, whatever
    capacity each set was built at. *)

type t

val create : unit -> t
(** The empty set. *)

val of_list : int list -> t

val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool

val union_into : into:t -> t -> unit
(** [union_into ~into s] adds every member of [s] to [into]. *)

val union : t -> t -> t
(** A fresh set; the arguments are unchanged. *)

val diff : t -> t -> t
(** [diff a b]: a fresh set of the members of [a] not in [b]. *)

val disjoint : t -> t -> bool
val equal : t -> t -> bool
val hash : t -> int
(** Consistent with {!equal}. *)

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Members in increasing order. *)
