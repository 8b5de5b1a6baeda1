(** Persistent sets of small non-negative integers.

    The compiler's interference analyses intern names to dense ids and
    work on these sets. A set is a Patricia trie over word indices whose
    leaves hold one [Sys.int_size]-bit word of members. An operation
    costs what differs between its arguments, not the size of the id
    space: adding a few members to a large set rebuilds one path of the
    trie and shares the rest, and an argument that is already the result
    comes back as it is ([union s t == s] when [t] is a subset of [s]).

    A set has exactly one trie, so {!equal} and {!hash} compare
    membership; both stop at subtrees the arguments share. *)

type t

val empty : t
val add : int -> t -> t
val of_list : int list -> t
val union : t -> t -> t

val union_many : t list -> t
(** The union of all the sets, built once: the cost is their words of
    members plus one path per word of the result, where a fold of
    {!union} would copy a path per set. *)

val diff : t -> t -> t
(** [diff a b]: the members of [a] not in [b]. *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with {!equal}. *)

val cardinal : t -> int
(** One step per word of members. *)

val several : t -> bool
(** Whether the set has two or more members; constant time. *)

val iter_words : (int -> int -> unit) -> t -> unit
(** [iter_words f s] calls [f w m] for each non-zero word of members, in
    no particular order: member [w * Sys.int_size + i] is bit [i] of
    [m]. *)

val iter_bits : (int -> unit) -> int -> int -> unit
(** [iter_bits f w m] calls [f] on the members word [w] holds in [m], in
    increasing order. *)

val popcount : int -> int
(** The number of bits set in a word. *)
