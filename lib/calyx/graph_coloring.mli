(** Greedy graph coloring over named resources (Sections 5.1–5.2).

    Nodes are resource names (cells or registers); edges mean "may not share".
    Coloring uses the nodes themselves as colors: each node is mapped to the
    first already-chosen representative of the same class it does not
    conflict with, or to itself.

    Nodes are interned: the first time a name is added it gets the next
    dense id, counting from 0. The [_ids] functions take node sets as
    {!Bitset}s over those ids, and each node's adjacency is one bitset, so
    adding a clique of [k] nodes costs [k] bitset unions rather than
    [k²] edge insertions. *)

type t

val create : unit -> t
val add_node : t -> string -> unit

val node : t -> string -> int
(** The node's id, adding the node if it is new. *)

val add_edge : t -> string -> string -> unit
(** Symmetric; implicitly adds the nodes. Self-edges are ignored. *)

val add_clique_ids : t -> Bitset.t -> unit
(** Pairwise edges among the nodes with these ids (already added). *)

val add_cross_ids : t -> Bitset.t list -> unit
(** [add_cross_ids g sets]: an edge between every two nodes drawn from two
    different sets — the interference of the arms of a [par]. Costs one
    union per member, not one edge per pair. The ids must already be
    added; a node in two sets gets no self-edge. *)

val greedy : t -> cls:(string -> string) -> order:string list -> string Ir.String_map.t
(** [greedy g ~cls ~order] colors the nodes in [order] (each must have been
    added). Two nodes may share a representative only when [cls] agrees and
    no member already assigned to the representative conflicts with the
    node. Returns the complete node-to-representative map (identity for
    unshared nodes). [cls] is called once per node. *)
