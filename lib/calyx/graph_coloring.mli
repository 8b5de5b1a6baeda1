(** Greedy graph coloring over named resources (Sections 5.1–5.2).

    Nodes are resource names (cells or registers); edges mean "may not share".
    Coloring uses the nodes themselves as colors: each node is mapped to the
    first already-chosen representative of the same class it does not
    conflict with, or to itself.

    Nodes are interned: the first time a name is added it gets the next
    dense id, counting from 0. Conflicts are given as {!Intset}s over
    those ids, as cliques and as cross products, and kept as given: no
    adjacency is built. Coloring first derives, for each node, the set of
    earlier nodes it does not conflict with, applying the cliques largest
    first and skipping nodes that already conflict with every earlier
    node. So a clique costs a scan of its words plus a pass over the
    members still open, not one edge per pair, and a conflict graph that
    is complete is found so after its largest clique. *)

type t

val create : unit -> t
val add_node : t -> string -> unit

val node : t -> string -> int
(** The node's id, adding the node if it is new. *)

val add_edge : t -> string -> string -> unit
(** Symmetric; implicitly adds the nodes. Self-edges are ignored. *)

val add_clique : t -> Intset.t -> unit
(** Pairwise edges among the nodes with these ids (already added). *)

val add_cross : t -> Intset.t list -> unit
(** [add_cross g sets]: an edge between every two nodes drawn from two
    different sets — the interference of the arms of a [par]. The ids
    must already be added; a node in two sets gets no self-edge. *)

val edges : t -> int
(** The number of edges: unordered pairs of distinct conflicting nodes. *)

val greedy : t -> cls:(string -> string) -> string Ir.String_map.t
(** [greedy g ~cls] colors every node, in id order. Two nodes may share a
    representative only when [cls] agrees and no member already assigned
    to the representative conflicts with the node. Returns the complete
    node-to-representative map (identity for unshared nodes). [cls] is
    called once per node. *)
