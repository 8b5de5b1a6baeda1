(* Static evaluation schedule over a slot-dependency graph.

   Nodes are opaque integers supplied with (read slots, written slots); an
   edge m -> n exists when n reads a slot m writes. At build time the graph
   is condensed into strongly connected components (iterative Tarjan) and
   the condensation is levelized: level(C) = 1 + max over predecessor
   components. Evaluation then processes dirty nodes level by level — a
   node in an acyclic singleton component is evaluated at most once per
   settle, while the members of a genuinely cyclic component iterate on a
   worklist until they stop re-marking each other (or exceed the budget,
   which is the graph analogue of a diverging fixpoint).

   [build] makes the graph's topology, which never changes and may be
   shared; [create] makes one evaluation state over it (the dirty set and
   the blocked flags). The scheduler itself never reads slot values; the
   caller's [eval] callback performs the actual computation and reports
   value changes back through [mark_slot], which enqueues the readers of
   that slot. Dirt persists across [run] calls, so commit-time
   invalidation (a register that latched a new value, a child whose state
   advanced) simply marks the affected nodes and the next settle touches
   only what can have changed.

   A node may also name source reads: slots it reads only while it
   drives. While its last evaluation left it blocked (see [blocked]), a
   change to one of them does not wake it. The edges still count for
   components and levels. *)

(* [Stdlib.min]/[max] compare polymorphically; these compare ints. *)
let imin (a : int) b = if a <= b then a else b
let imax (a : int) b = if a >= b then a else b

type vec = { mutable data : int array; mutable len : int }

let vec_make () = { data = Array.make 8 0; len = 0 }

let vec_sized n = { data = Array.make n 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (max 8 (2 * v.len)) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* The graph's shape, fixed at [build] and shared by every state made
   from it. *)
type topo = {
  n : int;
  rstart : int array;
  rnodes : int array;
      (* the readers of slot [s] are [rnodes.(rstart.(s))] up to
         [rnodes.(rstart.(s + 1) - 1)], one flat array *)
  split : int array;
      (* slot -> where its source readers (those that read it only while
         they drive) start in [rnodes] *)
  level : int array;  (* node -> level of its component *)
  cyclic : bool array;  (* node -> member of a cyclic component? *)
  scc : int array;  (* node -> component id *)
  scc_size : int array;
  scc_cyclic : bool array;  (* component id -> cyclic? *)
  nlevels : int;
  level_acyclic : int array;
      (* level -> its acyclic nodes: a bucket never holds more, as a
         node is queued only while it is not queued already *)
  cyclic_at : int array array;  (* level -> cyclic component ids *)
}

(* One evaluation's dirt over a topology. The shared arrays the hot path
   reads are copied in as fields, one indirection fewer per mark. *)
type t = {
  topo : topo;
  t_rstart : int array;
  t_rnodes : int array;
  t_split : int array;
  t_level : int array;
  t_cyclic : bool array;
  t_scc : int array;
  blocked : bool array;  (* node -> last evaluation did not drive *)
  acyclic_bucket : vec array;  (* level -> dirty acyclic nodes *)
  scc_bucket : vec array;  (* cyclic component id -> its dirty members *)
  dirty : bool array;
  pending : int array;  (* level -> dirty node count *)
  mutable npending : int;  (* total dirty nodes, for early exit *)
}

exception Diverged

(* Whether node [k] reads one of the slots [wslot.(w)], [w] in
   [w, stop). *)
let rec reads_own_write rstart rnodes wslot k w stop =
  w < stop
  &&
  let s = wslot.(w) in
  let rec mem i = i < rstart.(s + 1) && (rnodes.(i) = k || mem (i + 1)) in
  mem rstart.(s) || reads_own_write rstart rnodes wslot k (w + 1) stop

(* Every other component reading one of the slots [wslot.(w)], [w] in
   [w, stop) (written by a member of component [id]), sits above [id]. *)
let rec raise_levels rstart rnodes wslot scc scc_level id w stop =
  if w < stop then begin
    let s = wslot.(w) in
    for i = rstart.(s) to rstart.(s + 1) - 1 do
      let c = scc.(rnodes.(i)) in
      if c <> id then scc_level.(c) <- imax scc_level.(c) (scc_level.(id) + 1)
    done;
    raise_levels rstart rnodes wslot scc scc_level id (w + 1) stop
  end

type edges = read:(int -> unit) -> source:(int -> unit) -> write:(int -> unit) -> unit

let build_with ~slots ~nodes:n (edges : int -> edges) =
  (* The readers of every slot in one flat array: per slot, the nodes
     that read it always, then from [split.(s)] on the nodes that read it
     only as a source. The writes go into another, node [k]'s from
     [wstart.(k)]. Nodes report their slots twice, to be counted and to
     be placed, so nothing per node is kept but the writes. *)
  let nread = Array.make (max slots 1) 0 in
  let nsource = Array.make (max slots 1) 0 in
  let nwrites = ref 0 in
  let count_read s = nread.(s) <- nread.(s) + 1 in
  let count_source s = nsource.(s) <- nsource.(s) + 1 in
  let count_write _ = incr nwrites in
  for k = 0 to n - 1 do
    edges k ~read:count_read ~source:count_source ~write:count_write
  done;
  let rstart = Array.make (slots + 1) 0 in
  let split = Array.make (max slots 1) 0 in
  for s = 0 to slots - 1 do
    split.(s) <- rstart.(s) + nread.(s);
    rstart.(s + 1) <- split.(s) + nsource.(s)
  done;
  let rnodes = Array.make (max rstart.(slots) 1) 0 in
  let wstart = Array.make (n + 1) 0 in
  let wslot = Array.make (max !nwrites 1) 0 in
  (* The counts become each region's next free place. *)
  Array.blit rstart 0 nread 0 slots;
  Array.blit split 0 nsource 0 slots;
  let node = ref 0 in
  let place_read s =
    rnodes.(nread.(s)) <- !node;
    nread.(s) <- nread.(s) + 1
  in
  let place_source s =
    rnodes.(nsource.(s)) <- !node;
    nsource.(s) <- nsource.(s) + 1
  in
  let nw = ref 0 in
  let add_write s =
    wslot.(!nw) <- s;
    incr nw
  in
  for k = 0 to n - 1 do
    node := k;
    wstart.(k) <- !nw;
    edges k ~read:place_read ~source:place_source ~write:add_write
  done;
  wstart.(n) <- !nw;
  (* Iterative Tarjan SCC. Components are numbered such that every edge
     leaving a component goes to a lower id, so decreasing id order is a
     topological order of the condensation. A node is on Tarjan's stack
     while it has an index and no component. *)
  let index = Array.make (max n 1) (-1) in
  let lowlink = Array.make (max n 1) 0 in
  let scc = Array.make (max n 1) (-1) in
  let stack = vec_make () in
  let scc_count = ref 0 in
  let next_index = ref 0 in
  (* The DFS frames, grown on demand: each frame's node, the index in
     [wslot] of the slot whose readers it is walking, and the next
     reader's index in that slot. A node's successors are the readers of
     the slots it writes, in order (duplicates are harmless below). *)
  let fv = vec_make () and fw = vec_make () and fi = vec_make () in
  let first_reader w = if w < Array.length wslot then rstart.(wslot.(w)) else 0 in
  let enter v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    vec_push stack v;
    vec_push fv v;
    vec_push fw wstart.(v);
    vec_push fi (first_reader wstart.(v))
  in
  (* The next successor of frame [d], or -1. *)
  let rec next d =
    let w = fw.data.(d) in
    if w >= wstart.(fv.data.(d) + 1) then -1
    else
      let i = fi.data.(d) in
      if i < rstart.(wslot.(w) + 1) then begin
        fi.data.(d) <- i + 1;
        rnodes.(i)
      end
      else begin
        fw.data.(d) <- w + 1;
        fi.data.(d) <- first_reader (w + 1);
        next d
      end
  in
  (* Nodes in the order Tarjan pops them: grouped by component, in
     increasing component id. *)
  let popped = Array.make (max n 1) 0 in
  let npopped = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while fv.len > 0 do
        let d = fv.len - 1 in
        let v = fv.data.(d) in
        let w = next d in
        if w >= 0 then begin
          if index.(w) < 0 then enter w
          else if scc.(w) < 0 then lowlink.(v) <- imin lowlink.(v) index.(w)
        end
        else begin
          fv.len <- d;
          fw.len <- d;
          fi.len <- d;
          if d > 0 then begin
            let p = fv.data.(d - 1) in
            lowlink.(p) <- imin lowlink.(p) lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let id = !scc_count in
            incr scc_count;
            let continue = ref true in
            while !continue do
              let w = stack.data.(stack.len - 1) in
              stack.len <- stack.len - 1;
              scc.(w) <- id;
              popped.(!npopped) <- w;
              incr npopped;
              if w = v then continue := false
            done
          end
        end
      done
    end
  done;
  let nscc = !scc_count in
  let scc_size = Array.make (max nscc 1) 0 in
  for k = 0 to n - 1 do
    scc_size.(scc.(k)) <- scc_size.(scc.(k)) + 1
  done;
  (* A singleton component is cyclic only if it has a self edge. *)
  let scc_cyclic = Array.make (max nscc 1) false in
  for k = 0 to n - 1 do
    if scc_size.(scc.(k)) > 1 then scc_cyclic.(scc.(k)) <- true
    else if reads_own_write rstart rnodes wslot k wstart.(k) wstart.(k + 1) then
      scc_cyclic.(scc.(k)) <- true
  done;
  (* Levelize the condensation: predecessors have higher component ids, so
     walking the pop order backwards visits every component after its
     predecessors. *)
  let scc_level = Array.make (max nscc 1) 0 in
  for i = n - 1 downto 0 do
    let k = popped.(i) in
    raise_levels rstart rnodes wslot scc scc_level scc.(k) wstart.(k) wstart.(k + 1)
  done;
  let nlevels =
    1 + Array.fold_left imax 0 (if nscc = 0 then [| 0 |] else scc_level)
  in
  let level = Array.init (max n 1) (fun k -> if k < n then scc_level.(scc.(k)) else 0) in
  let cyclic = Array.init (max n 1) (fun k -> if k < n then scc_cyclic.(scc.(k)) else false) in
  let level_acyclic = Array.make nlevels 0 in
  for k = 0 to n - 1 do
    if not cyclic.(k) then level_acyclic.(level.(k)) <- level_acyclic.(level.(k)) + 1
  done;
  let cyclic_at =
    let by_level = Array.make nlevels [] in
    for id = 0 to nscc - 1 do
      if scc_cyclic.(id) then
        by_level.(scc_level.(id)) <- id :: by_level.(scc_level.(id))
    done;
    let a = Array.make nlevels [||] in
    Array.iteri (fun l ids -> a.(l) <- Array.of_list (List.rev ids)) by_level;
    a
  in
  {
    n;
    rstart;
    rnodes;
    split;
    level;
    cyclic;
    scc;
    scc_size;
    scc_cyclic;
    nlevels;
    level_acyclic;
    cyclic_at;
  }

let build ~slots ~(nodes : (int list * int list * int list) array) =
  build_with ~slots ~nodes:(Array.length nodes)
    (fun k ~read ~source ~write ->
      let reads, sources, writes = nodes.(k) in
      List.iter read reads;
      List.iter source sources;
      List.iter write writes)

(* The bucket of every acyclic component, which is never pushed to; it
   also fills the bucket arrays before their buckets are made, as OCaml 5
   runs a minor collection before it makes a large array from a young
   value. *)
let unused = { data = [||]; len = 0 }

let create topo =
  let n = topo.n in
  let acyclic_bucket = Array.make topo.nlevels unused in
  Array.iteri
    (fun l size -> acyclic_bucket.(l) <- vec_sized size)
    topo.level_acyclic;
  (* Only a cyclic component is ever queued on its own bucket. *)
  let scc_bucket = Array.make (Array.length topo.scc_cyclic) unused in
  Array.iteri
    (fun id cyclic -> if cyclic then scc_bucket.(id) <- vec_sized topo.scc_size.(id))
    topo.scc_cyclic;
  {
    topo;
    t_rstart = topo.rstart;
    t_rnodes = topo.rnodes;
    t_split = topo.split;
    t_level = topo.level;
    t_cyclic = topo.cyclic;
    t_scc = topo.scc;
    blocked = Array.make (max n 1) false;
    acyclic_bucket;
    scc_bucket;
    dirty = Array.make (max n 1) false;
    pending = Array.make topo.nlevels 0;
    npending = 0;
  }

let mark_node t k =
  if not t.dirty.(k) then begin
    t.dirty.(k) <- true;
    t.npending <- t.npending + 1;
    let l = t.t_level.(k) in
    t.pending.(l) <- t.pending.(l) + 1;
    if t.t_cyclic.(k) then vec_push t.scc_bucket.(t.t_scc.(k)) k
    else vec_push t.acyclic_bucket.(l) k
  end

let mark_slot t s =
  let rs = t.t_rnodes in
  let split = t.t_split.(s) in
  for i = t.t_rstart.(s) to split - 1 do
    mark_node t rs.(i)
  done;
  for i = split to t.t_rstart.(s + 1) - 1 do
    let k = rs.(i) in
    if not t.blocked.(k) then mark_node t k
  done

let blocked t = t.blocked

let mark_all t =
  for k = 0 to t.topo.n - 1 do
    mark_node t k
  done

(* Plain loops and no captured refs: a settle allocates nothing. *)
let run t ~eval ~max_passes =
  let evals = ref 0 in
  (* Dirt only propagates to higher levels, so once the global pending
     count hits zero no later bucket can be non-empty. *)
  let topo = t.topo in
  let l = ref 0 in
  while !l < topo.nlevels && t.npending > 0 do
    let lv = !l in
    if t.pending.(lv) > 0 then begin
      (* Acyclic nodes at one level are mutually independent: evaluating
         one can only dirty strictly higher levels, so a single sweep
         settles the whole bucket. *)
      let b = t.acyclic_bucket.(lv) in
      for i = 0 to b.len - 1 do
        let k = b.data.(i) in
        if t.dirty.(k) then begin
          t.dirty.(k) <- false;
          t.pending.(lv) <- t.pending.(lv) - 1;
          t.npending <- t.npending - 1;
          incr evals;
          eval k
        end
      done;
      b.len <- 0;
      (* Cyclic components at this level iterate until quiet. Distinct
         components at one level are independent of each other. *)
      let ids = topo.cyclic_at.(lv) in
      for c = 0 to Array.length ids - 1 do
        let id = ids.(c) in
        let b = t.scc_bucket.(id) in
        let budget = max_passes * topo.scc_size.(id) in
        let steps = ref 0 in
        while b.len > 0 do
          let k = b.data.(b.len - 1) in
          b.len <- b.len - 1;
          if t.dirty.(k) then begin
            t.dirty.(k) <- false;
            t.pending.(lv) <- t.pending.(lv) - 1;
            t.npending <- t.npending - 1;
            incr steps;
            if !steps > budget then raise Diverged;
            incr evals;
            eval k
          end
        done
      done
    end;
    incr l
  done;
  !evals

let topology t = t.topo
let node_count g = g.n
let level g k = g.level.(k)
let cyclic g k = g.cyclic.(k)
let scc g k = g.scc.(k)
