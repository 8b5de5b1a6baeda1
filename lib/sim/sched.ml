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
  nlevels : int;
  bucket : int array;
      (* node -> its bucket: its level's for an acyclic node, bucket
         [nlevels + j] for a member of the [j]th cyclic component *)
  bucket_size : int array;  (* bucket -> the nodes that map to it *)
  cyclic_at : int array array;  (* level -> its cyclic components' buckets *)
}

(* One evaluation's dirt over a topology. The shared arrays the hot path
   reads are copied in as fields, one indirection fewer per mark. *)
type t = {
  topo : topo;
  t_rstart : int array;
  t_rnodes : int array;
  t_split : int array;
  t_bucket : int array;
  blocked : bool array;  (* node -> last evaluation did not drive *)
  buckets : vec array;
      (* bucket -> its dirty nodes, each once: a node is queued when it
         turns dirty and turns clean when [run] takes it, so a bucket
         never holds more than [bucket_size] and every node in an
         acyclic bucket is dirty *)
  dirty : bool array;
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
  (* Acyclic buckets first, one per level, then one per cyclic
     component in increasing id. *)
  let cyclic_bucket = Array.make (max nscc 1) 0 in
  let nbuckets = ref nlevels in
  for id = 0 to nscc - 1 do
    if scc_cyclic.(id) then begin
      cyclic_bucket.(id) <- !nbuckets;
      incr nbuckets
    end
  done;
  let bucket =
    Array.init (max n 1) (fun k ->
        if k >= n then 0
        else if cyclic.(k) then cyclic_bucket.(scc.(k))
        else level.(k))
  in
  let bucket_size = Array.make !nbuckets 0 in
  for k = 0 to n - 1 do
    bucket_size.(bucket.(k)) <- bucket_size.(bucket.(k)) + 1
  done;
  let cyclic_at =
    let by_level = Array.make nlevels [] in
    for id = nscc - 1 downto 0 do
      if scc_cyclic.(id) then
        by_level.(scc_level.(id)) <- cyclic_bucket.(id) :: by_level.(scc_level.(id))
    done;
    Array.map Array.of_list by_level
  in
  { n; rstart; rnodes; split; level; cyclic; scc; nlevels; bucket; bucket_size; cyclic_at }

let build ~slots ~(nodes : (int list * int list * int list) array) =
  build_with ~slots ~nodes:(Array.length nodes)
    (fun k ~read ~source ~write ->
      let reads, sources, writes = nodes.(k) in
      List.iter read reads;
      List.iter source sources;
      List.iter write writes)

(* The bucket of a level without acyclic nodes, which is never pushed
   to; it also fills the bucket array before its buckets are made, as
   OCaml 5 runs a minor collection before it makes a large array from a
   young value. *)
let unused = { data = [||]; len = 0 }

let create topo =
  let n = topo.n in
  let buckets = Array.make (Array.length topo.bucket_size) unused in
  Array.iteri
    (fun b size -> if size > 0 then buckets.(b) <- vec_sized size)
    topo.bucket_size;
  {
    topo;
    t_rstart = topo.rstart;
    t_rnodes = topo.rnodes;
    t_split = topo.split;
    t_bucket = topo.bucket;
    blocked = Array.make (max n 1) false;
    buckets;
    dirty = Array.make (max n 1) false;
    npending = 0;
  }

(* Queue clean node [k]. A bucket is made with its full capacity, so a
   push never grows it. *)
let[@inline] queue t k =
  t.dirty.(k) <- true;
  t.npending <- t.npending + 1;
  let b = t.buckets.(t.t_bucket.(k)) in
  b.data.(b.len) <- k;
  b.len <- b.len + 1

let mark_node t k = if not t.dirty.(k) then queue t k

let mark_slot t s =
  let rs = t.t_rnodes and dirty = t.dirty in
  let split = t.t_split.(s) in
  for i = t.t_rstart.(s) to split - 1 do
    let k = rs.(i) in
    if not dirty.(k) then queue t k
  done;
  let blocked = t.blocked in
  for i = split to t.t_rstart.(s + 1) - 1 do
    let k = rs.(i) in
    if not (dirty.(k) || blocked.(k)) then queue t k
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
  let dirty = t.dirty in
  let l = ref 0 in
  while !l < topo.nlevels && t.npending > 0 do
    let lv = !l in
    (* Acyclic nodes at one level are mutually independent: evaluating
       one can only dirty strictly higher levels, so a single sweep
       settles the whole bucket. *)
    let b = t.buckets.(lv) in
    let n = b.len in
    if n > 0 then begin
      let data = b.data in
      (try
         for i = 0 to n - 1 do
           let k = data.(i) in
           dirty.(k) <- false;
           eval k
         done
       with e ->
         (* Keep the nodes not yet taken queued, so that the state stays
            whole when an evaluation raises. *)
         let kept = ref 0 in
         for i = 0 to n - 1 do
           let k = data.(i) in
           if dirty.(k) then begin
             data.(!kept) <- k;
             incr kept
           end
         done;
         b.len <- !kept;
         t.npending <- t.npending - (n - !kept);
         raise e);
      b.len <- 0;
      t.npending <- t.npending - n;
      evals := !evals + n
    end;
    (* Cyclic components at this level iterate until quiet. Distinct
       components at one level are independent of each other. *)
    let ids = topo.cyclic_at.(lv) in
    for c = 0 to Array.length ids - 1 do
      let b = t.buckets.(ids.(c)) in
      let budget = max_passes * Array.length b.data in
      let steps = ref 0 in
      while b.len > 0 do
        let k = b.data.(b.len - 1) in
        b.len <- b.len - 1;
        if dirty.(k) then begin
          dirty.(k) <- false;
          t.npending <- t.npending - 1;
          incr steps;
          if !steps > budget then raise Diverged;
          incr evals;
          eval k
        end
      done
    done;
    incr l
  done;
  !evals

let topology t = t.topo
let node_count g = g.n
let level g k = g.level.(k)
let cyclic g k = g.cyclic.(k)
let scc g k = g.scc.(k)
