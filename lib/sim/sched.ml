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

   The scheduler itself never reads slot values; the caller's [eval]
   callback performs the actual computation and reports value changes back
   through [mark_slot], which enqueues the readers of that slot. Dirt
   persists across [run] calls, so commit-time invalidation (a register
   that latched a new value, a child whose state advanced) simply marks the
   affected nodes and the next settle touches only what can have changed.

   A node may also name source reads: slots it reads only while it
   drives. While its last evaluation left it blocked (see [blocked]), a
   change to one of them does not wake it. The edges still count for
   components and levels. *)

type vec = { mutable data : int array; mutable len : int }

let vec_make () = { data = Array.make 8 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

type t = {
  n : int;
  readers : int array array;  (* slot -> nodes that read it *)
  split : int array;
      (* slot -> where its source readers (those that read it only while
         they drive) start in [readers] *)
  blocked : bool array;  (* node -> last evaluation did not drive *)
  level : int array;  (* node -> level of its component *)
  cyclic : bool array;  (* node -> member of a cyclic component? *)
  scc : int array;  (* node -> component id *)
  scc_size : int array;
  nlevels : int;
  acyclic_bucket : vec array;  (* level -> dirty acyclic nodes *)
  scc_bucket : vec array;  (* cyclic component id -> its dirty members *)
  cyclic_at : int array array;  (* level -> cyclic component ids *)
  dirty : bool array;
  pending : int array;  (* level -> dirty node count *)
  mutable npending : int;  (* total dirty nodes, for early exit *)
}

exception Diverged

let build ~slots ~(nodes : (int list * int list * int list) array) =
  let n = Array.length nodes in
  (* Reader lists per slot: the nodes that read it always, then from
     [split.(s)] on the nodes that read it only as a source. *)
  let split = Array.make (max slots 1) 0 in
  let fill = Array.make (max slots 1) 0 in
  Array.iter
    (fun (reads, sources, _) ->
      List.iter (fun s -> split.(s) <- split.(s) + 1) reads;
      List.iter (fun s -> fill.(s) <- fill.(s) + 1) sources)
    nodes;
  let readers = Array.mapi (fun s c -> Array.make (split.(s) + c) 0) fill in
  let sfill = Array.copy split in
  Array.fill fill 0 (Array.length fill) 0;
  Array.iteri
    (fun k (reads, sources, _) ->
      List.iter
        (fun s ->
          readers.(s).(fill.(s)) <- k;
          fill.(s) <- fill.(s) + 1)
        reads;
      List.iter
        (fun s ->
          readers.(s).(sfill.(s)) <- k;
          sfill.(s) <- sfill.(s) + 1)
        sources)
    nodes;
  (* Successor adjacency (duplicates are harmless below). *)
  let succs =
    Array.map
      (fun (_, _, writes) ->
        Array.concat (List.map (fun s -> readers.(s)) writes))
      nodes
  in
  (* Iterative Tarjan SCC. Components are numbered such that every edge
     leaving a component goes to a lower id, so decreasing id order is a
     topological order of the condensation. *)
  let index = Array.make (max n 1) (-1) in
  let lowlink = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let scc = Array.make (max n 1) (-1) in
  let stack = vec_make () in
  let scc_count = ref 0 in
  let next_index = ref 0 in
  let frames = vec_make () in
  let iters = vec_make () in
  (* Nodes in the order Tarjan pops them: grouped by component, in
     increasing component id. *)
  let popped = Array.make (max n 1) 0 in
  let npopped = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      frames.len <- 0;
      iters.len <- 0;
      vec_push frames root;
      vec_push iters 0;
      index.(root) <- !next_index;
      lowlink.(root) <- !next_index;
      incr next_index;
      vec_push stack root;
      on_stack.(root) <- true;
      while frames.len > 0 do
        let v = frames.data.(frames.len - 1) in
        let i = iters.data.(frames.len - 1) in
        if i < Array.length succs.(v) then begin
          iters.data.(frames.len - 1) <- i + 1;
          let w = succs.(v).(i) in
          if index.(w) < 0 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            vec_push stack w;
            on_stack.(w) <- true;
            vec_push frames w;
            vec_push iters 0
          end
          else if on_stack.(w) then
            lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          frames.len <- frames.len - 1;
          iters.len <- iters.len - 1;
          if frames.len > 0 then begin
            let p = frames.data.(frames.len - 1) in
            lowlink.(p) <- min lowlink.(p) lowlink.(v)
          end;
          if lowlink.(v) = index.(v) then begin
            let id = !scc_count in
            incr scc_count;
            let continue = ref true in
            while !continue do
              let w = stack.data.(stack.len - 1) in
              stack.len <- stack.len - 1;
              on_stack.(w) <- false;
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
    else if Array.exists (fun w -> w = k) succs.(k) then
      scc_cyclic.(scc.(k)) <- true
  done;
  (* Levelize the condensation: predecessors have higher component ids, so
     walking the pop order backwards visits every component after its
     predecessors. *)
  let scc_level = Array.make (max nscc 1) 0 in
  for i = n - 1 downto 0 do
    let k = popped.(i) in
    let id = scc.(k) in
    Array.iter
      (fun w ->
        if scc.(w) <> id then
          scc_level.(scc.(w)) <- max scc_level.(scc.(w)) (scc_level.(id) + 1))
      succs.(k)
  done;
  let nlevels =
    1 + Array.fold_left max 0 (if nscc = 0 then [| 0 |] else scc_level)
  in
  let level = Array.init (max n 1) (fun k -> if k < n then scc_level.(scc.(k)) else 0) in
  let cyclic = Array.init (max n 1) (fun k -> if k < n then scc_cyclic.(scc.(k)) else false) in
  let cyclic_at =
    let by_level = Array.make nlevels [] in
    for id = 0 to nscc - 1 do
      if scc_cyclic.(id) then
        by_level.(scc_level.(id)) <- id :: by_level.(scc_level.(id))
    done;
    Array.map (fun ids -> Array.of_list (List.rev ids)) by_level
  in
  {
    n;
    readers;
    split;
    blocked = Array.make (max n 1) false;
    level;
    cyclic;
    scc;
    scc_size;
    nlevels;
    acyclic_bucket = Array.init nlevels (fun _ -> vec_make ());
    scc_bucket =
      (* Only a cyclic component is ever queued on its own bucket. *)
      (let unused = vec_make () in
       Array.init (max nscc 1) (fun id ->
           if scc_cyclic.(id) then vec_make () else unused));
    cyclic_at;
    dirty = Array.make (max n 1) false;
    pending = Array.make nlevels 0;
    npending = 0;
  }

let mark_node t k =
  if not t.dirty.(k) then begin
    t.dirty.(k) <- true;
    t.npending <- t.npending + 1;
    let l = t.level.(k) in
    t.pending.(l) <- t.pending.(l) + 1;
    if t.cyclic.(k) then vec_push t.scc_bucket.(t.scc.(k)) k
    else vec_push t.acyclic_bucket.(l) k
  end

let mark_slot t s =
  let rs = t.readers.(s) in
  let split = t.split.(s) in
  for i = 0 to split - 1 do
    mark_node t rs.(i)
  done;
  for i = split to Array.length rs - 1 do
    let k = rs.(i) in
    if not t.blocked.(k) then mark_node t k
  done

let blocked t = t.blocked

let mark_all t =
  for k = 0 to t.n - 1 do
    mark_node t k
  done

(* Plain loops and no captured refs: a settle allocates nothing. *)
let run t ~eval ~max_passes =
  let evals = ref 0 in
  (* Dirt only propagates to higher levels, so once the global pending
     count hits zero no later bucket can be non-empty. *)
  let l = ref 0 in
  while !l < t.nlevels && t.npending > 0 do
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
      let ids = t.cyclic_at.(lv) in
      for c = 0 to Array.length ids - 1 do
        let id = ids.(c) in
        let b = t.scc_bucket.(id) in
        let budget = max_passes * t.scc_size.(id) in
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

let node_count t = t.n
let level t k = t.level.(k)
let cyclic t k = t.cyclic.(k)
let scc t k = t.scc.(k)
