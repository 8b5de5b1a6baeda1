(* The compiled engine: each instance's slot-dependency graph (Sched)
   with one specialized closure per node, driven by Sched's dirty-set
   settle. The engine's state is private to this module; an instance
   reaches it only through the closures [compile] returns. *)

open Calyx
open Ir
open Instance
module Tele = Calyx_telemetry

(* One graph node per primitive, child instance, group go hole, and
   assignment. Prim/child nodes push their outputs into the per-slot [base]
   value; assignment nodes compute liveness + value; go nodes compute the
   go hole from the active-entry list. *)
type snode =
  | NPrim of int  (* index into i_prims *)
  | NChild of int  (* index into i_children *)
  | NGo of int  (* group index *)
  | NAssign of int  (* index into s_assigns *)

type sassign = {
  sa_ca : compiled_assign;
  sa_group : int;  (* -1 for continuous assignments *)
  sa_data : bool;  (* a group data assignment (gated while done reads 1) *)
  mutable sa_live : bool;  (* scheduled && guard true, as of the last eval *)
  mutable sa_val : Bitvec.t;  (* driven value while live *)
}

type sstate = {
  s_graph : Sched.t;
  s_nodes : snode array;
  s_assigns : sassign array;
  s_base : Bitvec.t array;
      (* per-slot value from non-assignment producers (component inputs,
         primitive outputs, child outputs, go holes) — zero otherwise *)
  s_writers : int array array;
      (* slot -> indices into s_assigns that statically target it, in the
         reference engine's scan order (continuous, then per group in
         declaration order: dones then datas) *)
  s_live_count : int array;  (* live writers per multi-writer slot *)
  mutable s_suspects : int;  (* slots currently holding >= 2 live writers *)
  s_entries : bool array array;
      (* group index -> gating flags of its active entries, in actives
         order ([||] = inactive); diffed to re-mark on schedule changes *)
  s_prim_node : int array;
  s_child_node : int array;
  s_group_nodes : int array array;
      (* group index -> its go node and assignment nodes, re-marked
         whenever the group's active-entry list changes *)
  mutable s_entry_valid : bool;
      (* the fields below describe the lifecycle state the entry view was
         last computed from; [cadvance] preserves physical identity across
         quiet edges, so [s_entry_ctrl == i_ctrl] (plus equal running/go
         flags) proves the view is still current *)
  mutable s_entry_ctrl : cstate;
  mutable s_entry_running : bool;
  mutable s_entry_go : bool;
}

(* Conflicts need >= 2 simultaneously-live writers on one slot, so a
   per-slot live count (maintained only for statically multi-written
   slots) tells us when the exact — and comparatively expensive — settled
   check can be skipped. Maintained by the shared-slot closures. *)
let live_transition st sa becoming =
  let dst = sa.sa_ca.ca_dst in
  if Array.length st.s_writers.(dst) > 1 then begin
    let c =
      if becoming then st.s_live_count.(dst) + 1
      else st.s_live_count.(dst) - 1
    in
    st.s_live_count.(dst) <- c;
    if becoming && c = 2 then st.s_suspects <- st.s_suspects + 1
    else if (not becoming) && c = 1 then st.s_suspects <- st.s_suspects - 1
  end

(* Recompute which groups the control schedules this cycle and diff
   against the last settle's view; a changed group has its go node and all
   its assignment nodes re-marked. Cheap (one walk of the control state),
   so it runs unconditionally at the top of every settle. *)
let refresh_entries inst st =
  let go = Bitvec.is_true inst.i_env.(inst.i_go_slot) in
  (* The active-group view is a pure function of (running, ctrl, go), and
     control only moves at clock edges — on the quiet settles in between
     this degenerates to three compares. *)
  if
    st.s_entry_valid && st.s_entry_ctrl == inst.i_ctrl
    && st.s_entry_running = inst.i_running
    && st.s_entry_go = go
  then ()
  else begin
    st.s_entry_valid <- true;
    st.s_entry_ctrl <- inst.i_ctrl;
    st.s_entry_running <- inst.i_running;
    st.s_entry_go <- go;
    let ngroups = Array.length inst.i_groups in
    let fresh = Array.make (max ngroups 1) [] in
    List.iter
      (fun (g, gated) -> fresh.(g) <- gated :: fresh.(g))
      (active_groups inst ~go);
    for g = 0 to ngroups - 1 do
      let ne = Array.of_list (List.rev fresh.(g)) in
      if ne <> st.s_entries.(g) then begin
        st.s_entries.(g) <- ne;
        Array.iter (Sched.mark_node st.s_graph) st.s_group_nodes.(g)
      end
    done
  end

(* Construct the dependency graph of one instance: which slots each node
   reads and writes, in the terms Sched expects. *)
let build_sched inst : sstate =
  let ngroups = Array.length inst.i_groups in
  (* Assignments in the reference engine's static scan order. *)
  let assigns = ref [] in
  let add ca group data =
    assigns :=
      { sa_ca = ca; sa_group = group; sa_data = data;
        sa_live = false; sa_val = Bitvec.zero 1 }
      :: !assigns
  in
  Array.iter (fun ca -> add ca (-1) false) inst.i_continuous;
  Array.iteri
    (fun g (dones, datas) ->
      Array.iter (fun ca -> add ca g false) dones;
      Array.iter (fun ca -> add ca g true) datas)
    inst.i_group_assigns;
  let s_assigns = Array.of_list (List.rev !assigns) in
  let na = Array.length s_assigns in
  let np = Array.length inst.i_prims in
  let nc = Array.length inst.i_children in
  let n = np + nc + ngroups + na in
  let prim_node = Array.init np (fun p -> p) in
  let child_node = Array.init nc (fun c -> np + c) in
  let go_node = Array.init ngroups (fun g -> np + nc + g) in
  let assign_node = Array.init na (fun ai -> np + nc + ngroups + ai) in
  let nodes = Array.make (max n 1) (NGo 0) in
  let specs = Array.make (max n 1) ([], [], []) in
  Array.iteri
    (fun p pi ->
      nodes.(prim_node.(p)) <- NPrim p;
      specs.(prim_node.(p)) <-
        (pi.pi_comb_reads, [], List.map snd pi.pi_outputs))
    inst.i_prims;
  Array.iteri
    (fun c (_, ch) ->
      nodes.(child_node.(c)) <- NChild c;
      let reads = Array.to_list (Array.map fst ch.c_input_map) in
      let writes =
        ch.c_done_parent_slot :: Array.to_list (Array.map snd ch.c_output_map)
      in
      specs.(child_node.(c)) <- (reads, [], writes))
    inst.i_children;
  for g = 0 to ngroups - 1 do
    nodes.(go_node.(g)) <- NGo g;
    (* The go hole depends on the done hole through the gating rule. *)
    specs.(go_node.(g)) <-
      ([ inst.i_group_done.(g) ], [], [ inst.i_group_go.(g) ])
  done;
  Array.iteri
    (fun ai sa ->
      nodes.(assign_node.(ai)) <- NAssign ai;
      (* The guard's reads wake the node always, the source's only while
         it drives. The group done hole gates a data write, so it counts
         as a guard read. *)
      let guard, source =
        match (sa.sa_ca.ca_ast.src, sa.sa_ca.ca_reads) with
        | Port _, s :: guard ->
            if List.mem s guard then (guard, []) else (guard, [ s ])
        | _, reads -> (reads, [])
      in
      let guard =
        if sa.sa_data then inst.i_group_done.(sa.sa_group) :: guard else guard
      in
      specs.(assign_node.(ai)) <- (guard, source, [ sa.sa_ca.ca_dst ]))
    s_assigns;
  let graph =
    Sched.build ~slots:inst.i_slots ~nodes:(Array.sub specs 0 n)
  in
  let writer_lists = Array.make (max inst.i_slots 1) [] in
  Array.iteri
    (fun ai sa ->
      writer_lists.(sa.sa_ca.ca_dst) <- ai :: writer_lists.(sa.sa_ca.ca_dst))
    s_assigns;
  let group_lists =
    Array.init (max ngroups 1) (fun g -> if g < ngroups then [ go_node.(g) ] else [])
  in
  Array.iteri
    (fun ai sa ->
      if sa.sa_group >= 0 then
        group_lists.(sa.sa_group) <-
          assign_node.(ai) :: group_lists.(sa.sa_group))
    s_assigns;
  let group_nodes = Array.map Array.of_list group_lists in
  let st =
    {
      s_graph = graph;
      s_nodes = nodes;
      s_assigns;
      s_base = Array.copy inst.i_zeros;
      s_writers = Array.map (fun l -> Array.of_list (List.rev l)) writer_lists;
      s_live_count = Array.make (max inst.i_slots 1) 0;
      s_suspects = 0;
      s_entries = Array.make (max ngroups 1) [||];
      s_prim_node = prim_node;
      s_child_node = child_node;
      s_group_nodes = group_nodes;
      s_entry_valid = false;
      s_entry_ctrl = CDone;
      s_entry_running = false;
      s_entry_go = false;
    }
  in
  Sched.mark_all st.s_graph;
  st

(* The graph as text: per level, its acyclic nodes in ascending order,
   then each cyclic component of the level (in ascending order of its
   largest member) with its members ascending. *)
let render ~label g =
  let n = Sched.node_count g in
  let nlevels = ref 0 in
  for k = 0 to n - 1 do
    nlevels := max !nlevels (Sched.level g k + 1)
  done;
  let acyclic = Array.make (max !nlevels 1) [] in
  let cyclic = Array.make (max !nlevels 1) [] in
  let members : (int, int list) Hashtbl.t = Hashtbl.create 7 in
  for k = n - 1 downto 0 do
    let l = Sched.level g k in
    if Sched.cyclic g k then begin
      let id = Sched.scc g k in
      let ms = Option.value ~default:[] (Hashtbl.find_opt members id) in
      if ms = [] then cyclic.(l) <- id :: cyclic.(l);
      Hashtbl.replace members id (k :: ms)
    end
    else acyclic.(l) <- k :: acyclic.(l)
  done;
  let b = Buffer.create 1024 in
  let lines header nodes =
    Buffer.add_string b header;
    List.iter (fun k -> Buffer.add_string b ("  " ^ label k ^ "\n")) nodes
  in
  Buffer.add_string b
    (Printf.sprintf "%d nodes, %d levels, %d cyclic components\n" n !nlevels
       (Hashtbl.length members));
  for l = 0 to !nlevels - 1 do
    if acyclic.(l) <> [] then
      lines (Printf.sprintf "level %d:\n" l) acyclic.(l);
    List.iter
      (fun id ->
        lines
          (Printf.sprintf "level %d (cyclic, iterate):\n" l)
          (Hashtbl.find members id))
      cyclic.(l)
  done;
  Buffer.contents b

(* Specialize the instance's graph into one closure per node and return
   the engine's entry points. Each node is cheap: guards and sources are
   partially evaluated against the AST (constant guards fold to
   always/never, constant single-writer assignments fold into the initial
   env and disappear, comparisons compile to alloc-free int64 compares),
   primitive port names are resolved to slot thunks/writers once via
   Prim_state.compile_step, and slot resolution replays the reference
   scan through prefetched writer cells with an early exit instead of
   re-walking index arrays. Children must already be compiled. *)
let compile inst : compiled =
  let st = build_sched inst in
  let env = inst.i_env in
  let zeros = inst.i_zeros in
  let nslots = inst.i_slots in
  let na = Array.length st.s_assigns in
  let blocked = Sched.blocked st.s_graph in
  let stage_read ?(on_slot = ignore) pi name =
    match List.assoc_opt name pi.pi_inputs with
    | Some slot ->
        on_slot slot;
        fun () -> env.(slot)
    | None ->
        raise (Prim_state.Sim_error ("unknown primitive input " ^ name))
  in
  (* Every primitive's clock edge, staged first so that [wr] knows which
     edges read each slot: [edge_reads] is filled in while the reads are
     staged. A custom model reads by name at run time, after [staging]
     is cleared, and latches at every edge anyway. *)
  let staging = ref true in
  let edge_reads = Array.make (max nslots 1) [] in
  (* Primitives whose next edge can change their state: set when a slot
     their edge reads changes or their state is poked, and kept while
     the edge is not idempotent. Every primitive but a combinational one
     latches at the first edge. *)
  let np = Array.length inst.i_prims in
  let latch = Array.make np false in
  (* The primitives in [latch], in the order they were set. *)
  let queue = Array.make np 0 in
  let queued = ref 0 in
  let enqueue p =
    if not latch.(p) then begin
      latch.(p) <- true;
      queue.(!queued) <- p;
      incr queued
    end
  in
  let commits =
    Array.mapi
      (fun p pi ->
        let on_slot s =
          if !staging then
            match edge_reads.(s) with
            | q :: _ when q = p -> ()
            | ps -> edge_reads.(s) <- p :: ps
        in
        match
          Prim_state.compile_commit pi.pi_state ~read:(stage_read ~on_slot pi)
        with
        | Some f ->
            enqueue p;
            f
        | None -> fun () -> 0)
      inst.i_prims
  in
  staging := false;
  let edge_readers =
    Array.map (fun ps -> Array.of_list (List.rev ps)) edge_reads
  in
  (* The single sink for every computed slot value: a change enqueues
     the slot's readers and the edges that read it. *)
  let wr slot v =
    if not (Bitvec.equal env.(slot) v) then begin
      env.(slot) <- v;
      Sched.mark_slot st.s_graph slot;
      let ps = edge_readers.(slot) in
      for i = 0 to Array.length ps - 1 do
        enqueue ps.(i)
      done
    end
  in
  (* Slots with a non-assignment producer (component input, primitive
     output, child output or done, go hole). *)
  let has_producer = Array.make (max nslots 1) false in
  List.iter (fun (_, s) -> has_producer.(s) <- true) inst.i_input_slots;
  Array.iter
    (fun pi ->
      List.iter (fun (_, s) -> has_producer.(s) <- true) pi.pi_outputs)
    inst.i_prims;
  Array.iter
    (fun (_, ch) ->
      Array.iter (fun (_, ps) -> has_producer.(ps) <- true) ch.c_output_map;
      has_producer.(ch.c_done_parent_slot) <- true)
    inst.i_children;
  Array.iter (fun s -> has_producer.(s) <- true) inst.i_group_go;
  (* Staged per-slot resolvers for slots with assignment writers: the
     last live writer in static scan order wins, else the producer's
     base — the reference engine's last-write-wins scan, with the writer
     records prefetched and an early exit from the back, no allocation. *)
  let resolvers = Array.make (max nslots 1) (fun () -> ()) in
  for slot = 0 to nslots - 1 do
    let ws = st.s_writers.(slot) in
    if Array.length ws > 0 then begin
      let sas = Array.map (fun ai -> st.s_assigns.(ai)) ws in
      let n = Array.length sas in
      let base =
        if has_producer.(slot) then fun () -> st.s_base.(slot)
        else
          let z = zeros.(slot) in
          fun () -> z
      in
      resolvers.(slot) <-
        fun () ->
          let i = ref (n - 1) in
          while !i >= 0 && not sas.(!i).sa_live do
            decr i
          done;
          wr slot (if !i < 0 then base () else sas.(!i).sa_val)
    end
  done;
  (* A non-assignment producer pushed a value: writer-less slots skip
     the base cell and write the env directly; writer-shadowed slots
     stage the base and re-resolve. *)
  let produce slot =
    if Array.length st.s_writers.(slot) = 0 then fun v -> wr slot v
    else begin
      let r = resolvers.(slot) in
      fun v ->
        if not (Bitvec.equal st.s_base.(slot) v) then begin
          st.s_base.(slot) <- v;
          r ()
        end
    end
  in
  (* Partial evaluation of guards and sources against the AST. Constants
     fold at build time; comparisons between same-width atoms compile to
     alloc-free int64 compares (bitvec payloads are masked, so unsigned
     comparison of the raw values is exact). Width mismatches bail out
     to the generic closure to preserve the runtime Width_error. *)
  let fold_guards = ref 0 and fold_consts = ref 0 and elided = ref 0 in
  let notes = Array.make (max na 1) "" in
  let slot_of = Ports.id inst.i_ports in
  let stage_src = function
    | Lit v ->
        incr fold_consts;
        `Const v
    | Port p ->
        let i = slot_of p in
        `Slot i
  in
  let stage_guard g =
    let exception Bail in
    let atom = function
      | Lit v -> `Const v
      | Port p -> `Slot (slot_of p)
    in
    let width = function
      | `Const v -> Bitvec.width v
      | `Slot i -> Bitvec.width zeros.(i)
    in
    let cmp_i64 = function
      | Eq -> fun x y -> Int64.equal x y
      | Neq -> fun x y -> not (Int64.equal x y)
      | Lt -> fun x y -> Int64.unsigned_compare x y < 0
      | Gt -> fun x y -> Int64.unsigned_compare x y > 0
      | Le -> fun x y -> Int64.unsigned_compare x y <= 0
      | Ge -> fun x y -> Int64.unsigned_compare x y >= 0
    in
    let rec go = function
      | True -> `Const true
      | Atom a -> (
          match atom a with
          | `Const v -> `Const (Bitvec.is_true v)
          | `Slot i -> `Fun (fun () -> Bitvec.is_true env.(i)))
      | Cmp (op, a, b) -> (
          let sa = atom a and sb = atom b in
          if width sa <> width sb then raise Bail;
          let cmp = cmp_i64 op in
          match (sa, sb) with
          | `Const x, `Const y ->
              `Const (cmp (Bitvec.to_int64 x) (Bitvec.to_int64 y))
          | `Const x, `Slot j ->
              let xv = Bitvec.to_int64 x in
              `Fun (fun () -> cmp xv (Bitvec.to_int64 env.(j)))
          | `Slot i, `Const y ->
              let yv = Bitvec.to_int64 y in
              `Fun (fun () -> cmp (Bitvec.to_int64 env.(i)) yv)
          | `Slot i, `Slot j ->
              `Fun
                (fun () ->
                  cmp (Bitvec.to_int64 env.(i)) (Bitvec.to_int64 env.(j))))
      | And (g1, g2) -> (
          match (go g1, go g2) with
          | `Const false, _ | _, `Const false -> `Const false
          | `Const true, s | s, `Const true -> s
          | `Fun f1, `Fun f2 -> `Fun (fun () -> f1 () && f2 ()))
      | Or (g1, g2) -> (
          match (go g1, go g2) with
          | `Const true, _ | _, `Const true -> `Const true
          | `Const false, s | s, `Const false -> s
          | `Fun f1, `Fun f2 -> `Fun (fun () -> f1 () || f2 ()))
      | Not g -> (
          match go g with
          | `Const b -> `Const (not b)
          | `Fun f -> `Fun (fun () -> not (f ())))
    in
    match go g with
    | `Const b ->
        incr fold_guards;
        `Const b
    | s -> s
  in
  (* Every assignment closure records in [blocked] whether it drives, so
     that Sched skips it on a source change while it does not. *)
  let build_assign k ai =
    let sa = st.s_assigns.(ai) in
    let ca = sa.sa_ca in
    let dst = ca.ca_dst in
    let guard =
      (* A width-mismatched comparison must keep raising Width_error at
         run time: fall back to the generic compiled guard. *)
      let generic () = `Fun (fun () -> ca.ca_guard env) in
      match ca.ca_ast.guard with
      | True -> `Const true
      | g -> ( try stage_guard g with _ -> generic ())
    in
    let src =
      match stage_src ca.ca_ast.src with
      | `Const v -> fun () -> v
      | `Slot i -> fun () -> env.(i)
    in
    (* Group gating, staged against the entry view [refresh_entries]
       maintains: a done write is live while its group is active, a data
       write unless every entry is gated and the done hole reads 1. *)
    let sched =
      if sa.sa_group < 0 then None
      else if sa.sa_data then begin
        let g = sa.sa_group in
        let done_slot = inst.i_group_done.(g) in
        Some
          (fun () ->
            let entries = st.s_entries.(g) in
            Array.length entries > 0
            && (Array.exists not entries
               || not (Bitvec.is_true env.(done_slot))))
      end
      else
        let g = sa.sa_group in
        Some (fun () -> Array.length st.s_entries.(g) > 0)
    in
    let note s = notes.(ai) <- notes.(ai) ^ s in
    (match guard with
    | `Const true when ca.ca_ast.guard <> True -> note "  [guard: always]"
    | `Const false -> note "  [guard: never]"
    | _ -> ());
    (match ca.ca_ast.src with Lit _ -> note "  [const src]" | _ -> ());
    if Array.length st.s_writers.(dst) = 1 && not has_producer.(dst) then begin
      (* Single writer, no producer: the slot's value is a pure
         function of drive, so write the env directly. *)
      let z = zeros.(dst) in
      match (sched, guard) with
      | _, `Const false ->
          (* Never drives; env.(dst) stays at its zero initial. *)
          incr elided;
          note "  [elided]";
          blocked.(k) <- true;
          fun () -> ()
      | None, `Const true -> (
          match ca.ca_ast.src with
          | Lit v ->
              (* Constant continuous assignment: fold it into the
                 initial env and drop the node from the hot path. *)
              env.(dst) <- v;
              incr elided;
              note "  [folded]";
              fun () -> ()
          | _ -> fun () -> wr dst (src ()))
      | None, `Fun g ->
          fun () ->
            let d = g () in
            blocked.(k) <- not d;
            wr dst (if d then src () else z)
      | Some on, `Const true ->
          fun () ->
            let d = on () in
            blocked.(k) <- not d;
            wr dst (if d then src () else z)
      | Some on, `Fun g ->
          fun () ->
            let d = on () && g () in
            blocked.(k) <- not d;
            wr dst (if d then src () else z)
    end
    else begin
      (* Shared slot: maintain this writer's live/value cell — the
         sstate's own record, so live transitions feed the suspect count
         that gates the conflict check — and re-resolve the slot. *)
      let resolve = resolvers.(dst) in
      let drive =
        match (sched, guard) with
        | None, `Const b -> fun () -> b
        | None, `Fun g -> g
        | Some on, `Const true -> on
        | Some _, `Const false -> fun () -> false
        | Some on, `Fun g -> fun () -> on () && g ()
      in
      fun () ->
        let d = drive () in
        blocked.(k) <- not d;
        if d then begin
          let v = src () in
          if (not sa.sa_live) || not (Bitvec.equal v sa.sa_val) then begin
            if not sa.sa_live then live_transition st sa true;
            sa.sa_live <- true;
            sa.sa_val <- v;
            resolve ()
          end
        end
        else if sa.sa_live then begin
          live_transition st sa false;
          sa.sa_live <- false;
          resolve ()
        end
    end
  in
  let one1 = Bitvec.one 1 and zero1 = Bitvec.zero 1 in
  let build_go g =
    (* Mirrors the reference loop: one write per active entry in actives
       order, so the last entry's liveness wins. *)
    let w = produce inst.i_group_go.(g) in
    let done_slot = inst.i_group_done.(g) in
    fun () ->
      let entries = st.s_entries.(g) in
      w
        (if Array.length entries = 0 then zero1
         else if
           (not entries.(Array.length entries - 1))
           || not (Bitvec.is_true env.(done_slot))
         then one1
         else zero1)
  in
  let build_prim p =
    let pi = inst.i_prims.(p) in
    let writers = List.map (fun (q, slot) -> (q, produce slot)) pi.pi_outputs in
    Prim_state.compile_step pi.pi_state ~read:(stage_read pi)
      ~write:(fun name -> List.assoc_opt name writers)
  in
  let build_child c =
    let _, ch = inst.i_children.(c) in
    (* A structured child's [done] is registered ([i_done_reg]), not its
       combinational [done] output — stage only the registered writer for
       that slot, or the transient internal value would keep re-marking
       the slot's readers every settle. *)
    let outs =
      Array.to_list ch.c_output_map
      |> List.filter_map (fun (cslot, pslot) ->
             if ch.c_inst.i_structured && pslot = ch.c_done_parent_slot then
               None
             else Some (cslot, produce pslot))
      |> Array.of_list
    in
    let done_w =
      if ch.c_inst.i_structured then Some (produce ch.c_done_parent_slot)
      else None
    in
    (* Flat index arrays so the closure's staging loops allocate
       nothing per call. *)
    let in_pslots = Array.map fst ch.c_input_map in
    let out_cslots = Array.map fst outs in
    let out_ws = Array.map snd outs in
    let buf = ch.c_buf in
    let child_settle =
      match ch.c_inst.i_compiled with
      | Some x -> x.x_settle
      | None -> assert false
    in
    fun () ->
      for i = 0 to Array.length in_pslots - 1 do
        buf.(i) <- env.(in_pslots.(i))
      done;
      child_settle buf;
      let cenv = ch.c_inst.i_env in
      for i = 0 to Array.length out_ws - 1 do
        out_ws.(i) cenv.(out_cslots.(i))
      done;
      match done_w with
      | Some w -> w (if ch.c_inst.i_done_reg then one1 else zero1)
      | None -> ()
  in
  let closure_of k =
    match st.s_nodes.(k) with
    | NPrim p -> build_prim p
    | NChild c -> build_child c
    | NGo g -> build_go g
    | NAssign ai -> build_assign k ai
  in
  let closures = Array.init (Sched.node_count st.s_graph) closure_of in
  let eval k = closures.(k) () in
  let inputs =
    Array.of_list (List.map (fun (_, slot) -> produce slot) inst.i_input_slots)
  in
  (* One settle: stage the inputs, refresh the per-group entry view, then
     let Sched evaluate the dirty nodes level by level. Cyclic components
     iterate on its worklist under the fixpoint engine's divergence budget
     and message, and the conflict check runs only while some slot has
     two live writers, so error paths stay bit-identical. *)
  let x_settle (values : Bitvec.t array) =
    for i = 0 to Array.length inputs - 1 do
      inputs.(i) values.(i)
    done;
    refresh_entries inst st;
    let touched =
      try Sched.run st.s_graph ~eval ~max_passes:inst.i_max_iters
      with Sched.Diverged ->
        raise
          (Unstable_msg
             (Printf.sprintf "component %s: combinational fixpoint diverged"
                inst.i_comp.comp_name))
    in
    inst.i_iters_cycle <- inst.i_iters_cycle + touched;
    if Tele.Runtime.on () then
      Tele.Metrics.observe dirty_set_size (float_of_int touched);
    if st.s_suspects > 0 then check_conflicts inst
  in
  (* The clock edge latches only the primitives in [latch], in ascending
     order. Commit-time invalidation then re-marks exactly the nodes whose
     outputs can differ next cycle — primitives whose latched state
     changed, and every child (whose internal control may advance with
     stable inputs). *)
  let x_commit commit_child =
    let n = !queued in
    (* Either order costs at most [np] steps: insertion sort while the
       queue is short, else a walk over [latch] in index order. *)
    if n * n <= np then
      for i = 1 to n - 1 do
        let p = queue.(i) in
        let j = ref (i - 1) in
        while !j >= 0 && queue.(!j) > p do
          queue.(!j + 1) <- queue.(!j);
          decr j
        done;
        queue.(!j + 1) <- p
      done
    else begin
      let k = ref 0 in
      for p = 0 to np - 1 do
        if latch.(p) then begin
          queue.(!k) <- p;
          incr k
        end
      done
    end;
    (* Latch in ascending order; a primitive whose edge must run again
       stays queued, in place. *)
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let p = queue.(i) in
      let r = commits.(p) () in
      if r land Prim_state.edge_again <> 0 then begin
        queue.(!kept) <- p;
        incr kept
      end
      else latch.(p) <- false;
      if r land Prim_state.edge_changed <> 0 then
        Sched.mark_node st.s_graph st.s_prim_node.(p)
    done;
    queued := !kept;
    if Tele.Runtime.on () then
      Tele.Metrics.observe commit_set_size (float_of_int n);
    for c = 0 to Array.length inst.i_children - 1 do
      let _, ch = inst.i_children.(c) in
      commit_child ch.c_inst;
      Sched.mark_node st.s_graph st.s_child_node.(c)
    done
  in
  let proto_str cell =
    match Ports.find_cell inst.i_ports cell with
    | Some { cell_proto = Prim (n, ps); _ } ->
        Printf.sprintf "%s(%s)" n (String.concat "," (List.map string_of_int ps))
    | Some { cell_proto = Comp n; _ } -> n
    | None -> "?"
  in
  let label k =
    match st.s_nodes.(k) with
    | NPrim p ->
        let pi = inst.i_prims.(p) in
        Printf.sprintf "prim %s : %s" pi.pi_cell (proto_str pi.pi_cell)
    | NChild c ->
        let name, ch = inst.i_children.(c) in
        Printf.sprintf "child %s : %s" name ch.c_inst.i_comp.comp_name
    | NGo g -> Printf.sprintf "go %s" inst.i_groups.(g).group_name
    | NAssign ai ->
        let sa = st.s_assigns.(ai) in
        let where =
          if sa.sa_group < 0 then "continuous"
          else
            Printf.sprintf "%s%s" inst.i_groups.(sa.sa_group).group_name
              (if sa.sa_data then "" else " done")
        in
        Printf.sprintf "assign [%s] %s%s" where
          (Lazy.force sa.sa_ca.ca_text)
          notes.(ai)
  in
  {
    x_settle;
    x_commit;
    x_touch_prim =
      (fun p ->
        Sched.mark_node st.s_graph st.s_prim_node.(p);
        enqueue p);
    (* Lazy: rendering walks and prints every node, and only tests and
       [Sim.compiled_plan] ask. *)
    x_plan =
      lazy
        (Printf.sprintf
           "component %s: %d guards folded, %d constant sources, %d nodes \
            elided\n%s"
           inst.i_comp.comp_name !fold_guards !fold_consts !elided
           (render ~label st.s_graph));
  }
