(* The compiled engine's static shape: the slot graph's levelized SCC
   condensation (Sched), frozen into an array of steps executed
   straight-line every settle. All dynamic scheduling (dirty sets, buckets, reader
   walks) is gone; what remains is the evaluation ORDER, which is exactly
   the property the levelization proves: by the time a step runs, every
   acyclic input of its nodes is final. *)

type step = Straight of int array | Iterate of int array

type plan = {
  p_nodes : int;
  p_levels : int;
  p_cyclic : int;
  p_steps : (int * step) array;
}

let plan (g : Sched.t) : plan =
  let n = Sched.node_count g in
  let nlevels =
    let m = ref (-1) in
    for k = 0 to n - 1 do
      if Sched.level g k > !m then m := Sched.level g k
    done;
    !m + 1
  in
  (* Per level: the acyclic nodes in static order, and the cyclic
     components keyed by SCC id. Component order within a level follows
     the smallest member id, so the plan is deterministic in the node
     numbering alone. *)
  let acyclic = Array.make (max nlevels 1) [] in
  let cyclic_tbl : (int, int list) Hashtbl.t = Hashtbl.create 7 in
  let cyclic_order = Array.make (max nlevels 1) [] in
  for k = n - 1 downto 0 do
    let l = Sched.level g k in
    if Sched.cyclic g k then begin
      let id = Sched.scc g k in
      let members =
        match Hashtbl.find_opt cyclic_tbl id with
        | Some ms -> ms
        | None ->
            cyclic_order.(l) <- id :: cyclic_order.(l);
            []
      in
      Hashtbl.replace cyclic_tbl id (k :: members)
    end
    else acyclic.(l) <- k :: acyclic.(l)
  done;
  let steps = ref [] in
  let ncyclic = ref 0 in
  for l = nlevels - 1 downto 0 do
    List.iter
      (fun id ->
        incr ncyclic;
        let members = Array.of_list (Hashtbl.find cyclic_tbl id) in
        steps := (l, Iterate members) :: !steps)
      (* [cyclic_order.(l)] was built by prepending while scanning nodes
         in DESCENDING order, so it is already sorted by smallest member. *)
      (List.rev cyclic_order.(l));
    match acyclic.(l) with
    | [] -> ()
    | nodes -> steps := (l, Straight (Array.of_list nodes)) :: !steps
  done;
  {
    p_nodes = n;
    p_levels = nlevels;
    p_cyclic = !ncyclic;
    p_steps = Array.of_list !steps;
  }

let render ~label p =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%d nodes, %d levels, %d cyclic components\n" p.p_nodes
       p.p_levels p.p_cyclic);
  Array.iter
    (fun (l, step) ->
      match step with
      | Straight nodes ->
          Buffer.add_string b (Printf.sprintf "level %d:\n" l);
          Array.iter
            (fun k -> Buffer.add_string b ("  " ^ label k ^ "\n"))
            nodes
      | Iterate nodes ->
          Buffer.add_string b (Printf.sprintf "level %d (cyclic, iterate):\n" l);
          Array.iter
            (fun k -> Buffer.add_string b ("  " ^ label k ^ "\n"))
            nodes)
    p.p_steps;
  Buffer.contents b
