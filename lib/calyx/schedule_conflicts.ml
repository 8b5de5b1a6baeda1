module SS = Ir.String_set

let subtree_groups ctrl =
  let acc = ref SS.empty in
  Ir.iter_control
    (function
      | Ir.Enable (g, _) -> acc := SS.add g !acc
      | Ir.If { cond_group = Some g; _ } | Ir.While { cond_group = Some g; _ }
        ->
          acc := SS.add g !acc
      | _ -> ())
    ctrl;
  !acc

let conflicts ctrl =
  let pairs = ref [] in
  Ir.iter_control
    (function
      | Ir.Par (children, _) ->
          let sets = List.map subtree_groups children in
          let rec cross = function
            | [] -> ()
            | s :: rest ->
                List.iter
                  (fun s' ->
                    SS.iter
                      (fun a -> SS.iter (fun b -> pairs := (a, b) :: !pairs) s')
                      s)
                  rest;
                cross rest
          in
          cross sets
      | _ -> ())
    ctrl;
  !pairs
