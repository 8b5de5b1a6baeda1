open Ir

let lower_invokes (_ctx : context) comp =
  let fresh = name_supply (List.map (fun g -> g.group_name) comp.groups) in
  let added = ref [] in
  let control =
    map_control
      (function
        | Invoke { cell = target; invoke_inputs; invoke_outputs; invoke_attrs }
          ->
            let name = fresh ("invoke_" ^ target) in
            let assigns =
              List.map
                (fun (p, a) -> Builder.assign (Builder.port target p) a)
                invoke_inputs
              @ List.map
                  (fun (p, dst) ->
                    Builder.assign dst (Builder.pa target p))
                  invoke_outputs
              @ [
                  Builder.assign (Builder.port target "go") (Builder.bit true);
                  Builder.assign (Builder.hole name "done")
                    (Builder.pa target "done");
                ]
            in
            added := Builder.group name assigns :: !added;
            Enable (name, invoke_attrs)
        | c -> c)
      comp.control
  in
  if !added = [] then comp
  else { comp with groups = comp.groups @ List.rev !added; control }

let pass =
  Pass.make ~name:"compile-invoke"
    ~description:"lower invoke statements into groups and enables"
    (Pass.per_component lower_invokes)
