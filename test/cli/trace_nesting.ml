(* [trace_nesting FILE PARENT CHILD...]: check a Chrome trace written by
   [--trace-pipeline]. Every CHILD span must occur, and each occurrence
   must lie within the time range of a PARENT span, whichever track
   (domain) it ran on. Exits 1 with a message otherwise. *)

module Json = Calyx_telemetry.Json

let () =
  match Array.to_list Sys.argv with
  | _ :: file :: parent :: (_ :: _ as children) ->
      let ic = open_in_bin file in
      let doc = Json.parse (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let events =
        Option.bind (Json.member "traceEvents" doc) Json.to_list
        |> Option.value ~default:[]
      in
      let num k e = Option.bind (Json.member k e) Json.to_float in
      let ranges name =
        List.filter_map
          (fun e ->
            match
              (Option.bind (Json.member "name" e) Json.to_string, num "ts" e,
               num "dur" e)
            with
            | Some n, Some ts, Some dur when String.equal n name ->
                Some (ts, ts +. dur)
            | _ -> None)
          events
      in
      let outer = ranges parent in
      let failures =
        List.concat_map
          (fun child ->
            match ranges child with
            | [] -> [ Printf.sprintf "no %s span" child ]
            | inner ->
                List.filter_map
                  (fun (s, e) ->
                    if List.exists (fun (s', e') -> s' <= s && e <= e') outer
                    then None
                    else
                      Some
                        (Printf.sprintf "%s span [%g, %g] is outside every %s"
                           child s e parent))
                  inner)
          children
      in
      List.iter prerr_endline failures;
      exit (if failures = [] then 0 else 1)
  | _ ->
      prerr_endline "usage: trace_nesting FILE PARENT CHILD...";
      exit 2
