(* [design_spans FILE]: read a Chrome trace written by [--trace-pipeline]
   and print its design spans (process 2, in cycles) re-rendered alone
   with [Trace.chrome], as a document of their own. Exits 1 with a
   message unless the file holds both toolchain spans (process 1) and
   design spans. *)

module Json = Calyx_telemetry.Json
module Trace = Calyx_telemetry.Trace

let () =
  match Sys.argv with
  | [| _; file |] ->
      let ic = open_in_bin file in
      let doc = Json.parse (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let events =
        Option.bind (Json.member "traceEvents" doc) Json.to_list
        |> Option.value ~default:[]
      in
      let str k e = Option.bind (Json.member k e) Json.to_string in
      let num k e = Option.bind (Json.member k e) Json.to_float in
      let complete pid =
        List.filter
          (fun e -> str "ph" e = Some "X" && num "pid" e = Some pid)
          events
      in
      (* Process 2's thread names by tid; its unnamed thread is [""]. *)
      let names =
        List.filter_map
          (fun m ->
            match (str "ph" m, str "name" m, num "pid" m) with
            | Some "M", Some "thread_name", Some 2. ->
                Option.map
                  (fun name -> (num "tid" m, name))
                  (Option.bind (Json.member "args" m) (str "name"))
            | _ -> None)
          events
      in
      let track e =
        Option.value (List.assoc_opt (num "tid" e) names) ~default:""
      in
      let arg = function
        | Json.Number f -> Trace.F f
        | Json.String s -> Trace.S s
        | _ -> failwith "design span arg is neither a number nor a string"
      in
      let event e =
        let args = Option.get (Json.member "args" e) in
        {
          Trace.ev_name = Option.get (str "name" e);
          ev_cat = Option.get (str "cat" e);
          ev_track = track e;
          ev_domain = Trace.Cycles;
          ev_start = Option.get (num "ts" e);
          ev_dur = Option.get (num "dur" e);
          ev_args =
            List.map
              (fun k -> (k, arg (Option.get (Json.member k args))))
              (Json.keys args);
        }
      in
      let toolchain = complete 1. and design = complete 2. in
      if toolchain = [] || design = [] then begin
        Printf.eprintf "%s: %d toolchain and %d design spans\n" file
          (List.length toolchain) (List.length design);
        exit 1
      end;
      print_string (Trace.chrome (List.map event design))
  | _ ->
      prerr_endline "usage: design_spans FILE";
      exit 2
