type severity = Error | Warning | Info

type location =
  | Program
  | Component of string
  | Cell of { comp : string; cell : string }
  | Group of { comp : string; group : string }
  | Assignment of { comp : string; group : string option; dst : string }
  | Control of { comp : string; path : string }

type t = {
  code : string;
  severity : severity;
  loc : location;
  message : string;
}

let diag severity ~code ~loc fmt =
  Format.kasprintf (fun message -> { code; severity; loc; message }) fmt

let error ~code ~loc fmt = diag Error ~code ~loc fmt
let warning ~code ~loc fmt = diag Warning ~code ~loc fmt

let is_error d = d.severity = Error
let errors_of ds = List.filter is_error ds
let count sev ds = List.length (List.filter (fun d -> d.severity = sev) ds)

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let location_component = function
  | Program -> ""
  | Component c
  | Cell { comp = c; _ }
  | Group { comp = c; _ }
  | Assignment { comp = c; _ }
  | Control { comp = c; _ } ->
      c

let compare a b =
  let by =
    [
      (fun () -> String.compare (location_component a.loc) (location_component b.loc));
      (fun () -> String.compare a.code b.code);
      (fun () -> String.compare a.message b.message);
    ]
  in
  List.fold_left (fun acc f -> if acc <> 0 then acc else f ()) 0 by

let pp_location fmt = function
  | Program -> Format.pp_print_string fmt "program"
  | Component c -> Format.pp_print_string fmt c
  | Cell { comp; cell } -> Format.fprintf fmt "%s/cell %s" comp cell
  | Group { comp; group } -> Format.fprintf fmt "%s/group %s" comp group
  | Assignment { comp; group = Some g; dst } ->
      Format.fprintf fmt "%s/group %s/%s" comp g dst
  | Assignment { comp; group = None; dst } ->
      Format.fprintf fmt "%s/continuous/%s" comp dst
  | Control { comp; path = "" } -> Format.fprintf fmt "%s/control" comp
  | Control { comp; path } -> Format.fprintf fmt "%s/control/%s" comp path

let pp fmt d =
  Format.fprintf fmt "%s %s [%a]: %s"
    (severity_string d.severity)
    d.code pp_location d.loc d.message

let render d = Format.asprintf "%a" pp d

let render_all ds =
  match ds with
  | [] -> ""
  | _ ->
      let sorted = List.stable_sort compare ds in
      let lines = List.map render sorted in
      let summary =
        Printf.sprintf "%d error(s), %d warning(s)" (count Error ds)
          (count Warning ds)
      in
      String.concat "\n" (lines @ [ summary ]) ^ "\n"

(* JSON emission via the shared combinators (the repo deliberately has no
   JSON dependency). *)

module Json = Calyx_telemetry.Json

let json_str = Json.str
let json_obj = Json.obj

let location_json = function
  | Program -> json_obj [ ("kind", json_str "program") ]
  | Component c ->
      json_obj [ ("kind", json_str "component"); ("component", json_str c) ]
  | Cell { comp; cell } ->
      json_obj
        [
          ("kind", json_str "cell");
          ("component", json_str comp);
          ("cell", json_str cell);
        ]
  | Group { comp; group } ->
      json_obj
        [
          ("kind", json_str "group");
          ("component", json_str comp);
          ("group", json_str group);
        ]
  | Assignment { comp; group; dst } ->
      json_obj
        ([ ("kind", json_str "assignment"); ("component", json_str comp) ]
        @ (match group with
          | Some g -> [ ("group", json_str g) ]
          | None -> [])
        @ [ ("dst", json_str dst) ])
  | Control { comp; path } ->
      json_obj
        [
          ("kind", json_str "control");
          ("component", json_str comp);
          ("path", json_str path);
        ]

let to_json ds =
  let sorted = List.stable_sort compare ds in
  let one d =
    json_obj
      [
        ("code", json_str d.code);
        ("severity", json_str (severity_string d.severity));
        ("location", location_json d.loc);
        ("message", json_str d.message);
      ]
  in
  json_obj
    [
      ("diagnostics", Json.arr (List.map one sorted));
      ("errors", Json.int (count Error ds));
      ("warnings", Json.int (count Warning ds));
      ("infos", Json.int (count Info ds));
    ]

let code_descriptions =
  [
    ("CX001", "duplicate definition (cell, group, or signature port)");
    ("CX002", "unknown primitive or wrong primitive parameters");
    ("CX003", "unknown or recursive component instantiation");
    ("CX004", "unresolved port reference (cell, port, hole, or signature)");
    ("CX005", "direction violation (write to unwritable / read of unreadable)");
    ("CX006", "width mismatch in an assignment or guard comparison");
    ("CX007", "group does not drive its own done hole");
    ("CX008", "multiple unconditional drivers of a port within one group");
    ("CX009", "control references an unknown group");
    ("CX010", "invalid if/while condition (not 1-bit, unreadable, or unknown \
               condition group)");
    ("CX011", "invalid invoke (missing go/done interface or bad binding)");
    ("CX012", "entrypoint component not found");
    ("CX013", "component lacks the go: 1 input or done: 1 output interface");
    ("CX020", "par data race: parallel arms read/write the same state");
    ("CX021", "combinational cycle: the fixpoint evaluation cannot settle");
    ("CX022", "overlapping guarded drivers: guards not provably exclusive");
    ("CX023", "dead group: never reachable from the control program");
    ("CX024", "dead cell: never referenced by assignments or control");
    ("CX025", "latency contract violation: \"static\" attribute disagrees \
               with the derived latency");
  ]

let describe code =
  List.find_map
    (fun (c, d) -> if String.equal c code then Some d else None)
    code_descriptions
