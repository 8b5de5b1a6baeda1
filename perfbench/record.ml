(* Per-round measurements and the traced run's span recorder.

   Everything a round measures goes into one table of named values: phase
   timers, design metrics, IR and cache counts, and, in traced rounds, the
   self time of every span name. Spans are recorded only around the
   benchmark's own calls into the libraries, on the main domain, and kept
   in memory until the run ends. With tracing off, [span] is one ref read
   and a direct call. *)

let now = Calyx_telemetry.Clock.now_s

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ------------------------------------------------------------------ *)
(* Round values                                                        *)
(* ------------------------------------------------------------------ *)

let values : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace values name
    (v +. Option.value ~default:0. (Hashtbl.find_opt values name))

let addi name v = add name (float_of_int v)
let set name v = Hashtbl.replace values name v

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** [-1] at top level. *)
  name : string;
  design : string;
  round : int;
  start : float;
  stop : float;
}

let tracing = ref false
let design = ref ""
let round_no = ref 0
let stack = ref []
let next_id = ref 0
let current : span list ref = ref []
let finished : span list ref = ref []

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    let close () =
      stack := List.tl !stack;
      current :=
        {
          id;
          parent;
          name;
          design = !design;
          round = !round_no;
          start;
          stop = now ();
        }
        :: !current
    in
    Fun.protect ~finally:close f
  end

let duration s = s.stop -. s.start

(* Names of spans around work only the traced run does (the replay check,
   IR measurement, the split Vinterp calls, the farm job replay). Their
   whole duration is taken out of the traced round's host time, so
   [trace.overhead_s] compares like with like. *)
let is_extra s = String.starts_with ~prefix:"bench." s.name

(* Close the current round: add each span name's self time (its duration
   minus the time its child spans cover) as [<name>_s], and return the
   total duration of the outermost extra spans. *)
let end_round () =
  let spans = !current in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s
          +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    spans;
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let rec inside_extra s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> is_extra p || inside_extra p
    | None -> false
  in
  (* Whether the nearest extra-or-design ancestor is a design span. *)
  let rec in_design s =
    match Hashtbl.find_opt by_id s.parent with
    | Some p -> p.name = "design" || ((not (is_extra p)) && in_design p)
    | None -> false
  in
  let extra = ref 0. in
  List.iter
    (fun s ->
      add (s.name ^ "_s")
        (duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.id));
      if is_extra s && not (inside_extra s) then extra := !extra +. duration s;
      (* [path_s]: time on the design path itself, the extras left out. *)
      if s.name = "design" then add "path_s" (duration s);
      if is_extra s && in_design s then add "path_s" (-.duration s))
    spans;
  finished := List.rev_append spans !finished;
  current := [];
  !extra

let write_trace path ~context =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc context;
      output_char oc '\n';
      let module Json = Calyx_telemetry.Json in
      List.iter
        (fun s ->
          output_string oc
            (Json.obj
               [
                 ("id", Json.int s.id);
                 ("parent", Json.int s.parent);
                 ("name", Json.str s.name);
                 ("design", Json.str s.design);
                 ("round", Json.int s.round);
                 ("start_s", Json.float s.start);
                 ("end_s", Json.float s.stop);
               ]);
          output_char oc '\n')
        (List.sort (fun a b -> compare a.id b.id) !finished))
