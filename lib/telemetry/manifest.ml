(* Per-run JSONL manifests: one event per pipeline stage, carrying the
   identity a content-addressed cache would key on — source hash, pass
   pipeline id, engine — plus the stage's wall/GC cost and its numeric
   results (cycles, delays, resource counts).

   Events are streamed: a writer installed with [install] subscribes to
   Trace's on_close hook and appends one line per completed "stage" or
   "pass" span, stamped with the current run context ([set_run]). Sites
   that aren't span-shaped can [record] an event directly. *)

type event = {
  mf_stage : string;
  mf_cat : string;
  mf_source : string;
  mf_source_hash : string;
  mf_pipeline : string;
  mf_engine : string;
  mf_seconds : float;
  mf_minor_words : float;
  mf_major_words : float;
  mf_heap_delta_words : int;
  mf_data : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Source hashing (FNV-1a 64)                                          *)
(* ------------------------------------------------------------------ *)

(* The cache key hash: stable across processes and platforms (unlike
   Hashtbl.hash), cheap, and good enough to address a compile cache —
   collisions would only cause a false cache hit in a future service,
   which can re-verify with the full source. *)
let hash s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)
(* ------------------------------------------------------------------ *)

type context = {
  mutable cx_source : string;
  mutable cx_source_hash : string;
  mutable cx_pipeline : string;
  mutable cx_engine : string;
}

(* The run context is domain-local: each farm worker stamps the job it is
   currently executing, so events from concurrently running jobs are
   attributed to their own sources instead of racing on one record. *)
let context_key : context Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { cx_source = ""; cx_source_hash = ""; cx_pipeline = ""; cx_engine = "" })

let context () = Domain.DLS.get context_key

let set_run ?source ?source_hash ?pipeline ?engine () =
  let context = context () in
  Option.iter (fun s -> context.cx_source <- s) source;
  Option.iter (fun s -> context.cx_source_hash <- s) source_hash;
  Option.iter (fun s -> context.cx_pipeline <- s) pipeline;
  Option.iter (fun s -> context.cx_engine <- s) engine

let run_source () = (context ()).cx_source

(* The other domain gets a copy, so a [set_run] there cannot change the
   caller's context. *)
let carry () =
  let c = context () in
  let run = { c with cx_source = c.cx_source } in
  let spans = Trace.carry () in
  fun f ->
    let own = context () in
    Domain.DLS.set context_key run;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set context_key own)
      (fun () -> spans f)

(* ------------------------------------------------------------------ *)
(* JSON round-trip                                                     *)
(* ------------------------------------------------------------------ *)

let to_json e =
  Json.obj
    ([
       ("stage", Json.str e.mf_stage);
       ("cat", Json.str e.mf_cat);
       ("source", Json.str e.mf_source);
       ("source_hash", Json.str e.mf_source_hash);
       ("pipeline", Json.str e.mf_pipeline);
       ("engine", Json.str e.mf_engine);
       ("seconds", Json.float e.mf_seconds);
       ("gc_minor_words", Json.float e.mf_minor_words);
       ("gc_major_words", Json.float e.mf_major_words);
       ("gc_heap_delta_words", Json.int e.mf_heap_delta_words);
     ]
    @
    match e.mf_data with
    | [] -> []
    | data ->
        [ ("data", Json.obj (List.map (fun (k, v) -> (k, Json.float v)) data)) ])

let of_json v =
  let str_field k = Option.bind (Json.member k v) Json.to_string in
  let num_field k = Option.bind (Json.member k v) Json.to_float in
  match str_field "stage" with
  | None -> None
  | Some stage ->
      let s k = Option.value (str_field k) ~default:"" in
      let f k = Option.value (num_field k) ~default:0. in
      let data =
        match Json.member "data" v with
        | Some (Json.Object fields) ->
            List.filter_map
              (fun (k, dv) -> Option.map (fun x -> (k, x)) (Json.to_float dv))
              fields
        | _ -> []
      in
      Some
        {
          mf_stage = stage;
          mf_cat = s "cat";
          mf_source = s "source";
          mf_source_hash = s "source_hash";
          mf_pipeline = s "pipeline";
          mf_engine = s "engine";
          mf_seconds = f "seconds";
          mf_minor_words = f "gc_minor_words";
          mf_major_words = f "gc_major_words";
          mf_heap_delta_words = int_of_float (f "gc_heap_delta_words");
          mf_data = data;
        }

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let events = ref [] and line = ref 0 in
      (try
         while true do
           let text = input_line ic in
           incr line;
           match String.trim text with
           | "" -> ()
           | body -> (
               match of_json (Json.parse_located ~file:path ~line:!line body) with
               | Some e -> events := e :: !events
               | None -> ())
         done
       with End_of_file -> ());
      List.rev !events)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type writer = {
  w_oc : out_channel;
  w_mutex : Mutex.t;
  mutable w_events : int;
}

let open_file path =
  { w_oc = open_out path; w_mutex = Mutex.create (); w_events = 0 }

(* One full line per event, written with a single [output_string] under
   the writer's mutex: N domains appending concurrently can never
   interleave partial lines, and every flushed prefix of the file is
   valid JSONL (manifests survive a crashed run). *)
let emit w e =
  let line = to_json e ^ "\n" in
  Mutex.lock w.w_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_mutex)
    (fun () ->
      output_string w.w_oc line;
      flush w.w_oc;
      w.w_events <- w.w_events + 1)

let events_written w = w.w_events

let close w = close_out w.w_oc

(* ------------------------------------------------------------------ *)
(* The Trace bridge                                                    *)
(* ------------------------------------------------------------------ *)

let event_of_span (sp : Trace.span) =
  let context = context () in
  let engine =
    match Trace.find_arg sp "engine" with
    | Some (Trace.S e) -> e
    | _ -> context.cx_engine
  in
  {
    mf_stage = sp.Trace.sp_name;
    mf_cat = sp.Trace.sp_cat;
    mf_source = context.cx_source;
    mf_source_hash = context.cx_source_hash;
    mf_pipeline = context.cx_pipeline;
    mf_engine = engine;
    mf_seconds = Trace.seconds sp;
    mf_minor_words = sp.Trace.sp_minor_words;
    mf_major_words = sp.Trace.sp_major_words;
    mf_heap_delta_words = sp.Trace.sp_heap_delta_words;
    mf_data = Trace.metrics sp;
  }

let record ?(cat = "event") ?(engine = "") ?(seconds = 0.) ?(data = []) w stage =
  let context = context () in
  emit w
    {
      mf_stage = stage;
      mf_cat = cat;
      mf_source = context.cx_source;
      mf_source_hash = context.cx_source_hash;
      mf_pipeline = context.cx_pipeline;
      mf_engine = (if engine = "" then context.cx_engine else engine);
      mf_seconds = seconds;
      mf_minor_words = 0.;
      mf_major_words = 0.;
      mf_heap_delta_words = 0;
      mf_data = data;
    }

let manifest_cats = [ "stage"; "pass" ]

let install w =
  Trace.set_on_close (fun sp ->
      if List.mem sp.Trace.sp_cat manifest_cats then emit w (event_of_span sp))

let uninstall () = Trace.clear_on_close ()
