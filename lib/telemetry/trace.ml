(* Hierarchical spans: one trace context for a whole toolchain run.

   A span is opened and closed around each pipeline stage (parse, check,
   each pass, emit, sim, validate, timing, ...) and records wall time from
   the shared Clock plus GC deltas from Gc.quick_stat — minor and major
   words allocated and the major-heap size change. Spans nest through an
   explicit stack; completed spans are optionally buffered (for Chrome
   trace export) and always handed to the [on_close] hook, which is how
   Manifest streams one JSONL event per stage without any plumbing through
   the compiler's APIs.

   Domain safety (the compile farm runs pipelines on worker domains): span
   ids and sequence numbers are atomics, the open-span stack is
   domain-local state (each domain nests its own spans), and the completed
   buffer plus the [on_close] hook are serialized by a mutex — so spans
   traced on N worker domains merge into the one process-wide trace as
   they close, each with its parent links intact within its own domain —
   or into the caller's, when [carry] handed a caller's open spans to the
   domain that runs part of its work. *)

type arg = F of float | S of string

type span = {
  sp_id : int;
  sp_parent : int;  (* -1 for roots *)
  sp_depth : int;
  sp_name : string;
  sp_cat : string;
  sp_start_ns : float;
  mutable sp_end_ns : float;
  mutable sp_minor_words : float;
  mutable sp_major_words : float;
  mutable sp_heap_delta_words : int;
  mutable sp_args : (string * arg) list;  (* reversed attachment order *)
  sp_seq : int;  (* global open order *)
  mutable sp_seq_close : int;
  sp_domain_id : int;  (* the domain that ran it; 0 is the main one *)
}

let next_id = Atomic.make 0
let next_seq = Atomic.make 0

(* Each domain nests its own spans: the open stack is domain-local, so a
   pipeline running on a farm worker cannot corrupt another worker's
   nesting. *)
let stack_key : span list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

(* The open spans are an immutable list, so the other domain can take the
   captured list as its own stack: its spans get the caller's innermost
   span as parent, and popping them never touches the caller's stack. *)
let carry () =
  let spans = !(stack ()) in
  fun f ->
    let stack = stack () in
    let own = !stack in
    stack := spans;
    Fun.protect ~finally:(fun () -> stack := own) f

(* The shared close-side state: the Chrome-trace buffer and the on_close
   hook (the Manifest bridge). Serialized so spans closing on different
   domains merge without tearing. *)
let close_mutex = Mutex.create ()
let completed : span list ref = ref []  (* reversed close order *)
let keep = ref false
let on_close : (span -> unit) ref = ref ignore

let set_keep b = keep := b
let set_on_close f = on_close := f
let clear_on_close () = on_close := ignore

let reset () =
  Atomic.set next_id 0;
  Atomic.set next_seq 0;
  stack () := [];
  Mutex.lock close_mutex;
  completed := [];
  Mutex.unlock close_mutex

let seconds sp = (sp.sp_end_ns -. sp.sp_start_ns) /. 1e9

let spans () =
  Mutex.lock close_mutex;
  let all = !completed in
  Mutex.unlock close_mutex;
  List.sort (fun a b -> compare a.sp_seq b.sp_seq) all

let add_arg key v =
  if Runtime.on () then
    match !(stack ()) with
    | [] -> ()
    | sp :: _ -> sp.sp_args <- (key, v) :: sp.sp_args

let add_metric key f = add_arg key (F f)
let add_tag key s = add_arg key (S s)

let args sp = List.rev sp.sp_args

let find_arg sp key = List.assoc_opt key (args sp)

let metrics sp =
  List.filter_map
    (fun (k, v) -> match v with F f -> Some (k, f) | S _ -> None)
    (args sp)

let with_span ?(cat = "span") ?(args = []) name f =
  if not (Runtime.on ()) then f ()
  else begin
    let g0 = Gc.quick_stat () in
    (* [quick_stat]'s minor count moves only at a minor collection;
       [Gc.minor_words] also counts the current minor heap. *)
    let minor0 = Gc.minor_words () in
    let stack = stack () in
    let parent, depth =
      match !stack with
      | [] -> (-1, 0)
      | p :: _ -> (p.sp_id, p.sp_depth + 1)
    in
    let id = Atomic.fetch_and_add next_id 1 in
    let seq = Atomic.fetch_and_add next_seq 1 in
    let sp =
      {
        sp_id = id;
        sp_parent = parent;
        sp_depth = depth;
        sp_name = name;
        sp_cat = cat;
        sp_start_ns = Clock.now_ns ();
        sp_end_ns = 0.;
        sp_minor_words = 0.;
        sp_major_words = 0.;
        sp_heap_delta_words = 0;
        sp_args = List.rev_map (fun (k, v) -> (k, v)) args;
        sp_seq = seq;
        sp_seq_close = seq;
        sp_domain_id = (Domain.self () :> int);
      }
    in
    stack := sp :: !stack;
    let finish () =
      sp.sp_end_ns <- Clock.now_ns ();
      let g1 = Gc.quick_stat () in
      sp.sp_minor_words <- Gc.minor_words () -. minor0;
      sp.sp_major_words <- g1.Gc.major_words -. g0.Gc.major_words;
      sp.sp_heap_delta_words <- g1.Gc.heap_words - g0.Gc.heap_words;
      sp.sp_seq_close <- Atomic.fetch_and_add next_seq 1;
      (* Pop this span — and, defensively, anything an exception left
         above it. *)
      let rec pop = function
        | s :: rest when s != sp -> pop rest
        | s :: rest when s == sp -> rest
        | l -> l
      in
      stack := pop !stack;
      (* Merge into the shared buffer and stream to the manifest under
         one lock: concurrent closes on worker domains serialize here. *)
      Mutex.lock close_mutex;
      if !keep then completed := sp :: !completed;
      let hook = !on_close in
      Mutex.unlock close_mutex;
      hook sp
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        sp.sp_args <- ("error", S (Printexc.to_string e)) :: sp.sp_args;
        finish ();
        raise e
  end

(* The buffer is consed at the head, so [f]'s spans are the prefix in
   front of the list it started with. Unless the caller was already
   buffering under telemetry (a --trace-pipeline run), it is dropped. *)
let collect f =
  let was_on = Runtime.on () and was_keep = !keep and before = !completed in
  keep := true;
  let finish () =
    Mutex.lock close_mutex;
    let after = !completed in
    if not (was_on && was_keep) then completed := before;
    Mutex.unlock close_mutex;
    keep := was_keep;
    let rec added l =
      match l with
      | sp :: rest when l != before -> sp :: added rest
      | _ -> []
    in
    List.sort (fun a b -> compare a.sp_seq b.sp_seq) (added after)
  in
  match Runtime.with_enabled f with
  | v -> (v, finish ())
  | exception e ->
      ignore (finish ());
      raise e

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export                                           *)
(* ------------------------------------------------------------------ *)

type domain = Wall | Cycles

type event = {
  ev_name : string;
  ev_cat : string;
  ev_track : string;
  ev_domain : domain;
  ev_start : float;
  ev_dur : float;
  ev_args : (string * arg) list;
}

let arg_json = function F f -> Json.float f | S s -> Json.str s

let process = function
  | Wall -> (1, "calyx toolchain")
  | Cycles -> (2, "simulation (1 cycle = 1 us)")

let metadata kind pid tid name =
  Json.obj
    [
      ("ph", Json.str "M");
      ("name", Json.str kind);
      ("pid", Json.int pid);
      ("tid", Json.int tid);
      ("args", Json.obj [ ("name", Json.str name) ]);
    ]

(* One process per domain. Its tracks are numbered from 1 in name order, so
   the unnamed track [""] is thread 1 and has no thread_name record. *)
let chrome events =
  let tids = Hashtbl.create 8 in
  let metadata =
    List.concat_map
      (fun (domain, track) ->
        let pid, pname = process domain in
        let tid =
          Hashtbl.fold (fun (d, _) _ n -> if d = domain then n + 1 else n) tids 1
        in
        Hashtbl.replace tids (domain, track) tid;
        (if tid = 1 then [ metadata "process_name" pid 1 pname ] else [])
        @ if track = "" then [] else [ metadata "thread_name" pid tid track ])
      (List.sort_uniq compare
         (List.map (fun e -> (e.ev_domain, e.ev_track)) events))
  in
  let tid e = Hashtbl.find tids (e.ev_domain, e.ev_track) in
  let key e = (e.ev_domain, tid e, e.ev_start, -.e.ev_dur) in
  let event e =
    Json.obj
      [
        ("ph", Json.str "X");
        ("name", Json.str e.ev_name);
        ("cat", Json.str e.ev_cat);
        ("pid", Json.int (fst (process e.ev_domain)));
        ("tid", Json.int (tid e));
        ("ts", Json.float e.ev_start);
        ("dur", Json.float e.ev_dur);
        ("args", Json.obj (List.map (fun (k, v) -> (k, arg_json v)) e.ev_args));
      ]
  in
  Json.obj
    [
      ( "traceEvents",
        Json.arr
          (metadata
          @ List.map event
              (List.stable_sort (fun a b -> compare (key a) (key b)) events)) );
      ("displayTimeUnit", Json.str "ms");
    ]

(* [scrub] gives the golden-test form: deterministic open/close sequence
   numbers for timestamps, no GC or error args. It pins the span structure
   (names, categories, nesting, cycle counts, IR sizes) without the
   run-to-run timing noise. [design] events (the simulations' design
   spans) follow the buffered spans into the one document. *)
let to_chrome ?(scrub = false) ?(design = []) () =
  let event sp =
    let ev_start, ev_dur =
      if scrub then
        (float_of_int sp.sp_seq, float_of_int (sp.sp_seq_close - sp.sp_seq))
      else (sp.sp_start_ns /. 1e3, (sp.sp_end_ns -. sp.sp_start_ns) /. 1e3)
    in
    let ev_args =
      if scrub then
        List.filter
          (fun (k, v) -> match v with F _ -> k <> "seconds" | S _ -> k <> "error")
          (args sp)
      else
        args sp
        @ [
            ("gc_minor_words", F sp.sp_minor_words);
            ("gc_major_words", F sp.sp_major_words);
            ("gc_heap_delta_words", F (float_of_int sp.sp_heap_delta_words));
          ]
    in
    (* Spans run on other domains at the same time as the main domain's,
       so each domain gets a track of its own to nest on. *)
    let ev_track =
      if sp.sp_domain_id = 0 then ""
      else Printf.sprintf "domain %d" sp.sp_domain_id
    in
    { ev_name = sp.sp_name; ev_cat = sp.sp_cat; ev_track; ev_domain = Wall;
      ev_start; ev_dur; ev_args }
  in
  chrome (List.map event (spans ()) @ design)
