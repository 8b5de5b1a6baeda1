module Tele = Calyx_telemetry

(* Bump on any semantic change the pass-pipeline id cannot express — see
   the .mli. The version string participates in every key, so a bump
   invalidates the whole cache at the cost of one cold sweep. *)
let tool_version = "calyx-farm/1"

type stats = { hits : int; misses : int; stores : int; evictions : int }

type t = {
  c_dir : string;
  c_mutex : Mutex.t;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_stores : int;
  mutable c_evictions : int;
}

let open_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  {
    c_dir = dir;
    c_mutex = Mutex.create ();
    c_hits = 0;
    c_misses = 0;
    c_stores = 0;
    c_evictions = 0;
  }

let dir c = c.c_dir

let counted c f =
  Mutex.lock c.c_mutex;
  f c;
  Mutex.unlock c.c_mutex

(* Length-prefix each component so ("ab","c") and ("a","bc") cannot
   produce the same preimage. *)
let key ~source ~pipeline ~engine =
  let part s = string_of_int (String.length s) ^ ":" ^ s in
  Tele.Manifest.hash
    (part tool_version ^ part source ^ part pipeline ^ part engine)

let path c ~key = Filename.concat c.c_dir (key ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Blob format: the payload is carried as a JSON *string* so the exact
   byte sequence that was hashed for integrity round-trips unchanged
   through the parser. *)
let blob ~key payload =
  Tele.Json.obj
    [
      ("tool", Tele.Json.str tool_version);
      ("key", Tele.Json.str key);
      ("integrity", Tele.Json.str (Tele.Manifest.hash payload));
      ("payload", Tele.Json.str payload);
    ]

let verify ~key text =
  match Tele.Json.parse text with
  | exception Tele.Json.Parse_error _ -> None
  | v -> (
      let field k = Option.bind (Tele.Json.member k v) Tele.Json.to_string in
      match (field "tool", field "key", field "integrity", field "payload") with
      | Some tool, Some k, Some integrity, Some payload
        when tool = tool_version && k = key
             && integrity = Tele.Manifest.hash payload ->
          Some payload
      | _ -> None)

let delete_blob c ~key =
  (try Sys.remove (path c ~key) with Sys_error _ -> ());
  counted c (fun c -> c.c_evictions <- c.c_evictions + 1)

let evict = delete_blob

let find c ~key =
  let p = path c ~key in
  match read_file p with
  | exception Sys_error _ ->
      counted c (fun c -> c.c_misses <- c.c_misses + 1);
      None
  | text -> (
      match verify ~key text with
      | Some payload ->
          counted c (fun c -> c.c_hits <- c.c_hits + 1);
          Some payload
      | None ->
          (* Corrupt, truncated, foreign-version, or hash-colliding blob:
             evict it and fall back to a cold compile. *)
          delete_blob c ~key;
          counted c (fun c -> c.c_misses <- c.c_misses + 1);
          None)

let store c ~key payload =
  let final = path c ~key in
  (* Per-process, per-domain temp name: concurrent stores never share a
     temp file, so writers storing the same key — other domains or other
     processes on a shared cache directory — each rename a complete blob
     into place (last writer wins with identical content). *)
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" final (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (blob ~key payload));
  Sys.rename tmp final;
  counted c (fun c -> c.c_stores <- c.c_stores + 1)

let entries c =
  match Sys.readdir c.c_dir with
  | exception Sys_error _ -> 0
  | files ->
      Array.fold_left
        (fun n f -> if Filename.check_suffix f ".json" then n + 1 else n)
        0 files

let stats c =
  Mutex.lock c.c_mutex;
  let s =
    {
      hits = c.c_hits;
      misses = c.c_misses;
      stores = c.c_stores;
      evictions = c.c_evictions;
    }
  in
  Mutex.unlock c.c_mutex;
  s
