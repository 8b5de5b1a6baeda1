(** The content-addressed result cache ([_calyx_cache/]).

    One JSON blob per cache key; the key is the FNV-1a hash of
    [(tool version, source text, pass-pipeline id, engine)], so any
    change to what is compiled, how it is compiled, or how it is
    executed addresses a different entry. Blobs carry an integrity hash
    of their payload: a corrupted or truncated blob is detected on read,
    evicted, and reported as a miss — the farm then falls back to a cold
    compile instead of serving (or crashing on) damaged state.

    All operations are safe to call from concurrent farm workers, and
    from several processes sharing one cache directory: stats are
    mutex-guarded and blob writes go through a per-process, per-domain
    temp file renamed into place, so concurrent writers of the same key
    are atomic at the filesystem level. *)

type t

type stats = {
  hits : int;  (** Verified blobs served. *)
  misses : int;  (** Absent keys (corrupt blobs also count a miss). *)
  stores : int;  (** Blobs written. *)
  evictions : int;  (** Corrupt or undecodable blobs deleted. *)
}

val tool_version : string
(** The toolchain-identity component of every key. Bump it whenever
    compiler or simulator {e semantics} change in a way the pass-pipeline
    id cannot see (a pass keeps its name but changes behaviour, a
    primitive's latency is fixed, the result-record format evolves) —
    stale entries then simply miss instead of serving wrong results. *)

val open_dir : string -> t
(** Open (creating if needed) a cache rooted at the given directory. *)

val dir : t -> string

val key : source:string -> pipeline:string -> engine:string -> string
(** The content address: 16 hex digits over tool version + the three
    identity components, each length-prefixed so component boundaries
    cannot collide. *)

val path : t -> key:string -> string
(** Where the blob for [key] lives (exists or not). *)

val find : t -> key:string -> string option
(** The verified payload stored under [key], or [None] (counted as a
    miss). A blob that fails parsing, key or tool-version match, or the
    payload integrity check is deleted (counted as an eviction as well as
    a miss) — never returned and never fatal. *)

val store : t -> key:string -> string -> unit
(** Persist a payload under [key] (atomic write + rename). *)

val evict : t -> key:string -> unit
(** Delete a blob that decoded to garbage above the cache layer (e.g. a
    payload the current result schema cannot read); counted as an
    eviction. *)

val entries : t -> int
(** Number of blobs currently on disk. *)

val stats : t -> stats
(** A snapshot of the counters. *)
