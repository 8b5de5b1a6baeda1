(** Minimal JSON emission helpers.

    The repository deliberately carries no JSON dependency; every machine
    output ({!Diagnostics.to_json}, the pass-statistics and profile reports
    of [calyx_obs], the benchmark results file) is assembled from these
    combinators. Values are pre-serialized fragments ([string]s containing
    valid JSON), composed bottom-up. *)

val escape : string -> string
(** Backslash-escape a string body (no surrounding quotes). *)

val str : string -> string
(** A JSON string literal, quoted and escaped. *)

val int : int -> string
val bool : bool -> string
val null : string

val float : float -> string
(** Shortest round-trippable decimal; non-finite values emit [null]
    (JSON has no representation for them). *)

val obj : (string * string) list -> string
(** An object from (key, serialized value) pairs, in the given order. *)

val arr : string list -> string
(** An array of serialized values. *)

(** {1 Parsing}

    A small recursive-descent reader, enough to consume this repository's
    own machine outputs ([calyx report --baseline] gates one
    [BENCH_results.json] file against another; the test suite validates coverage reports
    and span traces). Numbers are represented as [float] — exact for the
    integer ranges these files contain. *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of value list
  | Object of (string * value) list

exception Parse_error of string

val parse : string -> value
(** Parse a complete JSON document; raises {!Parse_error} (with the byte
    offset) on malformed input or trailing garbage. *)

val parse_located : file:string -> ?line:int -> string -> value
(** {!parse} for text read from [file], starting at its line [line]
    (default 1): the {!Parse_error} message starts with ["FILE:LINE: "],
    the line of the offending byte. *)

val member : string -> value -> value option
(** Field lookup on an [Object]; [None] on other values. *)

val to_float : value -> float option
val to_string : value -> string option
val to_list : value -> value list option

val keys : value -> string list
(** Field names of an [Object], in document order; [[]] otherwise. *)
