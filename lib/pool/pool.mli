(** A worker pool over OCaml 5 domains: the farm's scheduler, and a
    two-way fork-join for one job with two independent halves.

    One shared queue (an atomic next-index over the input array — the
    simplest correct work distribution for jobs this coarse), [jobs]
    workers including the calling domain, results returned in input
    order regardless of completion order. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size used when the
    caller does not pass [--jobs]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item, [jobs] at a time, and
    returns the results in the order of [items]. [jobs <= 1] degrades to
    a plain sequential [List.map] on the calling domain (no domains are
    spawned), which is the reference behaviour the determinism suite
    compares parallel runs against.

    If [f] raises, remaining unstarted items are abandoned and the first
    exception (in completion order) is re-raised on the calling domain
    after all workers have joined. Callers that need per-item failures
    should catch inside [f]. *)

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both f g] is [(f (), g ())]: [f] runs on the calling domain while
    [g] runs on the process's one helper domain, and [both] returns once
    both have finished. The helper is spawned on the first such call and
    reused by later ones. It exits after half a second without a job,
    and when a {!map} starts (no [both] can use it then); the next call
    spawns it again.

    [both] runs [f] and then [g] on the calling domain instead when
    [Domain.recommended_domain_count () = 1], while a parallel {!map}
    runs, or while the helper is busy (so also when called from inside
    [g]). So [both] computes on two domains only on a machine with two
    or more cores and only while no map runs. [f] and [g] may run at the
    same time, so they must not share mutable state.

    If only one side raises, its exception is re-raised with its
    backtrace; if both raise, [f]'s is, as in the sequential order. On
    the helper, [g] runs to completion even when [f] raises; in the
    sequential fallback it does not run at all. *)
