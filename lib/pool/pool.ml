(* Work distribution for the farm: an atomic claim index over the input
   array. Jobs are whole compile→sim→validate pipelines (milliseconds to
   seconds each), so claim overhead is irrelevant and a deque buys
   nothing; what matters is that results land at their input index, so
   the output order — and therefore every downstream rendering — is
   independent of scheduling.

   Beside it, [both]: a two-way fork-join on one helper domain, for
   callers whose one job splits into two independent halves. [both] runs
   sequentially while a map runs or the helper is busy, so a map's
   workers and the helper never compute side by side. *)

let cores = Domain.recommended_domain_count ()
let default_jobs () = cores

let lock = Mutex.create ()

(* The helper's state, all under [lock]. [busy] is set by the [both] that
   claims the helper and cleared by that same [both] once it has joined;
   the helper computes only while it is set. [live] is false once the
   helper has decided to exit; whoever spawns the next one joins it. *)
let busy = ref false
let maps = ref 0
let live = ref false
let helper : unit Domain.t option ref = ref None
let job : (unit -> unit) option ref = ref None
let finished = Condition.create ()

(* A parked helper slows allocating code on the other domains, so it
   exits after [idle_s] without a job, and when a map starts. It waits on
   a pipe with [Unix.select], the one wait in the standard distribution
   that takes a timeout; every job, and every request to leave, writes
   one byte to it. *)
let idle_s = 0.5
let wake = lazy (Unix.pipe ~cloexec:true ())

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let post () =
  let _, w = Lazy.force wake in
  ignore (Unix.write_substring w "j" 0 1 : int)

let rec serve () =
  let r, _ = Lazy.force wake in
  (match Unix.select [ r ] [] [] idle_s with
  | _ :: _, _, _ -> ignore (Unix.read r (Bytes.create 1) 0 1 : int)
  | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> ());
  (* With no job posted, a [both] that has claimed the helper is about to
     post one; otherwise the helper has idled or been asked to leave. *)
  let next =
    locked (fun () ->
        match !job with
        | Some j ->
            job := None;
            Some j
        | None when !busy -> Some ignore
        | None ->
            live := false;
            None)
  in
  Option.iter
    (fun j ->
      j ();
      serve ())
    next

(* Claim the helper for one [both]: false on one core, while a map runs,
   or while the helper is busy — which is also the case when [both] is
   called from the helper itself. *)
let claim () =
  cores > 1
  && locked (fun () ->
         let free = (not !busy) && !maps = 0 in
         if free then begin
           if not !live then begin
             ignore (Lazy.force wake);
             Option.iter Domain.join !helper;
             helper := Some (Domain.spawn serve);
             live := true
           end;
           busy := true
         end;
         free)

let outcome f =
  match f () with
  | v -> Ok v
  | exception e -> Error (e, Printexc.get_raw_backtrace ())

let both f g =
  if not (claim ()) then begin
    let a = f () in
    (a, g ())
  end
  else begin
    let b = ref None in
    (* Backtrace recording is per domain, and off in a spawned one. *)
    let backtraces = Printexc.backtrace_status () in
    locked (fun () ->
        job :=
          Some
            (fun () ->
              Printexc.record_backtrace backtraces;
              let r = outcome g in
              locked (fun () ->
                  b := Some r;
                  Condition.signal finished));
        post ());
    let a = outcome f in
    let b =
      locked (fun () ->
          while Option.is_none !b do
            Condition.wait finished lock
          done;
          busy := false;
          Option.get !b)
    in
    match (a, b) with
    | Ok a, Ok b -> (a, b)
    | Error (e, bt), _ | Ok _, Error (e, bt) ->
        Printexc.raise_with_backtrace e bt
  end

let map ~jobs f items =
  match items with
  | [] -> []
  | _ when jobs <= 1 -> List.map f items
  | _ ->
      let inputs = Array.of_list items in
      let n = Array.length inputs in
      let results = Array.make n None in
      let next = Atomic.make 0 in
      let failure = Atomic.make None in
      let worker () =
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n || Atomic.get failure <> None then continue := false
          else
            match f inputs.(i) with
            | v -> results.(i) <- Some v
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                ignore
                  (Atomic.compare_and_set failure None (Some (e, bt)))
        done
      in
      (* No [both] uses the helper while a map runs, so an idle one is
         asked to leave and joined before the workers start. *)
      let idle =
        locked (fun () ->
            incr maps;
            if !live && not !busy then begin
              post ();
              let h = !helper in
              helper := None;
              h
            end
            else None)
      in
      Fun.protect ~finally:(fun () -> locked (fun () -> decr maps))
      @@ fun () ->
      Option.iter Domain.join idle;
      let domains = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
      (* The calling domain is the last worker: [--jobs N] means N
         domains computing, not N+1. *)
      worker ();
      List.iter Domain.join domains;
      (match Atomic.get failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.to_list (Array.map Option.get results)
