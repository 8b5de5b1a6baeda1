(* Aggregation of manifest corpora into per-source/per-stage rollups, and
   the gate behind `calyx report --baseline OLD.json BENCH_results.json`. *)

type rollup = {
  r_source : string;
  r_stage : string;
  r_cat : string;
  r_count : int;
  r_seconds : float;
  r_minor_words : float;
  r_major_words : float;
  r_data : (string * float) list;  (* summed numeric results *)
}

let merge_data acc data =
  List.fold_left
    (fun acc (k, v) ->
      match List.assoc_opt k acc with
      | Some prev -> (k, prev +. v) :: List.remove_assoc k acc
      | None -> acc @ [ (k, v) ])
    acc data

let aggregate events =
  (* First-seen order for both sources and stages keeps the report in
     pipeline order without imposing an alphabetical shuffle. *)
  let order : (string * string) list ref = ref [] in
  let table : (string * string, rollup) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (e : Manifest.event) ->
      let key = (e.Manifest.mf_source, e.Manifest.mf_stage) in
      match Hashtbl.find_opt table key with
      | None ->
          order := key :: !order;
          Hashtbl.replace table key
            {
              r_source = e.Manifest.mf_source;
              r_stage = e.Manifest.mf_stage;
              r_cat = e.Manifest.mf_cat;
              r_count = 1;
              r_seconds = e.Manifest.mf_seconds;
              r_minor_words = e.Manifest.mf_minor_words;
              r_major_words = e.Manifest.mf_major_words;
              r_data = e.Manifest.mf_data;
            }
      | Some r ->
          Hashtbl.replace table key
            {
              r with
              r_count = r.r_count + 1;
              r_seconds = r.r_seconds +. e.Manifest.mf_seconds;
              r_minor_words = r.r_minor_words +. e.Manifest.mf_minor_words;
              r_major_words = r.r_major_words +. e.Manifest.mf_major_words;
              r_data = merge_data r.r_data e.Manifest.mf_data;
            })
    events;
  List.rev_map (fun key -> Hashtbl.find table key) !order

let totals_by_source rollups =
  let order = ref [] in
  let table = Hashtbl.create 16 in
  List.iter
    (fun r ->
      (* Pass spans nest inside the compile stage span; summing only the
         "stage" rows keeps per-source totals from double-counting. *)
      if r.r_cat <> "pass" then begin
        if not (Hashtbl.mem table r.r_source) then order := r.r_source :: !order;
        let s, m =
          Option.value (Hashtbl.find_opt table r.r_source) ~default:(0., 0.)
        in
        Hashtbl.replace table r.r_source
          (s +. r.r_seconds, m +. r.r_minor_words)
      end)
    rollups;
  List.rev_map (fun src -> (src, Hashtbl.find table src)) !order

let fmt_words w =
  if Float.abs w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let render rollups =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-20s %-22s %5s %10s %10s %10s  %s\n" "source" "stage" "n"
       "wall_ms" "minor" "major" "metrics");
  List.iter
    (fun r ->
      let metrics =
        String.concat " "
          (List.map
             (fun (k, v) ->
               if Float.is_integer v then Printf.sprintf "%s=%.0f" k v
               else Printf.sprintf "%s=%.2f" k v)
             r.r_data)
      in
      Buffer.add_string buf
        (Printf.sprintf "%-20s %-22s %5d %10.3f %10s %10s  %s\n" r.r_source
           (if r.r_cat = "pass" then "  " ^ r.r_stage else r.r_stage)
           r.r_count (r.r_seconds *. 1000.)
           (fmt_words r.r_minor_words)
           (fmt_words r.r_major_words)
           metrics))
    rollups;
  (match totals_by_source rollups with
  | [] | [ _ ] -> ()
  | per_source ->
      Buffer.add_string buf "\nper-source totals (stage rows only):\n";
      List.iter
        (fun (src, (s, m)) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-20s %10.3f ms %10s minor\n" src (s *. 1000.)
               (fmt_words m)))
        per_source);
  Buffer.contents buf

let rollup_json r =
  Json.obj
    [
      ("source", Json.str r.r_source);
      ("stage", Json.str r.r_stage);
      ("cat", Json.str r.r_cat);
      ("count", Json.int r.r_count);
      ("seconds", Json.float r.r_seconds);
      ("gc_minor_words", Json.float r.r_minor_words);
      ("gc_major_words", Json.float r.r_major_words);
      ( "data",
        Json.obj (List.map (fun (k, v) -> (k, Json.float v)) r.r_data) );
    ]

let to_json rollups =
  Json.obj
    [
      ("rollups", Json.arr (List.map rollup_json rollups));
      ( "totals",
        Json.obj
          (List.map
             (fun (src, (s, m)) ->
               ( src,
                 Json.obj
                   [
                     ("seconds", Json.float s);
                     ("gc_minor_words", Json.float m);
                   ] ))
             (totals_by_source rollups)) );
    ]

(* ------------------------------------------------------------------ *)
(* The gate: a bench results file vs a baseline                         *)
(* ------------------------------------------------------------------ *)

(* Everything the bench harness records is deterministic except wall
   clock, so a deterministic leaf may move at most [leaf_tolerance_pct]
   percent; perf rows may slow down at most [perf_tolerance] relative to
   the machine factor. *)
let leaf_tolerance_pct = 5.
let perf_tolerance = 0.25

(* "_s" = wall-clock seconds; "_x" = ratios derived from wall clock (the
   engine experiment's speedups); Bechamel's "ns_per_run". *)
let time_key k =
  k = "ns_per_run"
  || String.ends_with ~suffix:"_s" k
  || String.ends_with ~suffix:"_x" k

(* (label, value) pairs for an experiment object: summary fields plus
   per-row fields; booleans (the "correct" checks) count as 0/1 so a
   correctness flip shows up as a 100% delta. *)
let leaves exp_value =
  let fields prefix = function
    | Json.Object fs ->
        List.filter_map
          (fun (k, v) ->
            match (v : Json.value) with
            | _ when time_key k -> None
            | Json.Number f -> Some (prefix ^ k, f)
            | Json.Bool b -> Some (prefix ^ k, if b then 1. else 0.)
            | _ -> None)
          fs
    | _ -> []
  in
  (* Rows are labelled by their identifying field when present, so the
     report stays readable if the row order ever changes. *)
  let row_id i row =
    match
      (Json.member "kernel" row, Json.member "n" row, Json.member "design" row)
    with
    | Some (Json.String s), _, _ -> s
    | _, Some (Json.Number n), _ -> Printf.sprintf "n=%d" (int_of_float n)
    | _, _, Some (Json.String s) -> s
    | _ -> string_of_int i
  in
  (match Json.member "summary" exp_value with
  | Some s -> fields "summary." s
  | None -> [])
  @
  match Json.member "rows" exp_value with
  | Some (Json.Array rows) ->
      List.concat
        (List.mapi
           (fun i row -> fields (Printf.sprintf "rows[%s]." (row_id i row)) row)
           rows)
  | _ -> []

type leaf = {
  l_experiment : string;
  l_label : string;
  l_base : float option;  (* None: not in the baseline *)
  l_cur : float;
}

let leaf_delta_pct l =
  match l.l_base with
  | None -> 0.
  | Some b when b = 0. -> if l.l_cur = 0. then 0. else Float.infinity
  | Some b -> 100. *. (l.l_cur -. b) /. Float.abs b

let leaf_failed l = Float.abs (leaf_delta_pct l) > leaf_tolerance_pct

type perf_delta = {
  p_name : string;
  p_base_ns : float;
  p_cur_ns : float;
  p_ratio : float;  (* cur / base *)
  p_normalized : float;  (* ratio / machine factor *)
  p_regressed : bool;
}

let geomean = function
  | [] -> nan
  | l ->
      exp
        (List.fold_left (fun a x -> a +. log x) 0. l
        /. float_of_int (List.length l))

let perf_rows v =
  match Option.bind (Json.member "perf" v) (Json.member "rows") with
  | Some (Json.Array rows) ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (Json.member "name" row) Json.to_string,
              Option.bind (Json.member "ns_per_run" row) Json.to_float )
          with
          | Some name, Some ns when ns > 0. -> Some (name, ns)
          | _ -> None)
        rows
  | _ -> []

(* Raw ns_per_run is machine-dependent, so comparing a laptop baseline on
   a CI runner with an absolute threshold would always fire. The machine
   factor — the geomean of all cur/base ratios — captures the overall
   speed difference; a row regresses only when its own ratio exceeds the
   factor by more than [perf_tolerance] (a *relative* slowdown: this
   operation got slower than the toolchain as a whole did). *)
let compare_perf ~baseline ~current =
  let base = perf_rows baseline and cur = perf_rows current in
  let paired =
    List.filter_map
      (fun (name, c) ->
        Option.map (fun b -> (name, b, c)) (List.assoc_opt name base))
      cur
  in
  let factor = geomean (List.map (fun (_, b, c) -> c /. b) paired) in
  let factor = if Float.is_nan factor then 1. else factor in
  let deltas =
    List.map
      (fun (name, b, c) ->
        let ratio = c /. b in
        let normalized = ratio /. factor in
        {
          p_name = name;
          p_base_ns = b;
          p_cur_ns = c;
          p_ratio = ratio;
          p_normalized = normalized;
          p_regressed = normalized > 1. +. perf_tolerance;
        })
      paired
  in
  (deltas, factor)

type gate = {
  g_leaves : leaf list;  (* every deterministic leaf of the current file *)
  g_skipped : string list;  (* experiments missing from the baseline *)
  g_perf : perf_delta list;
  g_factor : float;
}

let gate ~baseline ~current =
  let compared, skipped =
    List.partition
      (fun name -> Json.member name baseline <> None)
      (List.filter (fun name -> name <> "perf") (Json.keys current))
  in
  let leaves_of name =
    let of_file v = Option.fold ~none:[] ~some:leaves (Json.member name v) in
    let base = of_file baseline in
    List.map
      (fun (label, c) ->
        {
          l_experiment = name;
          l_label = label;
          l_base = List.assoc_opt label base;
          l_cur = c;
        })
      (of_file current)
  in
  let perf, factor = compare_perf ~baseline ~current in
  {
    g_leaves = List.concat_map leaves_of compared;
    g_skipped = skipped;
    g_perf = perf;
    g_factor = factor;
  }

let failed g =
  List.exists leaf_failed g.g_leaves
  || List.exists (fun d -> d.p_regressed) g.g_perf

let render_gate g =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.bprintf buf fmt in
  let count p l = List.length (List.filter p l) in
  line "deterministic metrics (threshold ±%.1f%%):\n" leaf_tolerance_pct;
  List.iter
    (fun l ->
      match l.l_base with
      | None ->
          line "  %-15s %-40s new metric (%.4g)\n" l.l_experiment l.l_label
            l.l_cur
      | Some b ->
          let delta = leaf_delta_pct l in
          if delta <> 0. then
            line "  %-15s %-40s %14.6g -> %-14.6g %+8.2f%%%s\n"
              l.l_experiment l.l_label b l.l_cur delta
              (if leaf_failed l then "  REGRESSION" else ""))
    g.g_leaves;
  List.iter (line "  %-15s not in baseline (skipped)\n") g.g_skipped;
  let compared = List.filter (fun l -> l.l_base <> None) g.g_leaves in
  line "%d metrics compared, %d changed, %d past the threshold\n"
    (List.length compared)
    (count (fun l -> leaf_delta_pct l <> 0.) compared)
    (count leaf_failed compared);
  line "\ncompile time (machine factor %.3fx, threshold +%.0f%% relative):\n"
    g.g_factor (perf_tolerance *. 100.);
  line "%-46s %14s %14s %9s %9s\n" "operation" "baseline_ns" "current_ns"
    "ratio" "relative";
  List.iter
    (fun d ->
      line "%-46s %14.1f %14.1f %8.2fx %8.2fx%s\n" d.p_name d.p_base_ns
        d.p_cur_ns d.p_ratio d.p_normalized
        (if d.p_regressed then "  REGRESSION" else ""))
    g.g_perf;
  line "%d of %d operations regressed\n"
    (count (fun d -> d.p_regressed) g.g_perf)
    (List.length g.g_perf);
  Buffer.contents buf
