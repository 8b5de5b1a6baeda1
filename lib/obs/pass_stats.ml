open Calyx
module Trace = Calyx_telemetry.Trace
module Json = Calyx_telemetry.Json

type row = {
  pass : string;
  description : string;
  seconds : float;
  minor_words : int;
  before : Pass.counts;
  after : Pass.counts;
  timing_before : (int * float) option;
  timing_after : (int * float) option;
  reused_assignments : int;
  rechecked_assignments : int;
}

type t = row list

let revalidate_of spans (sp : Trace.span) =
  List.find_opt
    (fun (child : Trace.span) ->
      child.sp_parent = sp.sp_id && child.sp_name = "revalidate")
    spans

let self_seconds spans sp =
  match revalidate_of spans sp with
  | Some child -> Trace.seconds sp -. Trace.seconds child
  | None -> Trace.seconds sp

let self_minor_words spans (sp : Trace.span) =
  int_of_float
    (match revalidate_of spans sp with
    | Some child -> sp.sp_minor_words -. child.sp_minor_words
    | None -> sp.sp_minor_words)

(* The revalidate span's metric [k] (0 without one). *)
let recheck_count spans sp k =
  match revalidate_of spans sp with
  | Some child ->
      int_of_float
        (Option.value ~default:0. (List.assoc_opt k (Trace.metrics child)))
  | None -> 0

(* Per-pass timing: mid-pipeline (structured) contexts are analyzed as
   their merged netlist, which can exhibit cycles that lowering later
   resolves — those passes report no timing rather than failing. *)
let timing_of ctx =
  match Calyx_synth.Timing.context_timing ~paths:1 ctx with
  | r -> Some (r.Calyx_synth.Timing.delay_ps, r.Calyx_synth.Timing.fmax_mhz)
  | exception (Calyx_synth.Timing.Combinational_loop _ | Ir.Ir_error _) -> None

let replay config ctx f =
  let step (ctx, acc) (p : Pass.t) =
    let ctx = p.Pass.transform ctx in
    (ctx, f ctx :: acc)
  in
  List.rev (snd (List.fold_left step (ctx, [ f ctx ]) (Pipelines.passes config)))

(* The compile span's counts are the input's; each pass span's, its
   output's — so a pass's before-counts are the previous span's. *)
let compile ?(config = Pipelines.default_config) ctx =
  let lowered, spans =
    Trace.collect (fun () -> Pipelines.compile ~config ctx)
  in
  let top = List.find (fun (sp : Trace.span) -> sp.sp_name = "compile") spans in
  let pass_spans =
    List.filter
      (fun (sp : Trace.span) -> sp.sp_parent = top.sp_id && sp.sp_cat = "pass")
      spans
  in
  let counts =
    Array.of_list
      (List.map (fun sp -> Option.get (Pass.span_counts sp)) (top :: pass_spans))
  in
  let timings = Array.of_list (replay config ctx timing_of) in
  ( lowered,
    List.mapi
      (fun i ((p : Pass.t), sp) ->
        {
          pass = p.Pass.name;
          description = p.Pass.description;
          seconds = self_seconds spans sp;
          minor_words = self_minor_words spans sp;
          before = counts.(i);
          after = counts.(i + 1);
          timing_before = timings.(i);
          timing_after = timings.(i + 1);
          reused_assignments = recheck_count spans sp "reused_assignments";
          rechecked_assignments =
            recheck_count spans sp "rechecked_assignments";
        })
      (List.combine (Pipelines.passes config) pass_spans) )

let total_seconds t = List.fold_left (fun acc r -> acc +. r.seconds) 0. t

let delta before after =
  if after = before then Printf.sprintf "%d" after
  else Printf.sprintf "%d->%d (%+d)" before after (after - before)

let odelta fmt before after =
  match (before, after) with
  | Some b, Some a ->
      if a = b then fmt a else Printf.sprintf "%s->%s" (fmt b) (fmt a)
  | _ -> "-"

let render t =
  let delay = Option.map fst and fmax = Option.map snd in
  let rows =
    [ "pass"; "ms"; "minor_words"; "cells"; "groups"; "assigns"; "control";
      "depth_ps"; "fmax_mhz"; "reused"; "rechecked" ]
    :: List.map
         (fun r ->
           let b = r.before and a = r.after in
           [
             r.pass;
             Printf.sprintf "%.2f" (r.seconds *. 1000.);
             string_of_int r.minor_words;
             delta b.Pass.cells a.Pass.cells;
             delta b.Pass.groups a.Pass.groups;
             delta b.Pass.assignments a.Pass.assignments;
             delta b.Pass.control_nodes a.Pass.control_nodes;
             odelta string_of_int (delay r.timing_before)
               (delay r.timing_after);
             odelta
               (fun f -> Printf.sprintf "%.0f" f)
               (fmax r.timing_before) (fmax r.timing_after);
             string_of_int r.reused_assignments;
             string_of_int r.rechecked_assignments;
           ])
         t
  in
  Tables.render rows
  ^ Printf.sprintf "total: %.2f ms over %d passes\n"
      (total_seconds t *. 1000.)
      (List.length t)

let counts_json (c : Pass.counts) =
  Json.obj
    [
      ("components", Json.int c.Pass.components);
      ("cells", Json.int c.Pass.cells);
      ("groups", Json.int c.Pass.groups);
      ("assignments", Json.int c.Pass.assignments);
      ("control_nodes", Json.int c.Pass.control_nodes);
    ]

let to_json t =
  let delay = function Some (d, _) -> Json.int d | None -> Json.null in
  let fmax = function Some (_, f) -> Json.float f | None -> Json.null in
  let passes =
    List.map
      (fun r ->
        Json.obj
          [
            ("name", Json.str r.pass);
            ("description", Json.str r.description);
            ("seconds", Json.float r.seconds);
            ("minor_words", Json.int r.minor_words);
            ("before", counts_json r.before);
            ("after", counts_json r.after);
            ("delay_ps_before", delay r.timing_before);
            ("delay_ps_after", delay r.timing_after);
            ("fmax_mhz_before", fmax r.timing_before);
            ("fmax_mhz_after", fmax r.timing_after);
            ("reused_assignments", Json.int r.reused_assignments);
            ("rechecked_assignments", Json.int r.rechecked_assignments);
          ])
      t
  in
  Json.obj
    [
      ("passes", Json.arr passes);
      ("total_seconds", Json.float (total_seconds t));
    ]
