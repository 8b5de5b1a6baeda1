open Calyx
module Sim = Calyx_sim.Sim

type arm_report = {
  ar_path : string;
  ar_label : string;
  ar_cycles : int;
  ar_slack : int;
  ar_expected : int option;
  ar_mismatch : bool;
}

type par_report = {
  pr_instance : string;
  pr_component : string;
  pr_path : string;
  pr_enter : int;
  pr_cycles : int;
  pr_bottleneck : string;
  pr_arms : arm_report list;
}

let join p q = if p = "" then q else p ^ "." ^ q

(* Expected arm duration as the interpreter measures it, for arms that are
   plain group enables: the derived latency, plus the done-observation
   cycle unless the group's done hole is combinational. Composite arms get
   no expectation (their latency composes control overhead this analysis is
   precisely there to measure). *)
let arm_expectation ctx comp (node : Ir.control) =
  match node with
  | Ir.Enable (g, _) -> (
      match Ir.find_group_opt comp g with
      | None -> None
      | Some grp ->
          Option.map
            (fun d ->
              if Profile.combinational_done grp then d else d + 1)
            (Infer_latency.derived_group_latency ctx comp grp))
  | _ -> None

let analyze ctx sim spans_t =
  let by_node : (string * int, (int * int) list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (s : Spans.span) ->
      if s.Spans.sp_node >= 0 then begin
        let key = (s.Spans.sp_thread, s.Spans.sp_node) in
        let l =
          match Hashtbl.find_opt by_node key with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.replace by_node key l;
              l
        in
        l := (s.Spans.sp_enter, s.Spans.sp_exit) :: !l
      end)
    (Spans.spans spans_t);
  let occurrences key =
    match Hashtbl.find_opt by_node key with
    | None -> []
    | Some l -> List.sort compare !l
  in
  let reports = ref [] in
  List.iter
    (fun (inst, comp_name) ->
      match Ir.find_component_opt ctx comp_name with
      | None -> ()
      | Some comp ->
          let pre = Ir.control_preorder comp.Ir.control in
          let id_by_path = Hashtbl.create 16 in
          List.iter
            (fun (id, path, _) -> Hashtbl.replace id_by_path path id)
            pre;
          List.iter
            (fun (_, path, node) ->
              match node with
              | Ir.Par (cs, _) ->
                  let arms =
                    (* arm indices are positions in the original child
                       list, Empty children included, to match the paths
                       iter_control_path assigns *)
                    List.concat
                      (List.mapi
                         (fun i c ->
                           if c = Ir.Empty then []
                           else
                             let arm_path =
                               join path (Printf.sprintf "par[%d]" i)
                             in
                             match Hashtbl.find_opt id_by_path arm_path with
                             | None -> []
                             | Some id ->
                                 [
                                   ( arm_path,
                                     Ir.control_node_label c,
                                     id,
                                     arm_expectation ctx comp c );
                                 ])
                         cs)
                  in
                  let par_id = Hashtbl.find id_by_path path in
                  List.iter
                    (fun (p_enter, p_exit) ->
                      let measured =
                        List.map
                          (fun (arm_path, label, id, expected) ->
                            let cycles =
                              match
                                List.find_opt
                                  (fun (en, ex) ->
                                    en >= p_enter && ex <= p_exit)
                                  (occurrences (inst, id))
                              with
                              | Some (en, ex) -> ex - en + 1
                              | None -> 0
                            in
                            (arm_path, label, cycles, expected))
                          arms
                      in
                      let bottleneck_cycles =
                        List.fold_left
                          (fun m (_, _, c, _) -> max m c)
                          0 measured
                      in
                      let bottleneck =
                        match
                          List.find_opt
                            (fun (_, _, c, _) -> c = bottleneck_cycles)
                            measured
                        with
                        | Some (p, _, _, _) -> p
                        | None -> "-"
                      in
                      reports :=
                        {
                          pr_instance = inst;
                          pr_component = comp_name;
                          pr_path = path;
                          pr_enter = p_enter;
                          pr_cycles = p_exit - p_enter + 1;
                          pr_bottleneck = bottleneck;
                          pr_arms =
                            List.map
                              (fun (arm_path, label, cycles, expected) ->
                                {
                                  ar_path = arm_path;
                                  ar_label = label;
                                  ar_cycles = cycles;
                                  ar_slack = bottleneck_cycles - cycles;
                                  ar_expected = expected;
                                  ar_mismatch =
                                    (match expected with
                                    | Some e -> e <> cycles
                                    | None -> false);
                                })
                              measured;
                        }
                        :: !reports)
                    (occurrences (inst, par_id))
              | _ -> ())
            pre)
    (Sim.instances sim);
  List.sort
    (fun a b ->
      compare
        (a.pr_instance, a.pr_path, a.pr_enter)
        (b.pr_instance, b.pr_path, b.pr_enter))
    (List.rev !reports)

let mismatches reports =
  List.concat_map
    (fun pr -> List.filter (fun a -> a.ar_mismatch) pr.pr_arms)
    reports

let render ?period_ns reports =
  if reports = [] then "no par statements executed\n"
  else begin
    let buf = Buffer.create 512 in
    let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    List.iteri
      (fun i pr ->
        if i > 0 then Buffer.add_char buf '\n';
        let where = if pr.pr_path = "" then "par" else "par " ^ pr.pr_path in
        let inst =
          if pr.pr_instance = "" then "" else " in " ^ pr.pr_instance
        in
        let wall =
          match period_ns with
          | None -> ""
          | Some p ->
              Printf.sprintf " (%.1f ns @ %.2f ns/cycle)"
                (float_of_int pr.pr_cycles *. p)
                p
        in
        pf "%s (component %s%s), cycles %d-%d: %d cycles%s, bottleneck %s\n"
          where pr.pr_component inst pr.pr_enter
          (pr.pr_enter + pr.pr_cycles - 1)
          pr.pr_cycles wall pr.pr_bottleneck;
        let header =
          [ "arm"; "label"; "cycles"; "slack" ]
          @ (if period_ns = None then [] else [ "slack_ns" ])
          @ [ "expected"; "check" ]
        in
        Tables.add_table buf
          (header
          :: List.map
               (fun a ->
                 [
                   a.ar_path;
                   a.ar_label;
                   string_of_int a.ar_cycles;
                   string_of_int a.ar_slack;
                 ]
                 @ (match period_ns with
                   | None -> []
                   | Some p ->
                       [
                         Printf.sprintf "%.1f" (float_of_int a.ar_slack *. p);
                       ])
                 @ [
                     (match a.ar_expected with
                     | None -> "-"
                     | Some e -> string_of_int e);
                     (if a.ar_mismatch then "MISMATCH"
                      else
                        match a.ar_expected with
                        | None -> "-"
                        | Some _ -> "ok");
                   ])
               pr.pr_arms))
      reports;
    Buffer.contents buf
  end

let to_json ?period_ns reports =
  let opt_json = function None -> Json.null | Some n -> Json.int n in
  let ns cycles =
    match period_ns with
    | None -> []
    | Some p -> [ ("ns", Json.float (float_of_int cycles *. p)) ]
  in
  Json.arr
    (List.map
       (fun pr ->
         Json.obj
           ([
              ("instance", Json.str pr.pr_instance);
              ("component", Json.str pr.pr_component);
              ("path", Json.str pr.pr_path);
              ("enter", Json.int pr.pr_enter);
              ("cycles", Json.int pr.pr_cycles);
            ]
           @ ns pr.pr_cycles
           @ [
               ("bottleneck", Json.str pr.pr_bottleneck);
               ( "arms",
                 Json.arr
                   (List.map
                      (fun a ->
                        Json.obj
                          ([
                             ("path", Json.str a.ar_path);
                             ("label", Json.str a.ar_label);
                             ("cycles", Json.int a.ar_cycles);
                             ("slack", Json.int a.ar_slack);
                           ]
                          @ (match period_ns with
                            | None -> []
                            | Some p ->
                                [
                                  ( "slack_ns",
                                    Json.float
                                      (float_of_int a.ar_slack *. p) );
                                ])
                          @ [
                              ("expected", opt_json a.ar_expected);
                              ("mismatch", Json.bool a.ar_mismatch);
                            ]))
                      pr.pr_arms) );
             ]))
       reports)
