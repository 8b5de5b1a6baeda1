(* The compiled engine and the Sched graph module it runs on: unit tests
   for levelization, dirty-set evaluation and the cyclic-remainder
   worklist, then wire-level checks of the compiled engine against the
   reference fixpoint engine on the shared sample programs. Every signal
   must hold the oracle's value on every cycle — a node the dirty set
   failed to re-evaluate shows up here even when the final state happens
   to agree. The error paths (Conflict, Unstable and Timeout) must fire at
   the same cycle with the same message after the same wire history, and
   carry the same status snapshot. Compiled simulations also run sharded
   across domains. *)

open Calyx

module Sim = Calyx_sim.Sim
module Sched = Calyx_sim.Sched
module Pool = Calyx_pool.Pool

(* ------------------------------------------------------------------ *)
(* Sched: the graph scheduler in isolation                             *)
(* ------------------------------------------------------------------ *)

(* A diamond DAG over slots a=0 b=1 c=2 d=3:
     node 0 writes a; nodes 1,2 read a and write b,c; node 3 reads b,c. *)
let diamond () =
  Sched.build ~slots:4
    ~nodes:
      [|
        ([], [], [ 0 ]);
        ([ 0 ], [], [ 1 ]);
        ([ 0 ], [], [ 2 ]);
        ([ 1; 2 ], [], [ 3 ]);
      |]

let test_levels () =
  let g = diamond () in
  Alcotest.(check int) "source level" 0 (Sched.level g 0);
  Alcotest.(check int) "left level" 1 (Sched.level g 1);
  Alcotest.(check int) "right level" 1 (Sched.level g 2);
  Alcotest.(check int) "sink level" 2 (Sched.level g 3);
  for k = 0 to 3 do
    Alcotest.(check bool) "acyclic" false (Sched.cyclic g k)
  done

(* Dirty-set evaluation over the diamond: each acyclic node evaluates at
   most once per settle, and evaluation order respects levels. *)
let test_dirty_order () =
  let g = Sched.create (diamond ()) in
  Sched.mark_all g;
  let order = ref [] in
  let n = Sched.run g ~eval:(fun k -> order := k :: !order) ~max_passes:10 in
  Alcotest.(check int) "all evaluated once" 4 n;
  let pos k =
    let rec go i = function
      | [] -> Alcotest.failf "node %d not evaluated" k
      | x :: _ when x = k -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 (List.rev !order)
  in
  Alcotest.(check bool) "source before left" true (pos 0 < pos 1);
  Alcotest.(check bool) "source before right" true (pos 0 < pos 2);
  Alcotest.(check bool) "left before sink" true (pos 1 < pos 3);
  Alcotest.(check bool) "right before sink" true (pos 2 < pos 3);
  (* Nothing dirty: the next settle touches nothing. *)
  Alcotest.(check int) "settled" 0
    (Sched.run g ~eval:(fun _ -> ()) ~max_passes:10);
  (* Marking one slot re-evaluates only its downstream readers. *)
  Sched.mark_slot g 1;
  Alcotest.(check int) "incremental" 1
    (Sched.run g ~eval:(fun _ -> ()) ~max_passes:10)

(* A 2-node cycle (0 reads b writes a, 1 reads a writes b) feeding an
   acyclic reader. The worklist must converge once values stabilise. *)
let test_cycle_converges () =
  let g =
    Sched.build ~slots:3
      ~nodes:[| ([ 1 ], [], [ 0 ]); ([ 0 ], [], [ 1 ]); ([ 0; 1 ], [], [ 2 ]) |]
  in
  Alcotest.(check bool) "member cyclic" true (Sched.cyclic g 0);
  Alcotest.(check bool) "member cyclic" true (Sched.cyclic g 1);
  Alcotest.(check bool) "reader acyclic" false (Sched.cyclic g 2);
  Alcotest.(check bool) "reader downstream" true
    (Sched.level g 2 > Sched.level g 0);
  let g = Sched.create g in
  (* max-propagation to a fixed point: a = max(a, b), b = max(a, b). *)
  let slots = [| 5; 3; 0 |] in
  let eval k =
    match k with
    | 0 ->
        let v = max slots.(0) slots.(1) in
        if v <> slots.(0) then begin
          slots.(0) <- v;
          Sched.mark_slot g 0
        end
    | 1 ->
        let v = max slots.(0) slots.(1) in
        if v <> slots.(1) then begin
          slots.(1) <- v;
          Sched.mark_slot g 1
        end
    | 2 -> slots.(2) <- slots.(0) + slots.(1)
    | _ -> assert false
  in
  Sched.mark_all g;
  ignore (Sched.run g ~eval ~max_passes:100);
  Alcotest.(check int) "converged a" 5 slots.(0);
  Alcotest.(check int) "converged b" 5 slots.(1);
  Alcotest.(check int) "reader saw settled values" 10 slots.(2)

(* A cycle whose members re-mark each other forever must trip the budget. *)
let test_cycle_diverges () =
  let g =
    Sched.create
      (Sched.build ~slots:2 ~nodes:[| ([ 1 ], [], [ 0 ]); ([ 0 ], [], [ 1 ]) |])
  in
  Sched.mark_all g;
  Alcotest.check_raises "budget exceeded" Sched.Diverged (fun () ->
      ignore
        (Sched.run g
           ~eval:(fun k -> Sched.mark_slot g (if k = 0 then 0 else 1))
           ~max_passes:10))

(* Self-edges count as cyclic even in a singleton component. *)
let test_self_edge () =
  let g = Sched.build ~slots:1 ~nodes:[| ([ 0 ], [], [ 0 ]) |] in
  Alcotest.(check bool) "self-edge cyclic" true (Sched.cyclic g 0)

(* Node 0 reads guard slot 0 and source slot 1. While it is blocked, a
   change to its source does not wake it; a change to its guard does. A
   node without source reads is woken by every read. *)
let test_source_reads () =
  let g =
    Sched.create
      (Sched.build ~slots:2 ~nodes:[| ([ 0 ], [ 1 ], []); ([ 1 ], [], []) |])
  in
  let settle () = Sched.run g ~eval:(fun _ -> ()) ~max_passes:10 in
  Sched.mark_slot g 1;
  Alcotest.(check int) "unblocked: source wakes both" 2 (settle ());
  (Sched.blocked g).(0) <- true;
  Sched.mark_slot g 1;
  Alcotest.(check int) "blocked: source wakes only the plain reader" 1
    (settle ());
  Sched.mark_slot g 0;
  Alcotest.(check int) "blocked: guard still wakes" 1 (settle ())

(* ------------------------------------------------------------------ *)
(* Wire-level equivalence on the shared sample programs                *)
(* ------------------------------------------------------------------ *)

(* One cycle as the sink sees it: every signal's value, the active
   groups. ev_iters is left out — it measures different work per engine. *)
type snap = {
  s_cycle : int;
  s_values : string array;
  s_active : (string * string) list;
}

let record sim =
  let trace = ref [] in
  Sim.add_sink sim (fun ev ->
      trace :=
        {
          s_cycle = ev.Sim.ev_cycle;
          s_values = Array.map Bitvec.to_string ev.Sim.ev_values;
          s_active = ev.Sim.ev_active;
        }
        :: !trace);
  fun () -> List.rev !trace

(* Compare two wire histories cycle by cycle, naming the first signal
   that differs. *)
let check_traces sim ft ct =
  let paths = Array.map (fun s -> s.Sim.sig_path) (Sim.signals sim) in
  Alcotest.(check int) "traced cycles" (List.length ft) (List.length ct);
  List.iter2
    (fun f c ->
      Alcotest.(check int) "cycle number" f.s_cycle c.s_cycle;
      Array.iteri
        (fun i v ->
          if v <> c.s_values.(i) then
            Alcotest.failf "cycle %d: %s is %s under fixpoint, %s compiled"
              f.s_cycle paths.(i) v c.s_values.(i))
        f.s_values;
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "cycle %d active groups" f.s_cycle)
        f.s_active c.s_active)
    ft ct

(* Run [ctx] under both engines with [setup] applied before the first
   cycle; the wire histories and cycle counts must agree. *)
let run_both ?(setup = ignore) ctx =
  let go engine =
    let sim = Sim.create ~engine ctx in
    setup sim;
    let trace = record sim in
    let cycles = Sim.run sim in
    (sim, cycles, trace ())
  in
  let f, fc, ft = go `Fixpoint in
  let c, cc, ct = go `Compiled in
  Alcotest.(check (array string))
    "same signals"
    (Array.map (fun s -> s.Sim.sig_path) (Sim.signals f))
    (Array.map (fun s -> s.Sim.sig_path) (Sim.signals c));
  Alcotest.(check int) "cycle counts agree" fc cc;
  Alcotest.(check bool) "wires traced" true (ft <> []);
  check_traces f ft ct;
  (f, c)

let check_reg name f c =
  Alcotest.(check int64) ("register " ^ name)
    (Bitvec.to_int64 (Sim.read_register f name))
    (Bitvec.to_int64 (Sim.read_register c name))

let test_counter () =
  let f, c = run_both (Progs.counter ~limit:7 ()) in
  check_reg "r" f c

let test_seq () =
  let f, c = run_both (Progs.two_writes_seq ~w:16 ()) in
  check_reg "x" f c

let test_par () =
  let f, c = run_both (Progs.two_writes_par ~w:16 ()) in
  check_reg "x" f c;
  check_reg "y" f c

(* Both branches, and the tie, which takes the else branch. *)
let test_if () =
  List.iter
    (fun (x, y) ->
      let f, c = run_both (Progs.if_program ~x ~y ()) in
      check_reg "r" f c)
    [ (2, 9); (9, 2); (5, 5) ]

(* Hierarchy: a child component evaluated through an NChild graph node. *)
let test_hierarchy () =
  let f, c = run_both (Progs.hierarchy ~input:50 ()) in
  check_reg "r" f c;
  Alcotest.(check int64) "doubler result" 100L
    (Bitvec.to_int64 (Sim.read_register c "r"))

(* The pipelined multiplier exercises commit-time invalidation: its done
   output changes cycles after its inputs stopped changing, so the clock
   edge must re-mark it dirty. *)
let test_mult () =
  let f, c = run_both (Progs.mult_program ~x:250 ~y:3 ()) in
  check_reg "r" f c;
  Alcotest.(check int64) "product" 750L
    (Bitvec.to_int64 (Sim.read_register c "r"))

(* Memories: load the inputs before the first cycle, compare the output
   memory as well as the wires. *)
let test_reduction_tree () =
  let len = 8 in
  let setup sim =
    List.iteri
      (fun i m ->
        Sim.write_memory_ints sim m ~width:32
          (List.init len (fun j -> (7 * i) + (3 * j))))
      [ "m0"; "m1"; "m2"; "m3" ]
  in
  let f, c = run_both ~setup (Progs.reduction_tree ~len ()) in
  Alcotest.(check (list int))
    "output memory"
    (Sim.read_memory_ints f "out")
    (Sim.read_memory_ints c "out")

(* Lowered (flat, FSM-driven) programs — no control tree at all, so the
   wires are the whole schedule. *)
let test_lowered () =
  List.iter
    (fun ctx -> ignore (run_both (Pipelines.compile ctx)))
    [
      Progs.counter ~limit:6 ();
      Progs.two_writes_seq ();
      Progs.two_writes_par ();
      Progs.if_program ~x:4 ~y:1 ();
      Progs.hierarchy ~input:3 ();
      Progs.mult_program ~x:6 ~y:7 ();
      Progs.reduction_tree ~len:2 ();
    ]

(* ------------------------------------------------------------------ *)
(* Error-path parity                                                   *)
(* ------------------------------------------------------------------ *)

let error_info ?max_cycles ctx engine =
  let sim = Sim.create ~engine ctx in
  let trace = record sim in
  let kind, cycle, message =
    match Sim.run ?max_cycles sim with
    | exception Sim.Conflict { cycle; message; snapshot } ->
        Alcotest.(check bool) "snapshot non-empty" true (snapshot <> "");
        ("conflict", cycle, message)
    | exception Sim.Unstable { cycle; message; snapshot } ->
        Alcotest.(check bool) "snapshot non-empty" true (snapshot <> "");
        ("unstable", cycle, message)
    | exception Sim.Timeout { budget; snapshot } ->
        Alcotest.(check bool) "snapshot non-empty" true (snapshot <> "");
        ("timeout", budget, "")
    | _ -> Alcotest.fail "expected a simulation error"
  in
  (sim, kind, cycle, message, trace ())

(* Same error, same cycle, same message, and the same wires on every
   cycle that settled before it. *)
let check_parity ?max_cycles kind ctx =
  let f, fk, fc, fm, ft = error_info ?max_cycles ctx `Fixpoint in
  let _, ck, cc, cm, ct = error_info ?max_cycles ctx `Compiled in
  Alcotest.(check string) "kind" kind fk;
  Alcotest.(check string) "same kind" fk ck;
  Alcotest.(check int) "same cycle" fc cc;
  Alcotest.(check string) "same message" fm cm;
  check_traces f ft ct

let test_conflict_parity () = check_parity "conflict" (Progs.conflict_program ())
let test_unstable_parity () = check_parity "unstable" (Progs.unstable_program ())

let test_timeout_parity () =
  check_parity ~max_cycles:10 "timeout" (Progs.counter ~limit:200 ())

(* The status snapshot an error carries, pinned as text: both engines
   must render the same control state, active groups and done wiring at
   the moment of the error. *)
let snapshot ?max_cycles ctx engine =
  match Sim.run ?max_cycles (Sim.create ~engine ctx) with
  | exception Sim.Timeout { snapshot; _ } -> snapshot
  | exception Sim.Conflict { snapshot; _ } -> snapshot
  | _ -> Alcotest.fail "expected a simulation error"

let test_snapshot_parity () =
  List.iter
    (fun (name, max_cycles, ctx, expected) ->
      let f = snapshot ?max_cycles ctx `Fixpoint in
      let c = snapshot ?max_cycles ctx `Compiled in
      Alcotest.(check string) (name ^ ": engines agree") f c;
      Alcotest.(check string) (name ^ ": snapshot text") expected f)
    [
      ( "stuck group",
        Some 100,
        Progs.stuck_program (),
        "simulation state after 100 cycles:\n\
        \  <entry> (component main): running stuck\n\
        \    active group stuck: waiting on stuck[done] = r.done;\n" );
      ( "child mid-run",
        Some 1,
        Progs.hierarchy ~input:5 (),
        "simulation state after 1 cycles:\n\
        \  <entry> (component main): running seq(call_d; +1 more)\n\
        \    active group call_d: waiting on call_d[done] = d.done;\n\
        \  d (component doubler): running compute\n\
        \    active group compute: waiting on compute[done] = acc.done;\n" );
      ( "conflict",
        None,
        Progs.conflict_program (),
        "simulation state after 0 cycles:\n\
        \  <entry> (component main): idle\n\
        \    active group bad: waiting on bad[done] = x.done;\n" );
    ]

(* ------------------------------------------------------------------ *)
(* Engine plumbing                                                     *)
(* ------------------------------------------------------------------ *)

(* The engine table: exactly the two engines, engine_name agreeing with
   it, every entry (and the default, the compiled engine) reported back
   by the simulation it builds, and a plan only under the compiled
   engine. *)
let test_engine_accessor () =
  let ctx = Progs.counter ~limit:2 () in
  Alcotest.(check (list string))
    "engine names" [ "fixpoint"; "compiled" ]
    (List.map fst Sim.engines);
  Alcotest.(check bool)
    "both engines listed" true
    (List.map snd Sim.engines = [ `Fixpoint; `Compiled ]);
  List.iter
    (fun (name, engine) ->
      let sim = Sim.create ~engine ctx in
      Alcotest.(check string) ("engine_name " ^ name) name
        (Sim.engine_name engine);
      Alcotest.(check bool) (name ^ " reported") true (Sim.engine sim = engine);
      Alcotest.(check bool)
        (name ^ " plan iff compiled")
        (engine = `Compiled)
        (Sim.compiled_plan sim <> None))
    Sim.engines;
  Alcotest.(check bool)
    "default is compiled" true
    (Sim.default_engine = `Compiled);
  Alcotest.(check bool)
    "default reported" true
    (Sim.engine (Sim.create ctx) = Sim.default_engine)

(* A test-bench register write behind the scheduler's back must be picked
   up by the next settle (the touch_prim invalidation path), whichever
   cycle it lands on. *)
let test_testbench_write () =
  let ctx = Progs.counter ~limit:10 () in
  let go engine at =
    let sim = Sim.create ~engine ctx in
    Sim.set_input sim "go" (Bitvec.one 1);
    for _ = 1 to at do
      Sim.cycle sim
    done;
    let trace = record sim in
    Sim.write_register sim "r" (Bitvec.of_int ~width:8 (at + 1));
    let extra = ref 0 in
    while not (Sim.done_seen sim) do
      Sim.cycle sim;
      incr extra
    done;
    (sim, !extra, Bitvec.to_int64 (Sim.read_register sim "r"), trace ())
  in
  for at = 1 to 8 do
    let f, fe, fr, ft = go `Fixpoint at in
    let _, ce, cr, ct = go `Compiled at in
    Alcotest.(check int) "same remaining cycles" fe ce;
    Alcotest.(check int64) "same final value" fr cr;
    check_traces f ft ct
  done

(* Results come back in input order regardless of sharding, and real
   simulations can run concurrently (each call owns its instance). *)
let test_pool_order () =
  let squares = List.init 17 (fun i -> i * i) in
  Alcotest.(check (list int))
    "in order, parallel" squares
    (Pool.map ~jobs:4 (fun i -> i * i) (List.init 17 Fun.id));
  Alcotest.(check (list int))
    "in order, sequential" squares
    (Pool.map ~jobs:1 (fun i -> i * i) (List.init 17 Fun.id))

let test_pool_sims () =
  let cycles =
    Pool.map ~jobs:4
      (fun i ->
        Sim.run (Sim.create ~engine:`Compiled (Progs.counter ~limit:(i + 2) ())))
      (List.init 8 Fun.id)
  in
  let expected =
    List.init 8 (fun i ->
        Sim.run
          (Sim.create ~engine:`Fixpoint (Progs.counter ~limit:(i + 2) ())))
  in
  Alcotest.(check (list int)) "batched = sequential oracle" expected cycles

(* ------------------------------------------------------------------ *)
(* The compiled plan as text                                           *)
(* ------------------------------------------------------------------ *)

(* One instance's section of [Sim.compiled_plan]: its component, the
   header's node/level/cyclic counts, and each level header (level,
   cyclic) with its node lines, in print order. *)
type plan_level = { pl_level : int; pl_cyclic : bool; pl_nodes : string list }

type plan_section = {
  ps_comp : string;
  ps_counts : int * int * int;
  ps_body : plan_level list;
}

let parse_plan text =
  let sections = ref [] in
  let update f =
    match !sections with
    | s :: rest -> sections := f s :: rest
    | [] -> Alcotest.fail "plan line before any component line"
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.starts_with ~prefix:"component " line then
        let comp = Scanf.sscanf line "component %s@:" Fun.id in
        sections :=
          { ps_comp = comp; ps_counts = (-1, -1, -1); ps_body = [] }
          :: !sections
      else if String.starts_with ~prefix:"level " line then
        let level, cyclic =
          Scanf.sscanf line "level %d%[^\n]" (fun l rest ->
              match rest with
              | ":" -> (l, false)
              | " (cyclic, iterate):" -> (l, true)
              | _ -> Alcotest.failf "bad level header %S" line)
        in
        update (fun s ->
            {
              s with
              ps_body =
                { pl_level = level; pl_cyclic = cyclic; pl_nodes = [] }
                :: s.ps_body;
            })
      else if String.starts_with ~prefix:"  " line then
        update (fun s ->
            match s.ps_body with
            | l :: rest ->
                {
                  s with
                  ps_body =
                    { l with pl_nodes = String.trim line :: l.pl_nodes }
                    :: rest;
                }
            | [] -> Alcotest.failf "node line before any level: %S" line)
      else
        let counts =
          Scanf.sscanf line "%d nodes, %d levels, %d cyclic components%!"
            (fun n l c -> (n, l, c))
        in
        update (fun s -> { s with ps_counts = counts }))
    (String.split_on_char '\n' text);
  List.rev_map
    (fun s ->
      {
        s with
        ps_body =
          List.rev_map
            (fun l -> { l with pl_nodes = List.rev l.pl_nodes })
            s.ps_body;
      })
    !sections

let plan_of ctx =
  match Sim.compiled_plan (Sim.create ~engine:`Compiled ctx) with
  | Some text -> parse_plan text
  | None -> Alcotest.fail "compiled engine must expose its plan"

let plan_samples () =
  (* Lint rejects the oscillator, so only the others are also lowered. *)
  let structured =
    [
      Progs.counter ~limit:3 ();
      Progs.two_writes_par ();
      Progs.if_program ~x:1 ~y:2 ();
      Progs.hierarchy ~input:2 ();
      Progs.mult_program ~x:2 ~y:3 ();
      Progs.reduction_tree ();
    ]
  in
  (Progs.unstable_program () :: structured)
  @ List.map Pipelines.compile structured

(* Each section's header agrees with its body: as many node lines as
   nodes, levels printed in ascending order covering 0 .. levels-1 with
   no empty level, and one marked level per cyclic component. *)
let test_plan_counts () =
  List.iter
    (fun ctx ->
      List.iter
        (fun s ->
          let nodes, levels, cyclic = s.ps_counts in
          let body = s.ps_body in
          let where = "component " ^ s.ps_comp in
          Alcotest.(check int)
            (where ^ ": node lines") nodes
            (List.fold_left (fun n l -> n + List.length l.pl_nodes) 0 body);
          Alcotest.(check int)
            (where ^ ": cyclic levels") cyclic
            (List.length (List.filter (fun l -> l.pl_cyclic) body));
          let numbers = List.map (fun l -> l.pl_level) body in
          Alcotest.(check (list int))
            (where ^ ": levels ascending")
            (List.sort compare numbers) numbers;
          Alcotest.(check (list int))
            (where ^ ": every level printed")
            (List.init levels Fun.id)
            (List.sort_uniq compare numbers);
          Alcotest.(check bool)
            (where ^ ": no empty level") true
            (List.for_all (fun l -> l.pl_nodes <> []) body))
        (plan_of ctx))
    (plan_samples ())

(* The oscillator n.in = !n.in is the one cyclic component: the not gate
   and the continuous assignment that closes the loop, marked cyclic;
   the counter has none. *)
let test_plan_cyclic () =
  (match plan_of (Progs.unstable_program ()) with
  | [ s ] ->
      let _, _, cyclic = s.ps_counts in
      Alcotest.(check int) "one cyclic component" 1 cyclic;
      Alcotest.(check (list (list string)))
        "its members"
        [ [ "prim n : std_not(1)"; "assign [continuous] n.in = n.out;" ] ]
        (List.filter_map
           (fun l -> if l.pl_cyclic then Some l.pl_nodes else None)
           s.ps_body)
  | _ -> Alcotest.fail "expected one instance");
  List.iter
    (fun s ->
      let _, _, cyclic = s.ps_counts in
      Alcotest.(check int) "counter is acyclic" 0 cyclic)
    (plan_of (Progs.counter ~limit:3 ()))

(* Group nodes are labelled by name: one [go] node per group of the
   section's component, and every group-gated assignment names one of
   those groups. *)
let test_plan_groups () =
  List.iter
    (fun ctx ->
      List.iter
        (fun s ->
          let comp = Ir.find_component ctx s.ps_comp in
          let groups =
            List.sort compare
              (List.map (fun g -> g.Ir.group_name) comp.Ir.groups)
          in
          let lines = List.concat_map (fun l -> l.pl_nodes) s.ps_body in
          let gos =
            List.filter_map
              (fun n ->
                if String.starts_with ~prefix:"go " n then
                  Some (String.sub n 3 (String.length n - 3))
                else None)
              lines
          in
          Alcotest.(check (list string))
            (s.ps_comp ^ ": one go node per group")
            groups (List.sort compare gos);
          List.iter
            (fun n ->
              if String.starts_with ~prefix:"assign [" n then
                let label = Scanf.sscanf n "assign [%[^]]]" Fun.id in
                let group =
                  match String.split_on_char ' ' label with
                  | [ g ] | [ g; "done" ] -> g
                  | _ -> Alcotest.failf "bad assignment label %S" label
                in
                if group <> "continuous" && not (List.mem group groups) then
                  Alcotest.failf "%s: %S names no group" s.ps_comp n)
            lines)
        (plan_of ctx))
    [
      Progs.counter ~limit:3 ();
      Progs.two_writes_seq ();
      Progs.if_program ~x:1 ~y:2 ();
      Progs.hierarchy ~input:2 ();
      Progs.reduction_tree ();
    ]

(* One section per instance, in the order [Sim.instances] lists them,
   and each child instance is one [child] node of its parent. *)
let test_plan_instances () =
  let ctx = Progs.hierarchy ~input:2 () in
  let sim = Sim.create ~engine:`Compiled ctx in
  let sections =
    match Sim.compiled_plan sim with
    | Some text -> parse_plan text
    | None -> Alcotest.fail "compiled engine must expose its plan"
  in
  Alcotest.(check (list string))
    "sections follow the instances"
    (List.map snd (Sim.instances sim))
    (List.map (fun s -> s.ps_comp) sections);
  match sections with
  | main :: _ ->
      Alcotest.(check bool)
        "child node" true
        (List.exists
           (fun l -> List.mem "child d : doubler" l.pl_nodes)
           main.ps_body)
  | [] -> Alcotest.fail "empty plan"

(* ------------------------------------------------------------------ *)
(* Groups are reported by name                                         *)
(* ------------------------------------------------------------------ *)

(* The distinct active-group sets of a run, in order, under [engine]. *)
let active_sets ctx engine =
  let sim = Sim.create ~engine ctx in
  let sets = ref [] in
  Sim.add_sink sim (fun ev ->
      match !sets with
      | last :: _ when last = ev.Sim.ev_active -> ()
      | _ -> sets := ev.Sim.ev_active :: !sets);
  ignore (Sim.run sim);
  List.rev !sets

let check_active_sets name ctx expected =
  List.iter
    (fun (ename, engine) ->
      Alcotest.(check (list (list (pair string string))))
        (name ^ " under " ^ ename)
        expected (active_sets ctx engine))
    Sim.engines

(* Parent and child groups through a run of the hierarchy: the child's
   group is reported under its instance path while the parent's group
   that started it stays active. *)
let test_active_hierarchy () =
  check_active_sets "hierarchy" (Progs.hierarchy ~input:2 ())
    [
      [ ("", "call_d"); ("d", "compute") ];
      [ ("", "call_d") ];
      [ ("", "store") ];
    ]

(* A child group with the same name as its parent's: both are active at
   once, each under its own instance, and the result is right. *)
let test_active_same_name () =
  let open Builder in
  let child =
    component "child" ~outputs:[ ("out", 8) ]
    |> with_cells [ reg "acc" 8 ]
    |> with_groups
         [ Progs.write_group "work" ~reg:"acc" ~value:(lit ~width:8 5) ]
    |> with_continuous [ assign (this "out") (pa "acc" "out") ]
    |> with_control (enable "work")
  in
  let main =
    component "main"
    |> with_cells [ instance "c" "child"; reg "r" 8 ]
    |> with_groups
         [
           group "work"
             [
               assign (port "c" "go") (bit true);
               assign (hole "work" "done") (pa "c" "done");
             ];
           Progs.write_group "store" ~reg:"r" ~value:(pa "c" "out");
         ]
    |> with_control (seq [ enable "work"; enable "store" ])
  in
  let ctx = context [ child; main ] in
  check_active_sets "same name" ctx
    [
      [ ("", "work"); ("c", "work") ];
      [ ("", "work") ];
      [ ("", "store") ];
    ];
  let f, c = run_both ctx in
  check_reg "r" f c;
  Alcotest.(check int64) "stored" 5L (Bitvec.to_int64 (Sim.read_register c "r"))

(* ev_iters under the compiled engine counts graph nodes touched: work is
   recorded, and the dirty set keeps some cycle below the busiest one —
   a dense settle would touch the same nodes every cycle. *)
let test_iters_stat () =
  let ctx = Progs.counter ~limit:5 () in
  let sim = Sim.create ~engine:`Compiled ctx in
  let per_cycle = ref [] in
  Sim.add_sink sim (fun ev -> per_cycle := ev.Sim.ev_iters :: !per_cycle);
  ignore (Sim.run sim);
  let total = List.fold_left ( + ) 0 !per_cycle in
  Alcotest.(check bool) "touched nodes recorded" true (total > 0);
  Alcotest.(check bool)
    "dirty set is sparse" true
    (List.fold_left min max_int !per_cycle
    < List.fold_left max 0 !per_cycle)

(* A run of [ctx] under [engine], observed twice: the [sim] span's
   numeric args, and the sum of [ev_iters] an [add_sink] observer sees. *)
let sim_span_args ?(load = ignore) ?(check = fun _ -> []) engine ctx =
  let module T = Calyx_telemetry.Trace in
  let iters = ref 0 in
  let (), spans =
    T.collect (fun () ->
        let sim = Sim.create ~engine ctx in
        Sim.add_sink sim (fun ev -> iters := !iters + ev.Sim.ev_iters);
        let io = Calyx_sim.Testbench.of_sim sim in
        load io;
        ignore (Sim.run sim);
        Alcotest.(check (list string)) "test bench" [] (check io))
  in
  match List.filter (fun sp -> sp.T.sp_name = "sim") spans with
  | [ sp ] -> (T.metrics sp, !iters)
  | sps -> Alcotest.failf "%d sim spans" (List.length sps)

(* The sim span's work args on a design with a child instance, whose
   settles and edges are counted in its own instance: [evals] is the
   settle work of both instances under either engine, which a sink sees
   cycle by cycle as [ev_iters]; [latched] (compiled engine only) is the
   6 latches of [r] in main and [acc] in the child together. *)
let test_work_args_hierarchy () =
  let ctx = Progs.hierarchy ~input:50 () in
  List.iter
    (fun (name, engine) ->
      let args, iters = sim_span_args engine ctx in
      Alcotest.(check (option (float 0.)))
        (name ^ " evals")
        (Some (float_of_int iters))
        (List.assoc_opt "evals" args);
      Alcotest.(check (option (float 0.)))
        (name ^ " latched")
        (if engine = `Compiled then Some 6. else None)
        (List.assoc_opt "latched" args))
    Sim.engines

(* The work per cycle on gemm, read from the sim span's args:
   primitives latched per clock edge, and nodes evaluated per settle. An
   edge latches only the primitives whose edge inputs changed, and a
   settle skips an assignment whose guard blocks it when only its source
   changed. *)
let test_work_per_cycle () =
  let k = Polybench.Kernels.find "gemm" in
  let prog = Polybench.Harness.program k ~unrolled:false in
  let tb = Polybench.Harness.testbench k prog in
  let lowered = Pipelines.compile (Dahlia.To_calyx.compile prog) in
  let args, _ =
    sim_span_args ~load:tb.load ~check:tb.check `Compiled lowered
  in
  let per_cycle name = List.assoc name args /. List.assoc "cycles" args in
  let commits = per_cycle "latched" and evals = per_cycle "evals" in
  if commits > 8. then
    Alcotest.failf "%.1f primitives latched per cycle (at most 8)" commits;
  if evals > 32. then
    Alcotest.failf "%.1f settle evaluations per cycle (at most 32)" evals

let () =
  Alcotest.run "sched"
    [
      ( "graph",
        [
          Alcotest.test_case "diamond levels" `Quick test_levels;
          Alcotest.test_case "dirty-set order" `Quick test_dirty_order;
          Alcotest.test_case "cycle converges" `Quick test_cycle_converges;
          Alcotest.test_case "cycle diverges" `Quick test_cycle_diverges;
          Alcotest.test_case "self edge" `Quick test_self_edge;
          Alcotest.test_case "source reads" `Quick test_source_reads;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "seq" `Quick test_seq;
          Alcotest.test_case "par" `Quick test_par;
          Alcotest.test_case "if" `Quick test_if;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy;
          Alcotest.test_case "pipelined mult" `Quick test_mult;
          Alcotest.test_case "reduction tree" `Quick test_reduction_tree;
          Alcotest.test_case "lowered programs" `Quick test_lowered;
        ] );
      ( "errors",
        [
          Alcotest.test_case "conflict parity" `Quick test_conflict_parity;
          Alcotest.test_case "unstable parity" `Quick test_unstable_parity;
          Alcotest.test_case "timeout parity" `Quick test_timeout_parity;
          Alcotest.test_case "snapshot parity" `Quick test_snapshot_parity;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "engine accessor" `Quick test_engine_accessor;
          Alcotest.test_case "test-bench write" `Quick test_testbench_write;
          Alcotest.test_case "iters stat" `Quick test_iters_stat;
          Alcotest.test_case "work args on a hierarchy" `Quick
            test_work_args_hierarchy;
          Alcotest.test_case "work per cycle on gemm" `Quick
            test_work_per_cycle;
        ] );
      ( "batch",
        [
          Alcotest.test_case "domain-parallel order" `Quick test_pool_order;
          Alcotest.test_case "domain-parallel sims" `Quick test_pool_sims;
        ] );
      ( "plan",
        [
          Alcotest.test_case "header counts" `Quick test_plan_counts;
          Alcotest.test_case "cyclic component" `Quick test_plan_cyclic;
          Alcotest.test_case "group nodes" `Quick test_plan_groups;
          Alcotest.test_case "instance sections" `Quick test_plan_instances;
        ] );
      ( "groups",
        [
          Alcotest.test_case "active in a hierarchy" `Quick
            test_active_hierarchy;
          Alcotest.test_case "same name in parent and child" `Quick
            test_active_same_name;
        ] );
    ]
