(* edit-session: the paper's interactive use.  A [Session] on a
   CCFORM-scale schema (size 40) applies a seeded edit script that plants
   each of the nine faults and repairs it again, between neutral edits.
   One edit is one request.  The script ends where it started, so every
   round repeats the same edits. *)

open Common
module Session = Orm_interactive.Session
module Edit = Orm_interactive.Edit
module Engine = Orm_patterns.Engine
module Faults = Orm_generator.Faults

let size = 40

(* What to check after an edit, besides agreement with a from-scratch
   check: the last edit of a planting script must leave its pattern
   reported, the last edit of a repair script a clean report. *)
type expect = Nothing | Planted of Faults.injection | Repaired

type step = { edit : Edit.t; expect : expect }

(* [order] picks the order of the nine patterns; where [Faults.inject]
   plants each one follows from [inject], so every order applies the same
   edits. *)
let script ~order ~inject base =
  let rng = Random.State.make [| order; 3 |] in
  let patterns = shuffle rng (Array.of_list Faults.all_patterns) in
  let anchor = List.hd (Orm.Schema.object_types base) in
  let mark_last e l =
    let n = List.length l in
    List.mapi (fun i edit -> { edit; expect = (if i = n - 1 then e else Nothing) }) l
  in
  let plain l = List.map (fun edit -> { edit; expect = Nothing }) l in
  List.concat_map
    (fun p ->
      let inj = Faults.inject ~seed:inject p base in
      let nt = Printf.sprintf "Nz%d" p and nf = Printf.sprintf "NzF%d" p in
      plain [ Edit.Add_object_type nt ]
      @ mark_last (Planted inj) (Orm_interactive.Schema_diff.diff base inj.Faults.schema)
      @ plain [ Edit.Add_fact (Orm.Fact_type.make nf nt anchor) ]
      @ mark_last Repaired (Orm_interactive.Schema_diff.diff inj.Faults.schema base)
      @ plain [ Edit.Remove_fact nf; Edit.Remove_object_type nt ])
    (Array.to_list patterns)

let same_report (a : Engine.report) (b : Engine.report) =
  a.diagnostics = b.diagnostics
  && Orm.Ids.String_set.equal a.unsat_types b.unsat_types
  && Orm.Ids.Role_set.equal a.unsat_roles b.unsat_roles
  && List.equal Orm.Ids.Role_set.equal a.joint b.joint

(* One modeling session per base schema.  The run rotates through
   [bases] schemas, one round of its own script each, so a run's figures
   do not hang on a single generated schema.  The bases are the same in
   every run, and so are the edits of each script; the run seed picks the
   order of its nine plant-and-repair sequences.  A session keeps every earlier state
   for undo, so its memory grows with each edit; it lasts [session_rounds]
   rounds, then a fresh one takes over, created outside the timing. *)
let bases = 8
let session_rounds = 20
let corpus_seed = 1

(* A base schema with its script, built before any timing. *)
type plan = {
  lane : int;
  base : Orm.Schema.t;
  steps : step array;
  (* the from-scratch report after edit [i]: edits are pure and every
     round starts from the base schema (checked when a session ends), so
     it is the same in every round and computed once *)
  scratch : (int, Engine.report) Hashtbl.t;
}

type lane = { plan : plan; mutable session : Session.t; mutable rounds : int }

let plans ?(n = bases) ~salt ~seed () =
  Array.init n (fun lane ->
      let fixed = Inputs.gen_seed ~seed:corpus_seed ~salt lane in
      let base = Orm_generator.Gen.clean ~config:(Orm_generator.Gen.sized size) ~seed:fixed () in
      {
        lane;
        base;
        steps =
          Array.of_list (script ~order:(Inputs.gen_seed ~seed ~salt lane) ~inject:fixed base);
        scratch = Hashtbl.create 128;
      })

let start ?(create = fun base -> Session.create base) plans =
  Array.map (fun plan -> { plan; session = create plan.base; rounds = 0 }) plans

(* The seed-independent warm-up set: two scripts on bases of their own. *)
let warm_plans = lazy (plans ~n:2 ~salt:93 ~seed:0 ())

let scratch_report (l : lane) i schema =
  match Hashtbl.find_opt l.plan.scratch i with
  | Some r -> r
  | None ->
      let r = Engine.check schema in
      Hashtbl.replace l.plan.scratch i r;
      r

(* Checks the session after one edit against a from-scratch check. *)
let check tm l ~i step (schema, report) =
  let bad fmt = fail tm ("edit-session base %d edit %d: " ^^ fmt) l.plan.lane i in
  let scratch = scratch_report l i schema in
  if report.Engine.diagnostics <> [] then tm.conclusive <- tm.conclusive + 1;
  if not (same_report report scratch) then
    bad "incremental report differs from a from-scratch check"
  else
    match step.expect with
    | Nothing -> ()
    | Repaired -> if scratch.diagnostics <> [] then bad "repair left diagnostics"
    | Planted inj -> (
        match
          Oracle.check_report ~injection:(Some inj) (Orm_export.Json.report_value scratch)
        with
        | Ok () -> ()
        | Error e -> bad "%s" e)

(* Block [b] is one round of lane [b mod bases]'s script. *)
let run_block ?after ?(create = fun base -> Session.create base) tm lanes b =
  let l = lanes.(b mod bases) in
  let results =
    block tm (fun () ->
        Array.to_list
          (Array.mapi
             (fun i step ->
               let s = timed tm (fun () -> Session.apply step.edit l.session) in
               l.session <- s;
               Option.iter (fun f -> f s) after;
               (i, step, (Session.schema s, Session.report s)))
             l.plan.steps))
  in
  List.iter (fun (i, step, r) -> check tm l ~i step r) results;
  l.rounds <- l.rounds + 1;
  if l.rounds mod session_rounds = 0 then begin
    if not (Orm_interactive.Schema_diff.equal_schemas (Session.schema l.session) l.plan.base)
    then break_invariant tm "base %d: the edit script did not return to its base schema" l.plan.lane;
    l.session <- create l.plan.base
  end

let run ~seed ~seconds ~spawn_s =
  let tm = new_timed () in
  let plans = plans ~salt:3 ~seed () in
  let warm = Lazy.force warm_plans in
  let lanes, setup =
    repeated_setup ~discard:(fun _ -> ()) (fun () ->
        (* one round of each warm-up script on sessions of its own, then
           the run's sessions, each created with one full check *)
        Array.iter
          (fun p -> ignore (Array.fold_left (fun s st -> Session.apply st.edit s) (Session.create p.base) p.steps))
          warm;
        start plans)
  in
  let _ = run_blocks ~per_round:bases ~until:(`Whole_rounds (tm, seconds)) (run_block tm lanes) in
  (tm, tm.requests, end_to_end ~tail:0.99 ~setup_s:(spawn_s +. setup) tm)

(* ---- traced run --------------------------------------------------------- *)

let trace_run ~seed ~seconds =
  let ref_tm = new_timed () in
  let g0 = Layers.gc_mark () in
  let blocks =
    run_blocks ~per_round:bases ~until:(`Whole_rounds (ref_tm, seconds /. 3.))
      (run_block ref_tm (start (plans ~salt:3 ~seed ())))
  in
  let gc = Layers.gc_delta g0 (Layers.gc_mark ()) in
  let rss = peak_rss_mb () in
  let rounds = blocks / bases in
  let ctx = Layers.open_ctx () in
  let tm = new_timed () in
  (* a session's initial full check is not part of any edit *)
  let create base =
    let s = Session.create ~tracer:ctx.tr base in
    Layers.skip ctx;
    s
  in
  let lanes = start ~create (plans ~salt:3 ~seed ()) in
  Layers.discard ctx;
  let acc = ctx.acc in
  let enabled = List.length (Engine.enabled_patterns (Session.settings lanes.(0).session)) in
  let after s =
    Layers.collect ctx;
    let rerun = List.length (Session.last_rechecked s) in
    Layers.count acc "rerun" (float_of_int rerun);
    Layers.count acc "reused" (float_of_int (enabled - rerun))
  in
  let _ = run_blocks ~per_round:bases ~until:(`Rounds rounds) (run_block ~after ~create tm lanes) in
  Layers.close_ctx ctx;
  let reqs = tm.requests in
  let per = Layers.per_req_us acc ~requests:reqs in
  let pattern_names = List.init 9 (fun i -> Printf.sprintf "pattern.%d" (i + 1)) in
  let patterns_us =
    List.fold_left (fun a k -> a +. per k) 0. ("engine.propagate" :: "engine.check" :: pattern_names)
  in
  let critical = per "session.apply" +. patterns_us in
  let layers =
    [
      Common.m "patterns_us" "us" patterns_us;
      Common.m "patterns.propagate_us" "us" (per "engine.propagate");
      Common.m "session.apply_us" "us" (per "session.apply");
      Common.m "session.rerun_patterns" "count/edit"
        (Layers.counter acc "rerun" /. float_of_int reqs);
      Common.m "session.reused_patterns" "count/edit"
        (Layers.counter acc "reused" /. float_of_int reqs);
    ]
    @ List.mapi (fun i k -> Common.m (Printf.sprintf "patterns.p%d_us" (i + 1)) "us" (per k)) pattern_names
    @ Common.m "mem.peak_rss_mb" "MB" rss
      :: Common.m "cpu_ms_per_req" "ms" (cpu_ms_per_req ref_tm)
      :: Layers.gc_metrics ~requests:ref_tm.requests ~rounds gc
    @ Layers.overhead_and_coverage ~untraced_ns:ref_tm.busy_ns ~traced_ns:tm.busy_ns
        ~requests:reqs ~critical_us:critical
  in
  (tm, ref_tm, layers)
