(* reason-mix and reason-race: [reason] requests over a fixed corpus of
   distinct schemas of sizes 4-16, a quarter with a planted fault.

   reason-mix sends each faulted schema with [backend: auto], so the
   planner decides and the patterns short-circuit, and each clean one to
   every complete backend in turn: CEGAR ([sat-lazy]), eager SAT ([sat])
   and the tableau ([dlr]).  One backend runs at a time on the calling
   domain, so the work is the same in every run.

   reason-race sends everything with [backend: auto]: the planner races
   two backends on its two-domain pool for every clean schema.  A race
   waits for both racers, so its times follow whatever else holds a CPU;
   it is run by hand, not gated.

   A pass sends the whole corpus to a fresh server; the run seed picks the
   sending order.  A block is [per_block] schemas. *)

open Common
module P = Orm_server.Protocol
module Server = Orm_server.Server
module Metrics = Orm_telemetry.Metrics
module J = Orm_json

type mode = Solo | Race

let lo = 4
let hi = 16
let per_block = hi - lo + 1

(* The corpus is the same in every run (README, "Make-up of the inputs"). *)
let corpus_seed = 1
let corpus_strata = 6
let corpus_size = corpus_strata * per_block
let blocks_per_pass = corpus_strata

(* The bounded model finder, run only where the program makes a negative
   claim (a tableau unsat element, a SAT no_model), for the first
   [finder_claims] such answers of a run, outside all timing, with a small
   node budget.  It searches at its default
   fresh-value bound, the one the SAT routes use too; a model it finds,
   verified by {!Orm_semantics.Eval}, refutes the claim. *)
module Finder = Orm_reasoner.Finder
module Eval = Orm_semantics.Eval

type input = {
  item : Inputs.item;
  witnesses : (Finder.query, bool) Hashtbl.t;  (* query -> verified model found *)
}

let finder_budget = 300
let finder_claims = 100
let finder_calls = ref 0
let negative_claims = ref 0

let witnessed inp q =
  match Hashtbl.find_opt inp.witnesses q with
  | Some b -> b
  | None when !negative_claims > finder_claims -> false
  | None ->
      incr finder_calls;
      let schema = inp.item.schema in
      let found =
        match Finder.solve ~budget:finder_budget schema q with
        | Finder.Model pop -> (
            Eval.violations schema pop = []
            &&
            match q with
            | Finder.Strongly_satisfiable -> Eval.check_strong schema pop = Ok ()
            | Type_satisfiable t -> Eval.populates_type pop t
            | Role_satisfiable r -> Eval.populates_role pop r
            | Schema_satisfiable | All_populated _ -> true)
        | No_model | Budget_exceeded -> false
      in
      Hashtbl.replace inp.witnesses q found;
      found

let role_of_string s =
  match String.rindex_opt s '.' with
  | Some i -> (
      let f = String.sub s 0 i in
      match String.sub s (i + 1) (String.length s - i - 1) with
      | "1" -> Some (Orm.Ids.first f)
      | "2" -> Some (Orm.Ids.second f)
      | _ -> None)
  | None -> None

(* The corpus in the run's sending order. *)
let corpus ~seed =
  let items =
    Array.concat
      (List.init corpus_strata (fun m ->
           Inputs.stratum ~seed:corpus_seed ~salt:2 ~m ~lo ~hi ~fault_every:4))
  in
  shuffle (Random.State.make [| seed; 13 |])
    (Array.map (fun item -> { item; witnesses = Hashtbl.create 4 }) items)

(* The tableau's budget per query: reason-race sends 1,000, reason-mix
   100.  At the default (50,000 steps) about one clean schema in 400 of
   these sizes keeps a race busy for over a minute: CEGAR exhausts its
   step budget without a verdict, and the race then waits for a tableau
   that exhausts its budget on query after query (README, "Known faults").
   On its own the tableau concludes nothing on these clean schemas within
   1,000 steps per query and takes seconds per schema; at 100 it does the
   same, a tenth as long. *)
let tableau_budget = function Race -> 1_000 | Solo -> 100

(* The backends each schema is sent to. *)
let backends mode (it : Inputs.item) =
  match (mode, it.injection) with
  | Race, _ | Solo, Some _ -> [ `Auto ]
  | Solo, None -> [ `SatLazy; `Sat; `Dlr ]

let request_id (it : Inputs.item) backend =
  Printf.sprintf "q%d.%s" it.k (P.backend_to_string backend)

(* Written out by hand: [Protocol.build_request] drops [sat-lazy] (README,
   "Known faults"). *)
let request_line mode (it : Inputs.item) backend =
  let budget =
    match backend with
    | `Auto | `Dlr -> [ ("budget", J.Int (tableau_budget mode)) ]
    | _ -> []
  in
  J.to_string
    (J.Obj
       [
         ("ormcheck", J.Int P.version);
         ("id", J.String (request_id it backend));
         ("method", J.String "reason");
         ( "params",
           J.Obj
             ([ ("schema", J.String it.text); ("backend", J.String (P.backend_to_string backend)) ]
             @ budget) );
       ])

let warm_lines mode =
  List.concat_map
    (fun it -> List.map (request_line mode it) (backends mode it))
    (Array.to_list (Inputs.stratified ~seed:0 ~salt:91 ~n:4 ~lo:6 ~hi:12 ~fault_every:4))

(* reason-mix's server is made as [ormcheck serve] makes one, with
   metrics.  reason-race's gets none: with them the planner blends the
   observed p95 of earlier runs into its cost model, and on identical
   inputs the race pair then flips between runs (dlr+sat-lazy in one,
   sat+sat-lazy in the next), which makes the workload's latency bimodal.
   Without them every decision comes from the static model. *)
let make_server ?tracer ?audit ~warm mode =
  let metrics = match mode with Solo -> Some (Metrics.create ()) | Race -> None in
  let s = Server.create ?metrics ?tracer ?audit Server.default_config in
  if warm then List.iter (fun l -> ignore (Server.handle s l)) (warm_lines mode);
  s

let str_field k v = match P.member k v with Some (J.String s) -> Some s | _ -> None

(* A race's name with its two backends in alphabetical order: the planner
   names the cheaper estimate first, and that order follows timings. *)
let normal_decision d =
  match String.split_on_char ':' d with
  | [ "race"; pair ] -> (
      match String.split_on_char '+' pair with
      | [ a; b ] -> "race:" ^ String.concat "+" (List.sort compare [ a; b ])
      | _ -> d)
  | _ -> d

(* Decision mix: the planner's decisions in the answers, and in
   reason-mix's traced run its decisions replayed on the clean schemas. *)
let decisions : (string, int ref) Hashtbl.t = Hashtbl.create 8

let count_decision d =
  match Hashtbl.find_opt decisions d with
  | Some c -> incr c
  | None -> Hashtbl.replace decisions d (ref 1)

let strings_of body backend k =
  match Option.bind (P.member backend body) (P.member k) with
  | Some (J.List l) -> List.filter_map (function J.String x -> Some x | _ -> None) l
  | _ -> []

let sat_outcomes body =
  List.filter_map (fun k -> Option.bind (P.member k body) (str_field "outcome")) [ "sat"; "sat_lazy" ]

(* Negative claims checked against the finder's verified models; [bad]
   takes the failure's description. *)
let check_claims bad inp body =
  let unsat_types = strings_of body "dlr" "unsat_types"
  and unsat_roles = strings_of body "dlr" "unsat_roles" in
  let outcomes = sat_outcomes body in
  if unsat_types <> [] || unsat_roles <> [] || List.mem "no_model" outcomes then
    incr negative_claims;
  (match List.find_opt (fun t -> witnessed inp (Finder.Type_satisfiable t)) unsat_types with
  | Some t -> bad (Printf.sprintf "tableau says %s is unsat; the finder populates it" t)
  | None -> ());
  (match
     List.find_opt
       (fun r ->
         match role_of_string r with
         | Some role -> witnessed inp (Finder.Role_satisfiable role)
         | None -> false)
       unsat_roles
   with
  | Some r -> bad (Printf.sprintf "tableau says role %s is unsat; the finder populates it" r)
  | None -> ());
  if List.mem "no_model" outcomes && witnessed inp Finder.Strongly_satisfiable then
    bad "SAT no_model refuted by a finder model"

(* Checks one answer; returns its body when it passed. *)
let check tm (inp : input) backend resp =
  let id = request_id inp.item backend in
  let bad fmt = fail tm ("reason %s: " ^^ fmt) id in
  match Oracle.parse_ok ~id resp with
  | Error e ->
      bad "%s" e;
      None
  | Ok r -> (
      let body = r.P.body in
      if Oracle.conclusive body then tm.conclusive <- tm.conclusive + 1;
      let decision =
        Option.map normal_decision (Option.bind (P.member "planner" body) (str_field "decision"))
      in
      Option.iter count_decision decision;
      let ran = List.filter (fun k -> P.member k body <> None) [ "dlr"; "sat"; "sat_lazy" ] in
      let failures = tm.failed in
      (if r.P.cached then bad "a fresh schema was answered from the cache"
       else
         match P.member "report" body with
         | None -> bad "no report"
         | Some rep -> (
             match Oracle.check_report ~injection:inp.item.injection rep with
             | Error e -> bad "%s" e
             | Ok () -> (
                 match (inp.item.injection, backend) with
                 | Some _, _ ->
                     if decision <> Some "patterns_only" then
                       bad "planted fault did not short-circuit"
                     else if ran <> [] then
                       bad "a complete backend ran after the patterns were conclusive"
                 | None, `Auto ->
                     if decision = Some "patterns_only" || decision = None then
                       bad "clean schema was not sent to a complete backend"
                     else if List.length ran <> 2 then bad "a race ran %d backends" (List.length ran)
                     else begin
                       if (strings_of body "dlr" "unsat_types" <> [] || strings_of body "dlr" "unsat_roles" <> [])
                          && List.mem "model" (sat_outcomes body)
                       then bad "tableau unsat elements contradict a SAT model";
                       check_claims (bad "%s") inp body
                     end
                 | None, b ->
                     let want =
                       match b with `Dlr -> "dlr" | `Sat -> "sat" | _ -> "sat_lazy"
                     in
                     if decision <> None then bad "a forced backend went through the planner"
                     else if ran <> [ want ] then
                       bad "ran %s, not %s" (String.concat "+" ran) want
                     else check_claims (bad "%s") inp body)));
      if tm.failed = failures then Some body else None)

(* reason-mix's cross-check of the three answers on one clean schema: a
   SAT model is a strong model, so no tableau unsat element may stand
   beside it, and the two groundings may not disagree. *)
let cross_check tm inp bodies =
  let bad fmt = fail tm ("reason q%d: " ^^ fmt) inp.item.k in
  let outcome k = List.find_map (fun b -> Option.bind (P.member k b) (str_field "outcome")) bodies in
  let unsat =
    List.exists
      (fun b -> strings_of b "dlr" "unsat_types" <> [] || strings_of b "dlr" "unsat_roles" <> [])
      bodies
  in
  match (outcome "sat", outcome "sat_lazy") with
  | Some ("model" | "no_model" as a), Some ("model" | "no_model" as b) when a <> b ->
      bad "eager SAT says %s, CEGAR says %s" a b
  | (Some "model", _ | _, Some "model") when unsat ->
      bad "tableau unsat elements contradict a SAT model"
  | _ -> ()

(* The server of the current pass. *)
type pass = { mutable srv : Server.t }

(* Block [b]: schemas [per_block * (b mod blocks_per_pass) ...] of a
   pass.  A pass after the first starts on a fresh server, created outside
   the timing. *)
let run_block ?after ~fresh tm mode corpus ps b =
  let pb = b mod blocks_per_pass in
  if pb = 0 && b > 0 then ps.srv <- fresh ();
  let items = Array.to_list (Array.sub corpus (pb * per_block) per_block) in
  let resps =
    block tm (fun () ->
        List.map
          (fun inp ->
            ( inp,
              List.map
                (fun backend ->
                  let line = request_line mode inp.item backend in
                  let resp = timed tm (fun () -> fst (Server.handle ps.srv line)) in
                  Option.iter (fun f -> f inp backend resp) after;
                  (backend, resp))
                (backends mode inp.item) ))
          items)
  in
  List.iter
    (fun (inp, answers) ->
      let bodies = List.filter_map (fun (backend, resp) -> check tm inp backend resp) answers in
      if mode = Solo && inp.item.injection = None && List.length bodies = 3 then
        cross_check tm inp bodies)
    resps

let decision_mix () =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) decisions [] |> List.sort compare

let print_decision_mix () =
  Printf.eprintf "perfbench: reason decision mix: %s\n%!"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (decision_mix ())))

let print_finder_summary () =
  Printf.eprintf
    "perfbench: reason: %d answers with a negative claim, the first %d checked by %d finder queries\n%!"
    !negative_claims (min finder_claims !negative_claims) !finder_calls

let run mode ~seed ~seconds ~spawn_s =
  let tm = new_timed () in
  let corpus = corpus ~seed in
  let srv, setup = repeated_setup ~discard:(fun _ -> ()) (fun () -> make_server ~warm:true mode) in
  Hashtbl.reset decisions;
  let _ =
    run_blocks ~per_round:blocks_per_pass ~until:(`Whole_rounds (tm, seconds))
      (run_block ~fresh:(fun () -> make_server ~warm:false mode) tm mode corpus { srv })
  in
  if mode = Race then print_decision_mix ();
  print_finder_summary ();
  (tm, tm.requests, end_to_end ~tail:0.9 ~setup_s:(spawn_s +. setup) tm)

(* ---- traced run --------------------------------------------------------- *)

let int_at path v =
  let rec go v = function
    | [] -> ( match v with J.Int i -> Some i | _ -> None)
    | k :: rest -> Option.bind (P.member k v) (fun x -> go x rest)
  in
  go v path

let backend_keys = [ ("dlr", "dlr"); ("sat", "sat"); ("sat-lazy", "sat_lazy") ]

let trace_run mode ~seed ~seconds =
  let ref_tm = new_timed () in
  let corpus = corpus ~seed in
  let g0 = Layers.gc_mark () in
  let blocks =
    run_blocks ~per_round:blocks_per_pass ~until:(`Whole_rounds (ref_tm, seconds /. 3.))
      (run_block ~fresh:(fun () -> make_server ~warm:false mode) ref_tm mode corpus
         { srv = make_server ~warm:true mode })
  in
  let gc = Layers.gc_delta g0 (Layers.gc_mark ()) in
  let rss = peak_rss_mb () in
  let rounds = blocks / blocks_per_pass in
  let ctx = Layers.open_ctx () in
  let tm = new_timed () in
  let srv = make_server ~tracer:ctx.tr ~audit:ctx.audit ~warm:true mode in
  let skip = Server.requests_served srv in
  Layers.discard ctx;
  Hashtbl.reset decisions;
  let tr = ctx.tr in
  let acc = ctx.acc in
  let errors = Hashtbl.create 3 in
  let add_err b e =
    let l = match Hashtbl.find_opt errors b with Some l -> l | None -> [] in
    Hashtbl.replace errors b (e :: l)
  in
  let requests_of = Hashtbl.create 16 in
  let after inp backend resp =
    Layers.collect ctx;
    let line = request_line mode inp.item backend in
    let text = match P.parse_request line with Ok { P.schema_text = Some t; _ } -> t | _ -> "" in
    let parsed =
      Orm_trace.Trace.with_span tr "dsl.parse" (fun () ->
          match Orm_dsl.Parser.parse text with
          | Ok s when Orm.Schema.validate s = [] -> Some s
          | _ -> None)
    in
    (match (parsed, P.parse_response resp) with
    | Some s, Ok r ->
        let report = Orm_patterns.Engine.check s in
        let fields =
          match r.P.body with
          | J.Obj f -> List.filter (fun (k, _) -> not (List.mem k [ "id"; "cached"; "ormcheck"; "status" ])) f
          | _ -> []
        in
        Orm_trace.Trace.with_span tr "serialize" (fun () ->
            ignore (Orm_export.Json.report_value report);
            ignore (P.ok_response ~id:r.P.resp_id ~cached:false fields));
        let body = r.P.body in
        let pl = P.member "planner" body in
        let ns path = match pl with Some pl -> Option.value ~default:0 (int_at path pl) | None -> 0 in
        (match pl with
        | Some _ ->
            Layers.count acc "patterns_ns" (float_of_int (ns [ "timings"; "patterns_ns" ]));
            Layers.count acc "plan_ns" (float_of_int (ns [ "timings"; "plan_ns" ]));
            Layers.count acc "plans" 1.
        | None -> ());
        (* reason-mix: the planner's decision on a clean schema, replayed
           once per schema, estimates kept for the prediction error *)
        let replayed =
          if mode = Solo && backend = `SatLazy then begin
            let plan =
              Orm_trace.Trace.with_span tr "plan" (fun () ->
                  Orm_planner.Planner.decide ~patterns_conclusive:false
                    (Orm_planner.Features.extract s))
            in
            count_decision (normal_decision (Orm_planner.Planner.decision_name plan.decision));
            Layers.count acc "plans" 1.;
            Hashtbl.replace requests_of inp.item.k plan;
            Some plan
          end
          else Hashtbl.find_opt requests_of inp.item.k
        in
        let winner = Option.bind pl (str_field "winner") in
        let raced =
          match Option.map normal_decision (Option.bind pl (str_field "decision")) with
          | Some d -> String.length d > 5 && String.sub d 0 5 = "race:"
          | None -> false
        in
        let times = ref [] in
        List.iter
          (fun (bname, key) ->
            match P.member key body with
            | None -> ()
            | Some obj -> (
                let t = Option.value ~default:0 (int_at [ "time_ns" ] obj) in
                times := t :: !times;
                Layers.count acc ("backend." ^ key ^ "_ns") (float_of_int t);
                Layers.count acc ("backend." ^ key ^ ".runs") 1.;
                let cancelled = P.member "cancelled" obj = Some (J.Bool true) in
                if cancelled then Layers.count acc "race_cancelled" 1.;
                if raced && winner <> Some bname then Layers.count acc "loser_ns" (float_of_int t);
                (match int_at [ "unknown" ] obj with
                | Some u -> Layers.count acc "dlr.unknown" (float_of_int u)
                | None -> ());
                (match int_at [ "rounds" ] obj with
                | Some u -> Layers.count acc "lazy.rounds" (float_of_int u)
                | None -> ());
                (match int_at [ "instantiated_clauses" ] obj with
                | Some u -> Layers.count acc "lazy.inst" (float_of_int u)
                | None -> ());
                (* prediction error of a backend that ran to its own end *)
                let predicted =
                  match (pl, replayed) with
                  | Some pl, _ -> int_at [ "estimates"; bname; "cost_ns" ] pl
                  | None, Some plan -> (
                      match Orm_planner.Cost.of_name bname with
                      | Some b -> Some (Orm_planner.Planner.estimate_for plan b).cost_ns
                      | None -> None)
                  | None, None -> None
                in
                match predicted with
                | Some pred when (not cancelled) && t > 0 && pred > 0 ->
                    add_err bname (Float.abs (Float.log2 (float_of_int t /. float_of_int pred)))
                | _ -> ()))
          backend_keys;
        (* the backends' share of the request's critical path: a race joins
           both racers, a single backend runs alone *)
        let crit = List.fold_left (if raced then max else ( + )) 0 !times in
        Layers.count acc "backend_critical_ns" (float_of_int crit)
    | _ -> ());
    Layers.collect ctx
  in
  let _ =
    run_blocks ~per_round:blocks_per_pass ~until:(`Rounds rounds)
      (run_block ~after
         ~fresh:(fun () -> make_server ~tracer:ctx.tr ~audit:ctx.audit ~warm:false mode)
         tm mode corpus { srv })
  in
  Layers.close_ctx ~skip ctx;
  let reqs = tm.requests in
  let per = Layers.per_req_us acc ~requests:reqs in
  let cper k = Layers.counter acc k /. 1e3 /. float_of_int reqs in
  let per_run k runs =
    Layers.counter acc k /. float_of_int (max 1 (int_of_float (Layers.counter acc runs)))
  in
  let per_round x = float_of_int x /. float_of_int rounds in
  let audit_us k = Layers.audit_total ctx k /. 1e3 /. float_of_int reqs in
  let median_err b = match Hashtbl.find_opt errors b with Some l -> median_of l | None -> 0. in
  let all_err = Hashtbl.fold (fun _ l acc -> l @ acc) errors [] in
  let pattern_names = List.init 9 (fun i -> Printf.sprintf "pattern.%d" (i + 1)) in
  let patterns_us =
    List.fold_left (fun a k -> a +. per k) 0. ("engine.propagate" :: "engine.check" :: pattern_names)
  in
  (* planner time per decision: the program's own timing on answers that
     went through the planner, the replay's span on the others *)
  let plan_us =
    (Layers.counter acc "plan_ns" +. float_of_int (Layers.self acc "plan"))
    /. 1e3 /. Float.max 1. (Layers.counter acc "plans")
  in
  let critical =
    audit_us "parse" +. per "dsl.parse" +. patterns_us +. cper "plan_ns"
    +. cper "backend_critical_ns" +. per "serialize"
  in
  let mix = decision_mix () in
  let mix_count name = List.fold_left (fun a (k, v) -> if k = name then a + v else a) 0 mix in
  print_decision_mix ();
  let layers =
    [
      Common.m "envelope.parse_us" "us" (audit_us "parse");
      Common.m "dsl.parse_us" "us" (per "dsl.parse");
      Common.m "serialize_us" "us" (per "serialize");
      Common.m "patterns_us" "us" patterns_us;
      Common.m "patterns.propagate_us" "us" (per "engine.propagate");
      Common.m "plan_us" "us" plan_us;
      Common.m "plan.races" "count/round"
        (per_round
           (List.fold_left
              (fun a (k, v) -> if String.length k > 5 && String.sub k 0 5 = "race:" then a + v else a)
              0 mix));
      Common.m "plan.patterns_only" "count/round" (per_round (mix_count "patterns_only"));
      Common.m "plan.backend.dlr" "count/round" (per_round (mix_count "dlr"));
      Common.m "plan.backend.sat" "count/round" (per_round (mix_count "sat"));
      Common.m "plan.backend.sat-lazy" "count/round" (per_round (mix_count "sat-lazy"));
      Common.m "plan.race.dlr-sat" "count/round" (per_round (mix_count "race:dlr+sat"));
      Common.m "plan.race.dlr-sat-lazy" "count/round" (per_round (mix_count "race:dlr+sat-lazy"));
      Common.m "plan.race.sat-sat-lazy" "count/round" (per_round (mix_count "race:sat+sat-lazy"));
      Common.m "plan.prediction_error" "log2" (median_of all_err);
      Common.m "plan.prediction_error.dlr" "log2" (median_err "dlr");
      Common.m "plan.prediction_error.sat" "log2" (median_err "sat");
      Common.m "plan.prediction_error.sat-lazy" "log2" (median_err "sat-lazy");
      Common.m "backend.dlr_ms" "ms" (cper "backend.dlr_ns" /. 1e3);
      Common.m "backend.sat_ms" "ms" (cper "backend.sat_ns" /. 1e3);
      Common.m "backend.sat_lazy_ms" "ms" (cper "backend.sat_lazy_ns" /. 1e3);
      Common.m "backend.dlr.unknown" "count/run" (per_run "dlr.unknown" "backend.dlr.runs");
      Common.m "backend.sat_lazy.rounds" "count/run" (per_run "lazy.rounds" "backend.sat_lazy.runs");
      Common.m "backend.sat_lazy.instantiated_clauses" "count/run"
        (per_run "lazy.inst" "backend.sat_lazy.runs");
      Common.m "backend.race_cancelled" "count/round"
        (Layers.counter acc "race_cancelled" /. float_of_int rounds);
      Common.m "backend.loser_ms" "ms" (cper "loser_ns" /. 1e3);
    ]
    @ List.mapi (fun i k -> Common.m (Printf.sprintf "patterns.p%d_us" (i + 1)) "us" (per k)) pattern_names
    @ Common.m "mem.peak_rss_mb" "MB" rss
      :: Common.m "cpu_ms_per_req" "ms" (cpu_ms_per_req ref_tm)
      :: Layers.gc_metrics ~requests:ref_tm.requests ~rounds gc
    @ Layers.overhead_and_coverage ~untraced_ns:ref_tm.busy_ns ~traced_ns:tm.busy_ns
        ~requests:reqs ~critical_us:critical
  in
  (tm, ref_tm, layers)
