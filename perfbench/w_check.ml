(* check-stream: [check] requests through [Server.handle] over a fixed
   corpus of distinct generated schemas of sizes 8-40, a third with one
   planted fault.  Each schema is sent once as itself (a miss),
   [clone_lag] slots later as a renamed, reordered clone (a
   canonical-tier hit) and [repeat_lag] slots later byte for byte again
   (an alias hit).  A pass sends the whole corpus to a fresh server; the
   run seed picks the sending order and the clones' names. *)

open Common
module P = Orm_server.Protocol
module Server = Orm_server.Server
module Metrics = Orm_telemetry.Metrics
module Canon = Orm_registry.Canon
module J = Orm_json

let lo = 8
let hi = 40
let clone_lag = 8
let repeat_lag = 16

(* The corpus is the same in every run, so every run meets the same few
   schemas that take a hundred to a thousand times the typical time to
   canonicalize (README, "Make-up of the inputs"). *)
let corpus_seed = 1
let corpus_strata = 15

(* Slots per block: the output checks run between blocks. *)
let slots_per_block = 32

type input = {
  item : Inputs.item;
  orig_line : string;
  clone_line : string;
  repeat_line : string;
  map : (string, string) Hashtbl.t;  (* original -> clone names *)
  rename : Canon.rename;  (* the same bijection, for the rename replay *)
}

let make_input ~seed (it : Inputs.item) =
  let rng = Random.State.make [| seed; 11; it.k |] in
  let clone_text, map = Inputs.clone ~rng it in
  let name = Orm.Schema.name it.schema in
  let pairs =
    Hashtbl.fold (fun k v acc -> if k = name then acc else (k, v) :: acc) map []
  in
  let line id text = P.build_request ~id ~schema_text:text P.Check in
  {
    item = it;
    orig_line = line (Printf.sprintf "o%d" it.k) it.text;
    clone_line = line (Printf.sprintf "c%d" it.k) clone_text;
    repeat_line = line (Printf.sprintf "r%d" it.k) it.text;
    map;
    rename =
      {
        Canon.schema_name = (name, Hashtbl.find map name);
        types = List.sort compare pairs;
        facts = [];
        constraint_ids = [];
      };
  }

(* The corpus in the run's sending order, and each original's verified
   answer for its clone and repeat. *)
type stream = {
  inputs : input array;
  answers : (int, J.t) Hashtbl.t;
  mutable reordered : int;  (* clone answers equal only up to list order *)
}

let new_stream ~seed =
  let items =
    Array.concat
      (List.init corpus_strata (fun m ->
           Inputs.stratum ~seed:corpus_seed ~salt:1 ~m ~lo ~hi ~fault_every:3))
  in
  let inputs = shuffle (Random.State.make [| seed; 12 |]) (Array.map (make_input ~seed) items) in
  { inputs; answers = Hashtbl.create 512; reordered = 0 }

let corpus_size = corpus_strata * (hi - lo + 1)

(* Slot [s] of a pass sends the original at position [s], the clone at
   [s - clone_lag] and the repeat at [s - repeat_lag], where they exist;
   the pass ends when every repeat is sent. *)
let slots_per_pass = corpus_size + repeat_lag
let blocks_per_pass = (slots_per_pass + slots_per_block - 1) / slots_per_block

(* The seed-independent warm-up set every set-up sends: one stratum. *)
let warm_lines =
  lazy
    (Array.to_list
       (Array.map
          (fun (it : Inputs.item) ->
            P.build_request ~id:"w" ~schema_text:it.text P.Check)
          (Inputs.stratum ~seed:0 ~salt:90 ~m:0 ~lo ~hi ~fault_every:3)))

(* A server as [ormcheck serve] makes one; [warm] sends the warm-up set. *)
let make_server ?tracer ?audit ~warm () =
  let m = Metrics.create () in
  let s = Server.create ~metrics:m ?tracer ?audit Server.default_config in
  if warm then List.iter (fun l -> ignore (Server.handle s l)) (Lazy.force warm_lines);
  (s, m)

type kind = Orig | Clone | Repeat

let slot_requests s =
  List.filter
    (fun (_, i) -> i >= 0 && i < corpus_size)
    [ (Orig, s); (Clone, s - clone_lag); (Repeat, s - repeat_lag) ]

let line st (kind, i) =
  let inp = st.inputs.(i) in
  match kind with Orig -> inp.orig_line | Clone -> inp.clone_line | Repeat -> inp.repeat_line

let id_of st (kind, i) =
  Printf.sprintf "%c%d"
    (match kind with Orig -> 'o' | Clone -> 'c' | Repeat -> 'r')
    st.inputs.(i).item.k

(* Checks one response against the planted fault (originals) or the
   original's verified answer (clones, under the benchmark's renaming, and
   repeats). *)
let check tm st ((kind, i) as req) resp =
  let inp = st.inputs.(i) in
  let bad fmt = fail tm ("check-stream %s: " ^^ fmt) (id_of st req) in
  match Oracle.parse_ok ~id:(id_of st req) resp with
  | Error e -> bad "%s" e
  | Ok r -> (
      if Oracle.conclusive r.P.body then tm.conclusive <- tm.conclusive + 1;
      match kind with
      | Orig -> (
          let clean = inp.item.injection = None in
          Hashtbl.remove st.answers i;
          if r.P.cached then bad "a fresh schema was answered from the cache"
          else if P.member "clean" r.P.body <> Some (J.Bool clean) then
            bad "clean flag is wrong"
          else
            match P.member "report" r.P.body with
            | None -> bad "no report"
            | Some rep -> (
                match Oracle.check_report ~injection:inp.item.injection rep with
                | Error e -> bad "%s" e
                | Ok () -> Hashtbl.replace st.answers i (Oracle.answer_value r)))
      | Clone | Repeat -> (
          match Hashtbl.find_opt st.answers i with
          | None -> bad "the original was not answered correctly"
          | Some v ->
              let v = if kind = Clone then Inputs.rename_json inp.map v else v in
              let expect = J.to_string v in
              let got = Oracle.answer r in
              if not r.P.cached then bad "expected a cache hit"
              else if got = expect then ()
              else if
                kind = Clone
                && J.to_string (Oracle.unordered v)
                   = J.to_string (Oracle.unordered (Oracle.answer_value r))
              then st.reordered <- st.reordered + 1
              else bad "answer differs from the original's %s" (first_diff expect got)))

type counters = { hits : int; canon_hits : int; canon_misses : int }

let counters srv m =
  let s = Metrics.snapshot m in
  { hits = Server.cache_hits srv; canon_hits = s.Metrics.canon_hits; canon_misses = s.Metrics.canon_misses }

let diff a b =
  { hits = b.hits - a.hits; canon_hits = b.canon_hits - a.canon_hits; canon_misses = b.canon_misses - a.canon_misses }

(* The server of the current pass.  After a pass its own counters must
   show exactly one canonical miss, one canonical hit and two cache hits
   per schema. *)
type pass = {
  mutable srv : Server.t;
  mutable metrics : Metrics.t;
  mutable c0 : counters;
  mutable totals : counters;  (* summed over the finished passes *)
}

let new_pass (srv, m) =
  let z = { hits = 0; canon_hits = 0; canon_misses = 0 } in
  { srv; metrics = m; c0 = counters srv m; totals = z }

let end_pass tm ps =
  let d = diff ps.c0 (counters ps.srv ps.metrics) in
  let n = corpus_size in
  if d.canon_misses <> n || d.canon_hits <> n || d.hits <> 2 * n then
    break_invariant tm
      "cache tiers: %d misses, %d canonical hits, %d hits in a pass of %d schemas (expected %d/%d/%d)"
      d.canon_misses d.canon_hits d.hits n n n (2 * n);
  ps.totals <-
    {
      hits = ps.totals.hits + d.hits;
      canon_hits = ps.totals.canon_hits + d.canon_hits;
      canon_misses = ps.totals.canon_misses + d.canon_misses;
    }

(* Block [b]: slots [32 * (b mod blocks_per_pass) ...] of a pass.  A pass
   after the first starts on a fresh server, created outside the timing. *)
let run_block ?after ~fresh tm st ps b =
  let pb = b mod blocks_per_pass in
  if pb = 0 && b > 0 then begin
    let srv, m = fresh () in
    ps.srv <- srv;
    ps.metrics <- m;
    ps.c0 <- counters srv m
  end;
  let first = pb * slots_per_block in
  let last = min slots_per_pass (first + slots_per_block) - 1 in
  let reqs = List.concat_map slot_requests (List.init (last - first + 1) (fun j -> first + j)) in
  let resps =
    block tm (fun () ->
        List.map
          (fun req ->
            let line = line st req in
            let resp = timed tm (fun () -> fst (Server.handle ps.srv line)) in
            Option.iter (fun f -> f st req resp) after;
            (req, resp))
          reqs)
  in
  List.iter (fun (req, resp) -> check tm st req resp) resps;
  if pb = blocks_per_pass - 1 then end_pass tm ps

let report_reordered st =
  if st.reordered > 0 then
    Printf.eprintf
      "perfbench: check-stream: %d clone answers equal the original's only up to list order\n%!"
      st.reordered

let run ~seed ~seconds ~spawn_s =
  let st = new_stream ~seed in
  let tm = new_timed () in
  let first, setup = repeated_setup ~discard:(fun _ -> ()) (fun () -> make_server ~warm:true ()) in
  let ps = new_pass first in
  let _ =
    run_blocks ~per_round:blocks_per_pass ~until:(`Whole_rounds (tm, seconds))
      (run_block ~fresh:(make_server ~warm:false) tm st ps)
  in
  report_reordered st;
  (tm, tm.requests, end_to_end ~tail:0.9 ~setup_s:(spawn_s +. setup) tm)

(* ---- traced run --------------------------------------------------------- *)

let trace_run ~seed ~seconds =
  (* untraced reference: whole passes for a third of the run *)
  let ref_tm = new_timed () in
  let st = new_stream ~seed in
  let ps = new_pass (make_server ~warm:true ()) in
  let g0 = Layers.gc_mark () in
  let blocks =
    run_blocks ~per_round:blocks_per_pass ~until:(`Whole_rounds (ref_tm, seconds /. 3.))
      (run_block ~fresh:(make_server ~warm:false) ref_tm st ps)
  in
  let gc = Layers.gc_delta g0 (Layers.gc_mark ()) in
  let rss = peak_rss_mb () in
  let rounds = blocks / blocks_per_pass in
  (* traced: the same passes on fresh servers *)
  let ctx = Layers.open_ctx () in
  let tm = new_timed () in
  let srv, m = make_server ~tracer:ctx.tr ~audit:ctx.audit ~warm:true () in
  let skip = Server.requests_served srv in
  Layers.discard ctx;
  let ps = new_pass (srv, m) in
  let tr = ctx.tr in
  let after st ((kind, i) as req) resp =
    Layers.collect ctx;
    let inp = st.inputs.(i) in
    let text = if kind = Clone then inp.clone_line else inp.orig_line in
    (match kind with
    | Orig | Clone -> (
        let req_text =
          match P.parse_request text with
          | Ok { P.schema_text = Some t; _ } -> t
          | _ -> ""
        in
        let parsed =
          Orm_trace.Trace.with_span tr "dsl.parse" (fun () ->
              match Orm_dsl.Parser.parse req_text with
              | Ok s when Orm.Schema.validate s = [] -> Some s
              | _ -> None)
        in
        match (kind, parsed) with
        | Orig, Some s ->
            let report = Orm_patterns.Engine.check s in
            Orm_trace.Trace.with_span tr "serialize" (fun () ->
                ignore
                  (P.ok_response ~id:(Some (id_of st req)) ~cached:false
                     [
                       ("clean", J.Bool (report.Orm_patterns.Engine.diagnostics = []));
                       ("diagnostics", J.Int (List.length report.diagnostics));
                       ("report", Orm_export.Json.report_value report);
                     ]))
        | _ -> ())
    | Repeat -> ());
    (match P.parse_response resp with
    | Ok r ->
        let v = Oracle.answer_value r in
        Orm_trace.Trace.with_span tr "serialize.rename" (fun () -> ignore (Canon.rename_value inp.rename v))
    | Error _ -> ());
    Layers.collect ctx
  in
  let _ =
    run_blocks ~per_round:blocks_per_pass ~until:(`Rounds rounds)
      (run_block ~after ~fresh:(make_server ~tracer:ctx.tr ~audit:ctx.audit ~warm:false) tm st ps)
  in
  let d = ps.totals in
  Layers.close_ctx ~skip ctx;
  let acc = ctx.acc in
  let reqs = tm.requests in
  let per = Layers.per_req_us acc ~requests:reqs in
  let per_round x = float_of_int x /. float_of_int rounds in
  let audit_us k = Layers.audit_total ctx k /. 1e3 /. float_of_int reqs in
  let pattern_names = List.init 9 (fun i -> Printf.sprintf "pattern.%d" (i + 1)) in
  let patterns_us =
    List.fold_left (fun a k -> a +. per k) 0. ("engine.propagate" :: "engine.check" :: pattern_names)
  in
  let canon_sorted = Layers.samples acc "audit.canonicalize" in
  let critical =
    audit_us "parse" +. per "dsl.parse" +. audit_us "canonicalize" +. patterns_us
    +. per "serialize" +. per "serialize.rename"
  in
  let layers =
    [
      Common.m "envelope.parse_us" "us" (audit_us "parse");
      Common.m "dsl.parse_us" "us" (per "dsl.parse");
      Common.m "canonicalize_ms" "ms" (audit_us "canonicalize" /. 1e3);
      Common.m "canonicalize_tail_ms" "ms" (quantile canon_sorted 0.99 /. 1e6);
      Common.m "cache.alias_hits" "count/round" (per_round (d.hits - d.canon_hits));
      Common.m "cache.canon_hits" "count/round" (per_round d.canon_hits);
      Common.m "cache.misses" "count/round" (per_round d.canon_misses);
      Common.m "serialize_us" "us" (per "serialize");
      Common.m "serialize.rename_us" "us" (per "serialize.rename");
      Common.m "patterns_us" "us" patterns_us;
      Common.m "patterns.propagate_us" "us" (per "engine.propagate");
    ]
    @ List.mapi (fun i k -> Common.m (Printf.sprintf "patterns.p%d_us" (i + 1)) "us" (per k)) pattern_names
    @ Common.m "mem.peak_rss_mb" "MB" rss
      :: Common.m "cpu_ms_per_req" "ms" (cpu_ms_per_req ref_tm)
      :: Layers.gc_metrics ~requests:ref_tm.requests ~rounds gc
    @ Layers.overhead_and_coverage ~untraced_ns:ref_tm.busy_ns ~traced_ns:tm.busy_ns
        ~requests:reqs ~critical_us:critical
  in
  (tm, ref_tm, layers)
