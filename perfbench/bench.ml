(* The service benchmark's entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spawn-ns T]

   With --trace 0 it runs the workload's timed phase and prints the
   end-to-end metrics; with --trace 1 it makes the separate traced run and
   prints the per-layer metrics.  The last line of standard output is the
   result object.  [--spawn-ns] is the monotonic instant the launcher
   started this process at, so set-up time covers runtime start. *)

open Common

let workloads =
  [ "check-stream"; "reason-mix"; "edit-session"; "http-pipelined"; "reason-race" ]

(* Every per-layer metric, in the order printed; a workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [
    ("envelope.parse_us", "us"); ("dsl.parse_us", "us"); ("canonicalize_ms", "ms");
    ("canonicalize_tail_ms", "ms"); ("cache.alias_hits", "count/round");
    ("cache.canon_hits", "count/round"); ("cache.misses", "count/round");
    ("serialize_us", "us"); ("serialize.rename_us", "us"); ("patterns_us", "us");
  ]
  @ List.init 9 (fun i -> (Printf.sprintf "patterns.p%d_us" (i + 1), "us"))
  @ [
      ("patterns.propagate_us", "us"); ("session.apply_us", "us");
      ("session.rerun_patterns", "count/edit"); ("session.reused_patterns", "count/edit");
      ("plan_us", "us"); ("plan.races", "count/round"); ("plan.patterns_only", "count/round");
      ("plan.backend.dlr", "count/round"); ("plan.backend.sat", "count/round");
      ("plan.backend.sat-lazy", "count/round"); ("plan.race.dlr-sat", "count/round");
      ("plan.race.dlr-sat-lazy", "count/round"); ("plan.race.sat-sat-lazy", "count/round");
      ("plan.prediction_error", "log2"); ("plan.prediction_error.dlr", "log2");
      ("plan.prediction_error.sat", "log2"); ("plan.prediction_error.sat-lazy", "log2");
      ("backend.dlr_ms", "ms"); ("backend.sat_ms", "ms"); ("backend.sat_lazy_ms", "ms");
      ("backend.dlr.unknown", "count/run"); ("backend.sat_lazy.rounds", "count/run");
      ("backend.sat_lazy.instantiated_clauses", "count/run");
      ("backend.race_cancelled", "count/round"); ("backend.loser_ms", "ms");
      ("http.parse_us", "us"); ("write_us", "us"); ("read_wait_us", "us");
      ("net.bytes_per_req", "B"); ("server.request_us", "us");
      ("gc.minor_mb_per_req", "MB"); ("gc.major_collections", "count/round");
      ("layers.coverage_pct", "%"); ("trace.overhead_pct", "%"); ("mem.peak_rss_mb", "MB");
      ("cpu_ms_per_req", "ms");
    ]

(* [--reference]: canonicalization against pattern-engine time per schema
   size, over the generator's schemas (a third with a planted fault), for
   the README's reference table. *)
let reference () =
  Printf.printf "size  schemas  canon_p50_ms  canon_max_ms  engine_p50_ms  engine_max_ms  ratio_p50\n";
  List.iter
    (fun size ->
      let items =
        Array.init 30 (fun k ->
            Inputs.make_item ~seed:7 ~salt:5 ~k ~size
              ~fault:(if k mod 3 = 0 then Some (1 + (k / 3 mod 9)) else None))
      in
      let time f =
        let t0 = now_ns () in
        ignore (f ());
        float_of_int (now_ns () - t0) /. 1e6
      in
      let canon =
        Array.map (fun (it : Inputs.item) -> time (fun () -> Orm_registry.Canon.canonicalize it.schema)) items
      in
      let engine =
        Array.map (fun (it : Inputs.item) -> time (fun () -> Orm_patterns.Engine.check it.schema)) items
      in
      Array.sort compare canon;
      Array.sort compare engine;
      let p50 a = quantile a 0.5 and mx a = a.(Array.length a - 1) in
      Printf.printf "%4d  %7d  %12.3f  %12.1f  %13.3f  %13.3f  %9.0f\n%!" size (Array.length items)
        (p50 canon) (mx canon) (p50 engine) (mx engine) (p50 canon /. p50 engine))
    [ 8; 16; 24; 32; 40; 64 ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spawn-ns T]";
  exit 2

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--reference" then begin
    reference ();
    exit 0
  end;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  let spawn_ns = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spawn-ns" :: v :: rest -> spawn_ns := Some (int_of_string v); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seed < 0 || !seconds <= 0.
     || (!trace <> 0 && !trace <> 1)
  then usage ();
  let spawn_s =
    match !spawn_ns with
    | Some t -> float_of_int (now_ns () - t) /. 1e9
    | None -> 0.
  in
  let seed = !seed and seconds = !seconds in
  if !trace = 0 then begin
    let tm, attempted, e2e =
      match !workload with
      | "check-stream" -> W_check.run ~seed ~seconds ~spawn_s
      | "reason-mix" -> W_reason.run Solo ~seed ~seconds ~spawn_s
      | "reason-race" -> W_reason.run Race ~seed ~seconds ~spawn_s
      | "edit-session" -> W_edit.run ~seed ~seconds ~spawn_s
      | _ -> W_http.run ~seed ~seconds ~spawn_s
    in
    print_result ~correct:(tm.broken = []) ~attempted ~failed:tm.failed e2e
  end
  else begin
    let tm, ref_tm, layers =
      match !workload with
      | "check-stream" -> W_check.trace_run ~seed ~seconds
      | "reason-mix" -> W_reason.trace_run Solo ~seed ~seconds
      | "reason-race" -> W_reason.trace_run Race ~seed ~seconds
      | "edit-session" -> W_edit.trace_run ~seed ~seconds
      | _ -> W_http.trace_run ~seed ~seconds
    in
    let value name = List.find_opt (fun (mt : metric) -> mt.name = name) layers in
    List.iter
      (fun (mt : metric) ->
        if not (List.mem_assoc mt.name per_layer) then
          failwith ("perfbench: undeclared per-layer metric " ^ mt.name))
      layers;
    let metrics =
      List.map
        (fun (name, unit_) ->
          match value name with Some mt -> mt | None -> m name unit_ 0.)
        per_layer
    in
    print_result
      ~correct:(tm.broken = [] && ref_tm.broken = [])
      ~attempted:(tm.requests + ref_tm.requests)
      ~failed:(tm.failed + ref_tm.failed) metrics
  end
