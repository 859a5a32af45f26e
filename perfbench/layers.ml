(* Per-layer accounting for the traced run: span self times folded out of
   the program's tracer (plus the benchmark's own replay spans recorded
   into the same tracer), and plain counters. *)

module Trace = Orm_trace.Trace

type t = {
  self_ns : (string, int ref) Hashtbl.t;  (* span name -> summed self time *)
  total_ns : (string, int ref) Hashtbl.t;  (* span name -> summed duration *)
  counts : (string, float ref) Hashtbl.t;  (* free-form counters *)
  samples : (string, Common.Samples.t) Hashtbl.t;  (* per-event durations *)
}

let create () =
  {
    self_ns = Hashtbl.create 64;
    total_ns = Hashtbl.create 64;
    counts = Hashtbl.create 64;
    samples = Hashtbl.create 8;
  }

let bump tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some r -> r := !r + v
  | None -> Hashtbl.replace tbl k (ref v)

let count t k v =
  match Hashtbl.find_opt t.counts k with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace t.counts k (ref v)

let sample t k v =
  let s =
    match Hashtbl.find_opt t.samples k with
    | Some s -> s
    | None ->
        let s = Common.Samples.create () in
        Hashtbl.replace t.samples k s;
        s
  in
  Common.Samples.add s v

let self t k = match Hashtbl.find_opt t.self_ns k with Some r -> !r | None -> 0
let total t k = match Hashtbl.find_opt t.total_ns k with Some r -> !r | None -> 0
let counter t k = match Hashtbl.find_opt t.counts k with Some r -> !r | None -> 0.

let samples t k =
  match Hashtbl.find_opt t.samples k with
  | Some s -> Common.Samples.sorted s
  | None -> [||]

(* Folds a batch of events (grouped by domain, chronological within each):
   a span's self time is its duration minus the time its child spans on
   the same domain cover.  Unbalanced events (ring wrap-around) are
   skipped. *)
let fold t (events : Trace.event list) =
  let stacks = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      let stack =
        match Hashtbl.find_opt stacks e.domain with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.replace stacks e.domain s;
            s
      in
      match e.phase with
      | Trace.Begin -> stack := (e.name, e.ts_ns, ref 0) :: !stack
      | Trace.End -> (
          match !stack with
          | (name, start, child) :: rest when name = e.name ->
              let dur = e.ts_ns - start in
              bump t.self_ns name (dur - !child);
              bump t.total_ns name dur;
              stack := rest;
              (match rest with (_, _, pc) :: _ -> pc := !pc + dur | [] -> ())
          | _ -> ())
      | Trace.Instant | Trace.Counter -> ())
    events

(* Mean self time of [name] per request, in microseconds. *)
let per_req_us t ~requests name =
  float_of_int (self t name) /. 1e3 /. float_of_int (max 1 requests)

(* ---- the traced run ----------------------------------------------------- *)

(* One traced run: the program's tracer (shared with the benchmark's replay
   spans), an audit log in a scratch file, and the accumulators. *)
type ctx = {
  tr : Trace.t;
  acc : t;
  mutable mark : Trace.mark;
  audit_path : string;
  audit : Orm_obs.Audit.t;
}

let scratch_dir = ".perfbench"

let open_ctx () =
  (try Unix.mkdir scratch_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let audit_path =
    Filename.concat scratch_dir (Printf.sprintf "audit-%d.ndjson" (Unix.getpid ()))
  in
  (try Sys.remove audit_path with Sys_error _ -> ());
  let audit =
    match Orm_obs.Audit.create audit_path with
    | Ok a -> a
    | Error e -> failwith ("perfbench: cannot open the audit log: " ^ e)
  in
  let tr = Trace.create ~capacity:(1 lsl 18) () in
  { tr; acc = create (); mark = Trace.mark tr; audit_path; audit }

(* Folds everything recorded since the last call. *)
let collect c =
  fold c.acc (Trace.events_since c.tr c.mark);
  c.mark <- Trace.mark c.tr

(* Skips what was recorded since the last [collect]. *)
let skip c = c.mark <- Trace.mark c.tr

(* Drops what was recorded so far (warm-up). *)
let discard c =
  c.mark <- Trace.mark c.tr;
  Hashtbl.reset c.acc.self_ns;
  Hashtbl.reset c.acc.total_ns;
  Hashtbl.reset c.acc.counts;
  Hashtbl.reset c.acc.samples

(* Reads the audit log back: each record's phases, past the first [skip]
   records (warm-up), become samples ("audit.<phase>", in ns); then the
   file is removed. *)
let close_ctx ?(skip = 0) c =
  Orm_obs.Audit.close c.audit;
  let lines =
    match In_channel.with_open_text c.audit_path In_channel.input_all with
    | s ->
        String.split_on_char '\n' s
        |> List.filter (fun l -> l <> "")
        |> List.filteri (fun i _ -> i >= skip)
    | exception Sys_error _ -> []
  in
  List.iter
    (fun line ->
      match Orm_json.of_string line with
      | Ok v -> (
          match Orm_server.Protocol.member "phases" v with
          | Some (Orm_json.Obj phases) ->
              List.iter
                (fun (k, x) ->
                  match x with
                  | Orm_json.Int ns -> sample c.acc ("audit." ^ k) (float_of_int ns)
                  | _ -> ())
                phases
          | _ -> ())
      | Error _ -> ())
    lines;
  (try Sys.remove c.audit_path with Sys_error _ -> ());
  try Unix.rmdir scratch_dir with Unix.Unix_error _ -> ()

(* Summed audit phase [k] in ns. *)
let audit_total c k =
  match Hashtbl.find_opt c.acc.samples ("audit." ^ k) with
  | Some s -> Common.Samples.sum s
  | None -> 0.

(* GC counters of the calling domain, for per-request allocation. *)
type gc_mark = { minor_words : float; major : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major = s.Gc.major_collections }

let gc_delta a b =
  { minor_words = b.minor_words -. a.minor_words; major = b.major - a.major }

let gc_metrics ~requests ~rounds d =
  [
    Common.m "gc.minor_mb_per_req" "MB"
      (d.minor_words *. float_of_int (Sys.word_size / 8) /. 1e6
      /. float_of_int (max 1 requests));
    Common.m "gc.major_collections" "count/round"
      (float_of_int d.major /. float_of_int (max 1 rounds));
  ]

let overhead_and_coverage ~untraced_ns ~traced_ns ~requests ~critical_us =
  let per u = float_of_int u /. float_of_int (max 1 requests) in
  let traced_us = per traced_ns /. 1e3 in
  [
    Common.m "trace.overhead_pct" "%"
      (100. *. (per traced_ns -. per untraced_ns) /. per untraced_ns);
    Common.m "layers.coverage_pct" "%" (100. *. critical_us /. traced_us);
  ]
