(* http-pipelined: one HTTP/1.1 keep-alive connection to
   [Orm_net.Frontend.serve_fd], running on its own domain, carrying
   pipelined bursts of [depth] warm [check] requests over [w] distinct
   schemas.  A warm hit costs little inside [Server.handle], so framing,
   buffering and system calls dominate.  A burst is deep enough that the
   server's output buffer holds many responses at once. *)

open Common
module P = Orm_server.Protocol
module Server = Orm_server.Server
module Metrics = Orm_telemetry.Metrics
module Http = Orm_net.Http

let w = 50
let depth = 400
let warm_depth = 64
let bursts_per_round = 1

(* Sizes 16-40, two schemas of each: every request is over 1 KiB, so one
   64 KiB read of the server never holds more requests than its admission
   queue takes (max_pending, 64); see README, "Make-up of the inputs". *)
let lo = 16
let hi = 40

type input = {
  item : Inputs.item;
  params : string;  (* the request body *)
  expect_prefix : string;  (* the in-process answer around its id *)
  expect_suffix : string;
}

let placeholder = "PERFBENCHID"

(* The in-process answer to each request, from a second server: warmed
   once, then asked again so its answer is the cached one the HTTP server
   will give.  The first answer is checked against the planted fault, so
   the reference is anchored on the generator, not on the server. *)
let make_inputs ?(n = w) ?(hi = hi) tm ~seed =
  let items = Inputs.stratified ~seed ~salt:4 ~n ~lo ~hi ~fault_every:3 in
  let oracle = Server.create ~metrics:(Metrics.create ()) Server.default_config in
  Array.map
    (fun (it : Inputs.item) ->
      let line = P.build_request ~id:placeholder ~schema_text:it.text P.Check in
      let first, _ = Server.handle oracle line in
      (match Oracle.parse_ok ~id:placeholder first with
      | Error e -> fail tm "http-pipelined reference %d: %s" it.k e
      | Ok r -> (
          match P.member "report" r.P.body with
          | Some rep -> (
              match Oracle.check_report ~injection:it.injection rep with
              | Ok () -> ()
              | Error e -> fail tm "http-pipelined reference %d: %s" it.k e)
          | None -> fail tm "http-pipelined reference %d: no report" it.k));
      let warm, _ = Server.handle oracle line in
      let quoted = "\"" ^ placeholder ^ "\"" in
      let i =
        match find_sub warm quoted with
        | Some i -> i
        | None -> failwith "perfbench: reference answer carries no id"
      in
      {
        item = it;
        params = P.build_params ~schema_text:it.text ();
        expect_prefix = String.sub warm 0 (i + 1);
        expect_suffix =
          String.sub warm (i + 1 + String.length placeholder)
            (String.length warm - i - 1 - String.length placeholder);
      })
    items

let request_bytes inp ~id =
  Printf.sprintf
    "POST /v1/check HTTP/1.1\r\nHost: perfbench\r\nX-Request-Id: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    id (String.length inp.params) inp.params

(* ---- the server and the client connection ------------------------------- *)

type conn = {
  srv : Server.t;
  listen : Unix.file_descr;
  domain : float Domain.t;  (* returns the server domain's minor words *)
  fd : Unix.file_descr;
  mutable rx : string;  (* received, not yet consumed *)
  chunk : Bytes.t;
}

let start ?tracer ?audit () =
  let srv = Server.create ~metrics:(Metrics.create ()) ?tracer ?audit Server.default_config in
  let spec = Orm_net.Listen.Http ("127.0.0.1", 0) in
  let listen =
    match Orm_net.Listen.bind spec with
    | Ok fd -> fd
    | Error e -> failwith ("perfbench: " ^ e)
  in
  let port =
    match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let domain =
    Domain.spawn (fun () ->
        let g0 = Gc.quick_stat () in
        Orm_net.Frontend.serve_fd ~server:srv ~framing:Orm_net.Listen.Http_framing listen;
        (Gc.quick_stat ()).Gc.minor_words -. g0.Gc.minor_words)
  in
  let fd =
    match Orm_net.Listen.connect (Orm_net.Listen.Http ("127.0.0.1", port)) with
    | Ok fd -> fd
    | Error e -> failwith ("perfbench: " ^ e)
  in
  (* a pipelining client sends whole bursts: no Nagle delay on the tail *)
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { srv; listen; domain; fd; rx = ""; chunk = Bytes.create 65536 }

(* Stops the server loop and waits for its domain; returns the server
   domain's minor words. *)
let stop c =
  Atomic.set (Server.stop_flag c.srv) true;
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  let words = Domain.join c.domain in
  (try Unix.close c.listen with Unix.Unix_error _ -> ());
  words

let rec write_all fd s off =
  if off < String.length s then
    let n = Unix.write_substring fd s off (String.length s - off) in
    write_all fd s (off + n)

(* One complete response at [pos] of the received bytes: (status, body,
   position after it). *)
let take_response rx pos =
  match find_sub ~from:pos rx "\r\n\r\n" with
  | None -> None
  | Some h ->
      let head = String.lowercase_ascii (String.sub rx pos (h - pos)) in
      let cl =
        match find_sub head "content-length:" with
        | None -> 0
        | Some i ->
            let j = i + String.length "content-length:" in
            let e = match String.index_from_opt head j '\r' with Some e -> e | None -> String.length head in
            int_of_string (String.trim (String.sub head j (e - j)))
      in
      let stop = h + 4 + cl in
      if String.length rx < stop then None
      else
        let status =
          match String.split_on_char ' ' head with _ :: code :: _ -> int_of_string code | _ -> 0
        in
        Some (status, String.sub rx (h + 4) cl, stop)

type span_hook = { on : string -> (unit -> unit) -> unit }

let no_hook = { on = (fun _ f -> f ()) }

(* Sends one burst and reads its [depth] responses.  The burst is the
   latency sample: from its first byte written to its last response read,
   what a pipelining client waits for.  (Single responses arrive in a
   pattern set by TCP's delayed acknowledgements, see README "Known
   faults" 4, which made a per-response median read 6-11 ms by chance.) *)
let burst ?(hook = no_hook) ?(depth = depth) tm c inputs b =
  let reqs =
    List.init depth (fun j ->
        let inp = inputs.(((b * depth) + j) mod Array.length inputs) in
        (inp, Printf.sprintf "b%d" j))
  in
  let bytes = String.concat "" (List.map (fun (inp, id) -> request_bytes inp ~id) reqs) in
  let t0 = now_ns () in
  hook.on "write" (fun () -> write_all c.fd bytes 0);
  let got = ref [] in
  let read_bytes = ref 0 in
  let pending = ref depth in
  let pos = ref 0 in
  while !pending > 0 do
    match take_response c.rx !pos with
    | Some (status, body, next) ->
        pos := next;
        got := (status, body) :: !got;
        decr pending
    | None ->
        let n = ref 0 in
        hook.on "read_wait" (fun () -> n := Unix.read c.fd c.chunk 0 (Bytes.length c.chunk));
        if !n = 0 then failwith "perfbench: the server closed the connection";
        read_bytes := !read_bytes + !n;
        c.rx <-
          String.sub c.rx !pos (String.length c.rx - !pos)
          ^ Bytes.sub_string c.chunk 0 !n;
        pos := 0
  done;
  c.rx <- String.sub c.rx !pos (String.length c.rx - !pos);
  let dt = now_ns () - t0 in
  Samples.add tm.lat_ms (float_of_int dt /. 1e6);
  tm.busy_ns <- tm.busy_ns + dt;
  tm.requests <- tm.requests + depth;
  (List.combine reqs (List.rev !got), String.length bytes + !read_bytes)

let check tm ((inp, id), (status, body)) =
  let expect = inp.expect_prefix ^ id ^ inp.expect_suffix in
  let body = if String.ends_with ~suffix:"\n" body then String.sub body 0 (String.length body - 1) else body in
  if status <> 200 then fail tm "http-pipelined %s: HTTP status %d" id status
  else if body <> expect then fail tm "http-pipelined %s: body differs from the in-process answer" id
  else if inp.item.injection <> None then tm.conclusive <- tm.conclusive + 1

(* Primes the server's cache: one burst covers every distinct request
   ([warm_depth] >= [w]), outside any timing. *)
let prime c inputs = ignore (burst ~depth:warm_depth (new_timed ()) c inputs 0)

(* The seed-independent warm-up set: eight schemas of sizes 16-23. *)
let warm_inputs = lazy (make_inputs ~n:8 ~hi:(lo + 7) (new_timed ()) ~seed:0)

let run ~seed ~seconds ~spawn_s =
  let tm = new_timed () in
  let inputs = make_inputs tm ~seed in
  let warm = Lazy.force warm_inputs in
  let c, setup =
    repeated_setup
      ~discard:(fun c -> ignore (stop c))
      (fun () ->
        let c = start () in
        (* the seed-independent warm-up pass: each of a fixed set of
           requests on its own, so no answer waits on a delayed ACK *)
        Array.iteri (fun b _ -> ignore (burst ~depth:1 (new_timed ()) c warm b)) warm;
        c)
  in
  prime c inputs;
  let _ =
    run_blocks ~per_round:bursts_per_round ~until:(`Seconds (tm, seconds)) (fun b ->
        let results, _ = block tm (fun () -> burst tm c inputs b) in
        List.iter (check tm) results)
  in
  ignore (stop c);
  (tm, tm.requests, end_to_end ~tail:0.9 ~setup_s:(spawn_s +. setup) tm)

(* ---- traced run --------------------------------------------------------- *)

let trace_run ~seed ~seconds =
  let ref_tm = new_timed () in
  let inputs = make_inputs ref_tm ~seed in
  let c = start () in
  prime c inputs;
  let g0 = Layers.gc_mark () in
  let blocks =
    run_blocks ~per_round:bursts_per_round ~until:(`Whole_rounds (ref_tm, seconds /. 3.)) (fun b ->
        let results, _ = block ref_tm (fun () -> burst ref_tm c inputs b) in
        List.iter (check ref_tm) results)
  in
  let server_words = stop c in
  let gc = Layers.gc_delta g0 (Layers.gc_mark ()) in
  let rss = peak_rss_mb () in
  let gc = { gc with Layers.minor_words = gc.Layers.minor_words +. server_words } in
  let rounds = blocks / bursts_per_round in
  let ctx = Layers.open_ctx () in
  let tm = new_timed () in
  let c = start ~tracer:ctx.tr ~audit:ctx.audit () in
  prime c inputs;
  Layers.collect ctx;
  let skip = Server.requests_served c.srv in
  Layers.discard ctx;
  let tr = ctx.tr in
  let hook = { on = (fun name f -> Orm_trace.Trace.with_span tr name f) } in
  let bytes = ref 0 in
  let _ =
    run_blocks ~per_round:bursts_per_round ~until:(`Rounds rounds) (fun b ->
        let results, nbytes = burst ~hook tm c inputs b in
        Layers.collect ctx;
        bytes := !bytes + nbytes;
        (* replay: the server's HTTP parse of each request, and the
           client's handling of each response *)
        List.iter
          (fun ((inp, id), _) ->
            let raw = request_bytes inp ~id in
            Orm_trace.Trace.with_span tr "http.parse" (fun () -> ignore (Http.parse raw)))
          results;
        List.iter (check tm) results)
  in
  ignore (stop c);
  Layers.collect ctx;
  Layers.close_ctx ~skip ctx;
  let acc = ctx.acc in
  let reqs = tm.requests in
  let per = Layers.per_req_us acc ~requests:reqs in
  let audit_us k = Layers.audit_total ctx k /. 1e3 /. float_of_int reqs in
  let critical = per "write" +. per "read_wait" in
  let traced_ns = tm.busy_ns in
  let layers =
    [
      Common.m "http.parse_us" "us" (per "http.parse");
      Common.m "envelope.parse_us" "us" (audit_us "parse");
      Common.m "write_us" "us" (per "write");
      Common.m "read_wait_us" "us" (per "read_wait");
      Common.m "net.bytes_per_req" "B" (float_of_int !bytes /. float_of_int reqs);
      Common.m "server.request_us" "us"
        (float_of_int (Layers.total acc "server.request") /. 1e3 /. float_of_int reqs);
    ]
    @ Common.m "mem.peak_rss_mb" "MB" rss
      :: Common.m "cpu_ms_per_req" "ms" (cpu_ms_per_req ref_tm)
      :: Layers.gc_metrics ~requests:ref_tm.requests ~rounds gc
    @ Layers.overhead_and_coverage ~untraced_ns:ref_tm.busy_ns ~traced_ns
        ~requests:reqs ~critical_us:critical
  in
  (tm, ref_tm, layers)
