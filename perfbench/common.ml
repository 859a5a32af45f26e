(* Clocks, samples, process counters and the result line shared by the
   four workloads. *)

module J = Orm_json

let now_ns () = Int64.to_int (Orm_telemetry.Metrics.now_ns ())

(* User plus system CPU of the whole process: every domain and thread. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set of the process (VmHWM), in MB. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | s ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        nan
        (String.split_on_char '\n' s)

(* A growable float sample buffer. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n

  let sorted t =
    let b = Array.sub t.a 0 t.n in
    Array.sort compare b;
    b

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s
end

(* Nearest-rank quantile of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail percentile is fixed per workload: the highest rung of the
   ladder p50/p90/p99 with at least ten samples beyond it in every run of
   that workload ([tail_q]).  A run with too few samples for it falls back
   down the ladder rather than report a tail that is no tail. *)
let tail_ladder = [ 0.99; 0.9; 0.5 ]

let tail_q ~want n =
  match
    List.find_opt
      (fun q -> q <= want && float_of_int n *. (1. -. q) >= 10.)
      tail_ladder
  with
  | Some q -> q
  | None -> 0.5

(* ---- the timed phase ---------------------------------------------------- *)

(* What a workload's timed phase accumulates.  [busy_ns] sums the timed
   intervals only: input generation and output checks run between them,
   with the clocks stopped. *)
type timed = {
  lat_ms : Samples.t;
  mutable busy_ns : int;
  mutable cpu : float;
  mutable requests : int;
  mutable failed : int;
  mutable conclusive : int;
  mutable broken : string list;
      (* global invariants that did not hold: the result is not correct *)
}

let new_timed () =
  {
    lat_ms = Samples.create ();
    busy_ns = 0;
    cpu = 0.;
    requests = 0;
    failed = 0;
    conclusive = 0;
    broken = [];
  }

let max_fail_reports = 5

(* An operation whose output check failed: counted, and the first few are
   described on stderr. *)
let fail tm fmt =
  Printf.ksprintf
    (fun msg ->
      tm.failed <- tm.failed + 1;
      if tm.failed <= max_fail_reports then
        Printf.eprintf "perfbench: check failed: %s\n%!" msg)
    fmt

let break_invariant tm fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "perfbench: invariant broken: %s\n%!" msg;
      tm.broken <- msg :: tm.broken)
    fmt

(* Runs [f] as one block of requests, adding its CPU time: the output
   checks run between blocks, outside it. *)
let block tm f =
  let c0 = cpu_s () in
  let r = f () in
  tm.cpu <- tm.cpu +. (cpu_s () -. c0);
  r

(* One timed request: its latency becomes a sample and its wall time adds
   to the timed phase. *)
let timed tm f =
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  tm.busy_ns <- tm.busy_ns + dt;
  tm.requests <- tm.requests + 1;
  Samples.add tm.lat_ms (float_of_int dt /. 1e6);
  r

(* Runs blocks 0, 1, 2, ... until [until] says so after a block; returns
   the number of blocks run.  [`Seconds (tm, s)] stops at the first block
   boundary after [s] seconds of timed requests in [tm] (output checks do
   not count), [`Whole_rounds (tm, s)] at the first round boundary after
   that, [`Rounds r] after exactly [r] rounds. *)
let run_blocks ~per_round ~until f =
  let busy tm = float_of_int tm.busy_ns /. 1e9 in
  let stop b =
    b > 0
    &&
    match until with
    | `Seconds (tm, s) -> busy tm >= s
    | `Whole_rounds (tm, s) -> b mod per_round = 0 && busy tm >= s
    | `Rounds r -> b >= r * per_round
  in
  let b = ref 0 in
  while not (stop !b) do
    f !b;
    incr b
  done;
  !b

(* ---- results ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Requests per second of the timed phase, and CPU per request: totals
   over the run, so every input's cost counts, the slowest included. *)
let throughput tm = float_of_int tm.requests /. (float_of_int tm.busy_ns /. 1e9)

let cpu_ms_per_req tm = tm.cpu *. 1000. /. float_of_int (max 1 tm.requests)

(* The end-to-end metrics of a timed phase. *)
let end_to_end ~tail ~setup_s tm =
  let sorted = Samples.sorted tm.lat_ms in
  let q = tail_q ~want:tail (Array.length sorted) in
  Printf.eprintf "perfbench: %d requests, %d latency samples, tail = p%g (%d samples beyond it)\n%!"
    tm.requests (Array.length sorted) (q *. 100.)
    (Array.length sorted - int_of_float (Float.ceil (q *. float_of_int (Array.length sorted))));
  [
    m "setup_s" "s" setup_s;
    m "throughput_rps" "1/s" (throughput tm);
    m "latency_p50_ms" "ms" (quantile sorted 0.5);
    m "latency_tail_ms" "ms" (quantile sorted q);
    m "conclusive_verdicts" "%"
      (100. *. float_of_int tm.conclusive /. float_of_int (max 1 tm.requests));
  ]

let print_result ~correct ~attempted ~failed metrics =
  let metrics =
    J.Obj
      (List.map
         (fun mt ->
           (mt.name, J.Obj [ ("value", J.Float mt.value); ("unit", J.String mt.unit_) ]))
         metrics)
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", metrics);
          ]))

(* ---- set-up ------------------------------------------------------------- *)

(* Set-up is repeated [setup_reps] times and its median reported; the last
   repetition's product is what the timed phase uses. *)
let setup_reps = 9

let repeated_setup ~discard make =
  let times = ref [] in
  let last = ref None in
  for _ = 1 to setup_reps do
    Option.iter discard !last;
    let t0 = now_ns () in
    let x = make () in
    times := (float_of_int (now_ns () - t0) /. 1e9) :: !times;
    last := Some x
  done;
  (Option.get !last, median_of !times)

(* First index of [sub] in [s] at or after [from]. *)
let find_sub ?(from = 0) s sub =
  let n = String.length sub and m = String.length s in
  let rec matches i j = j = n || (s.[i + j] = sub.[j] && matches i (j + 1)) in
  let rec go i = if i + n > m then None else if matches i 0 then Some i else go (i + 1) in
  go from

(* Where two answers part: the first differing byte with some context,
   for failure reports. *)
let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let ctx s = String.sub s (max 0 (i - 40)) (min (String.length s - max 0 (i - 40)) 100) in
  Printf.sprintf "at byte %d: expected ...%s... got ...%s..." i (ctx a) (ctx b)

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
