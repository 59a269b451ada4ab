(* The repo benchmark.  See README.md for the workloads, the metrics and
   what each per-layer metric should move.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--root DIR]

   --trace 0: the end-to-end run.  Starts the shipped coral_server /
   coral_router binaries with their default flags as child processes
   (fresh ones every run), drives the workload's closed loop from this
   process, checks every answer against an in-process from-scratch
   reference, and prints the end-to-end metrics.

   --trace 1: the traced run.  Same seed and inputs; builds the engine
   the way the binary does, starts Server in-process, calls each
   layer's public functions in request order inside spans, and prints
   the per-layer metrics.  The spans are written as Chrome trace JSON
   under perfbench/work/traces/.

   The last stdout line is one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}. *)

module Protocol = Coral_server.Protocol
module Session = Coral_server.Session
module Server = Coral_server.Server
module Admission = Coral_server.Admission
module Plan_cache = Coral_server.Plan_cache
module Engine = Coral.Engine
module Obs = Coral_obs.Obs
open Inputs

(* ------------------------------------------------------------------ *)
(* Statistics and the result line                                      *)
(* ------------------------------------------------------------------ *)

(* Linear-interpolation quantile of an unsorted sample. *)
let quantile xs q =
  match xs with
  | [] -> 0.
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)
let ratio a b = if b = 0. then 0. else a /. b

let results : (string * float * string * int) list ref = ref []

(* Record one metric: value, unit, and the sample count behind it. *)
let metric name unit ~n v =
  let v = if Float.is_finite v then v else 0. in
  results := (name, v, unit, n) :: !results;
  Printf.printf "%-28s %14.6f %-6s (n=%d)\n%!" name v unit n

(* Printed with its unit and sample count, but kept out of the result
   line: tails that spread too much from run to run to be gated. *)
let info name unit ~n v = Printf.printf "%-28s %14.6f %-6s (n=%d; not gated)\n%!" name v unit n

let json_number v =
  let s = Printf.sprintf "%.17g" v in
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

(* Every op's answer is checked, so attempted is also the number of
   answers checked. *)
let print_result ~attempted ~failed =
  Printf.printf "answers checked: %d\n" attempted;
  Printf.printf "error_rate %.6f ratio (failed %d of %d attempted)\n" (ratio (float failed) (float attempted))
    failed attempted;
  let metrics =
    List.rev !results
    |> List.map (fun (name, v, unit, _) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0) attempted failed metrics

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)
(* ------------------------------------------------------------------ *)

type ctx = {
  inp : Inputs.t;
  files : string list;  (* facts.coral, program.coral (absolute) *)
  server_exe : string;
  router_exe : string;
  seconds : float;
  base : answer array;  (* reference answer per source on the EDB *)
  with_chord : answer array array;  (* per chord: the EDB plus that chord *)
}

(* Ops attempted and ops failed: an error reply, a refusal or a wrong
   answer. *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }
let tally_lock = Mutex.create ()

let count ~ok =
  Mutex.protect tally_lock (fun () ->
      tally.attempted <- tally.attempted + 1;
      if not ok then tally.failed <- tally.failed + 1)

(* The first few wrong answers go to stderr, so a defect is visible
   and not only counted. *)
let reported = Atomic.make 0

let report_wrong line rows expected =
  if Atomic.fetch_and_add reported 1 < 5 then
    Printf.eprintf "wrong answer: %s: %d rows, expected %d\n%!" line (List.length rows) (List.length expected)

let answer_ok ctx ~line rows expected =
  Inputs.answer_of_rows ctx.inp rows = expected || (report_wrong line rows expected; false)

(* A read of [src] may observe the EDB with or without any scheduled
   chord; on a strongly connected graph all of those agree. *)
let read_ok ctx src rows =
  let got = Inputs.answer_of_rows ctx.inp rows in
  got = ctx.base.(src)
  || Array.exists (fun a -> got = a.(src)) ctx.with_chord
  || (report_wrong (Inputs.query_line ctx.inp src) rows ctx.base.(src); false)

let applied_one r ~verb = Wire.ok r && r.Wire.status = Printf.sprintf "ok %s 1, %s 0" verb
    (if verb = "inserted" then "duplicate" else "missing")

let chord ctx j = List.nth ctx.inp.chords (j mod List.length ctx.inp.chords)

(* ------------------------------------------------------------------ *)
(* The system under test                                               *)
(* ------------------------------------------------------------------ *)

type system = { procs : Wire.proc list; addr : Wire.addr }

(* Start the workload's processes with their default flags; [rep]
   keeps socket names apart across set-up repetitions. *)
let start_system ctx ~rep =
  match ctx.inp.workload with
  | Dist_closure ->
    let worker i =
      let sock = Printf.sprintf "w%d_%d.sock" rep i in
      let p, _ = Wire.spawn ~label:"coral_server --worker" ~log:"servers.log" ctx.server_exe
          [ "--worker"; "--socket"; sock ] in
      p, sock
    in
    let workers = List.init 2 worker in
    let rsock = Printf.sprintf "r%d.sock" rep in
    let router, _ =
      Wire.spawn ~label:"coral_router" ~log:"servers.log" ctx.router_exe
        ([ "--socket"; rsock ] @ List.concat_map (fun (_, s) -> [ "--shard"; s ]) workers @ ctx.files)
    in
    { procs = router :: List.map fst workers; addr = Wire.Sock rsock }
  | _ ->
    let p, banner =
      Wire.spawn ~label:"coral_server" ~log:"servers.log" ctx.server_exe ([ "--port"; "0" ] @ ctx.files)
    in
    { procs = [ p ]; addr = Wire.Tcp (Wire.banner_port banner) }

let stop_system sys = List.iter Wire.stop sys.procs

(* Spawn, then the first correct answer: consult and the first
   maintained-extent build (or the cluster's first provisioning and
   distributed fixpoint) are all inside. *)
let first_answer ctx sys =
  let c = Wire.connect sys.addr in
  let src = ctx.inp.sources.(0) in
  let line = Inputs.query_line ctx.inp src in
  let r = Wire.request c line in
  Wire.close c;
  if not (Wire.ok r && answer_ok ctx ~line r.Wire.rows ctx.base.(src)) then
    failwith (Printf.sprintf "first answer wrong or failed: %s" r.Wire.status)

let setup_repetitions = 15

(* Set up [setup_repetitions] times, each from spawn to the first
   correct answer; keep the last system running for the measurement. *)
let timed_setups ctx =
  let rec go rep acc =
    let t0 = Wire.now_ns () in
    let sys = start_system ctx ~rep in
    first_answer ctx sys;
    let dt = float_of_int (Wire.now_ns () - t0) /. 1e9 in
    if rep + 1 = setup_repetitions then sys, List.rev (dt :: acc)
    else begin
      stop_system sys;
      go (rep + 1) (dt :: acc)
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Closed-loop load                                                    *)
(* ------------------------------------------------------------------ *)

type loop_result = {
  op_ms : float list;  (* one latency per op, in completion order *)
  op_s : float list;  (* each op's completion time, s after the loop started *)
  read_ms : float list;  (* read requests on read-only connections / the query of an op *)
  elapsed_s : float;
}

(* A tail percentile that stays steady from run to run: the run's
   samples (in completion order) are cut into consecutive blocks just
   large enough that each block has ten samples beyond the percentile,
   and the median of the blocks' percentiles is reported.  A run too
   short for two blocks reports its plain percentile. *)
let tail xs q =
  let block = int_of_float (Float.ceil (10. /. (1. -. q))) in
  let nblocks = List.length xs / block in
  if nblocks < 2 then quantile xs q
  else
    let a = Array.of_list xs in
    median (List.init nblocks (fun b -> quantile (Array.to_list (Array.sub a (b * block) block)) q))

(* Run [conns] closed-loop clients until [seconds] have passed; client
   [k]'s op [i] returns its op latency, if it is an op, and the
   latencies of its read requests.
   A client past the deadline stops at the first op [i] where
   [boundary k i] holds (default: at once). *)
let closed_loop ?(boundary = fun _ _ -> true) addr ~conns ~seconds op =
  let deadline = Wire.now_ns () + int_of_float (seconds *. 1e9) in
  let t0 = Wire.now_ns () in
  let per = Array.make conns ([], []) in
  let client k () =
    let c = Wire.connect addr in
    let rec go i ops reads =
      if Wire.now_ns () >= deadline && boundary k i then ops, reads
      else
        let o, r = op c k i in
        let t = Wire.now_ns () in
        go (i + 1)
          (match o with Some v -> (t, v) :: ops | None -> ops)
          (List.fold_left (fun acc v -> (t, v) :: acc) reads r)
    in
    per.(k) <- go 0 [] [];
    ignore (Wire.request c "quit");
    Wire.close c
  in
  let threads = List.init conns (fun k -> Thread.create (client k) ()) in
  List.iter Thread.join threads;
  let elapsed_s = float_of_int (Wire.now_ns () - t0) /. 1e9 in
  let in_order samples = List.sort compare (List.concat samples) in
  let ops = in_order (List.map fst (Array.to_list per)) in
  { op_ms = List.map snd ops;
    op_s = List.map (fun (t, _) -> float_of_int (t - t0) /. 1e9) ops;
    read_ms = List.map snd (in_order (List.map snd (Array.to_list per)));
    elapsed_s
  }

(* One timed request; its latency and whether the check passed. *)
let timed c line check =
  let t0 = Wire.now_ns () in
  let r = Wire.request c line in
  let ms = Wire.ms_since t0 in
  ms, check r

(* One update of chord [j] plus the read that returns its effect (on
   dist_closure, a point read of a rotating source); [within] wraps
   each request (the traced run records spans with it).  Returns the
   latency, the read's latency and whether both checks passed. *)
let update ?(within = fun _ f -> f ()) ctx c j ~inserting =
  let inp = ctx.inp in
  let a, b = chord ctx j in
  let verb = if inserting then "insert" else "retract" in
  let t0 = Wire.now_ns () in
  let u = within "update" (fun () -> Wire.request c (Printf.sprintf "%s edge(%d, %d)." verb a b)) in
  let q0 = Wire.now_ns () in
  let src = if inp.workload = Dist_closure then inp.sources.(j mod inp.nodes) else a in
  let line = Inputs.query_line inp src in
  let r = within "query" (fun () -> Wire.request c line) in
  let read = Wire.ms_since q0 and ms = Wire.ms_since t0 in
  let expected = if inserting then ctx.with_chord.(j mod List.length inp.chords).(src) else ctx.base.(src) in
  ( ms,
    read,
    applied_one u ~verb:(if inserting then "inserted" else "retracted")
    && Wire.ok r && answer_ok ctx ~line r.Wire.rows expected )

(* update_write's op j: insert chord j, then retract it, each followed
   by its read-back from the chord's source and then from every other
   source — one whole cycle back to the seeded EDB.  The sweep gives
   each op 2n read samples, so read_p50_ms is a median over thousands
   of reads, not a few dozen. *)
let update_write_op ctx c _ j =
  let inp = ctx.inp in
  let sweep ~inserting =
    let a, _ = chord ctx j in
    let expected = if inserting then ctx.with_chord.(j mod List.length inp.chords) else ctx.base in
    List.filter_map
      (fun src ->
        if src = a then None
        else
          let line = Inputs.query_line inp src in
          Some (timed c line (fun r -> Wire.ok r && answer_ok ctx ~line r.Wire.rows expected.(src))))
      (Array.to_list inp.sources)
  in
  let t0 = Wire.now_ns () in
  let _, read1, ok1 = update ctx c j ~inserting:true in
  let sweep1 = sweep ~inserting:true in
  let _, read2, ok2 = update ctx c j ~inserting:false in
  let sweep2 = sweep ~inserting:false in
  let ms = Wire.ms_since t0 in
  let swept = sweep1 @ sweep2 in
  count ~ok:(ok1 && ok2 && List.for_all snd swept);
  Some ms, read1 :: read2 :: List.map fst swept

(* The workload's op mix against a running system.  Returns the loop
   result; every op is counted in the tally. *)
let drive ctx sys ~seconds =
  let inp = ctx.inp in
  let n = inp.nodes in
  match inp.workload with
  | Serve_point | Serve_derived ->
    let conns = if inp.workload = Serve_point then 2 else 1 in
    closed_loop sys.addr ~conns ~seconds (fun c k i ->
        let src = inp.sources.(((k * n / conns) + i) mod n) in
        let line = Inputs.query_line inp src in
        let ms, ok = timed c line (fun r -> Wire.ok r && answer_ok ctx ~line r.Wire.rows ctx.base.(src)) in
        count ~ok;
        Some ms, [ ms ])
  | Update_read ->
    (* the writer: op 2j inserts chord j, op 2j+1 retracts it, and
       stops on whole cycles; the reader: point reads beside it *)
    let boundary k i = k = 1 || i mod 2 = 0 in
    closed_loop ~boundary sys.addr ~conns:2 ~seconds (fun c k i ->
        if k = 1 then begin
          let src = inp.sources.(i mod n) in
          let ms, ok = timed c (Inputs.query_line inp src) (fun r -> Wire.ok r && read_ok ctx src r.Wire.rows) in
          count ~ok;
          None, [ ms ]
        end
        else begin
          let ms, _, ok = update ctx c (i / 2) ~inserting:(i mod 2 = 0) in
          count ~ok;
          Some ms, []
        end)
  | Update_write -> closed_loop sys.addr ~conns:1 ~seconds (update_write_op ctx)
  | Dist_closure ->
    (* op 2j inserts chord j through the router, op 2j+1 retracts it;
       each is followed by a point read that reprovisions the cluster *)
    closed_loop sys.addr ~conns:1 ~seconds (fun c _ i ->
        let ms, read, ok = update ctx c (i / 2) ~inserting:(i mod 2 = 0) in
        count ~ok;
        Some ms, [ read ])

(* Untimed warm-up: one read of every source, so plan caches fill. *)
let warm_up ctx sys =
  match ctx.inp.workload with
  | Dist_closure -> ()
  | _ ->
    let c = Wire.connect sys.addr in
    Array.iter (fun src -> ignore (Wire.request c (Inputs.query_line ctx.inp src))) ctx.inp.sources;
    Wire.close c

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics                                       *)
(* ------------------------------------------------------------------ *)

let rss_mb sys = List.fold_left (fun acc p -> acc +. Wire.vm_hwm_mb p) 0. sys.procs

(* Runs [pass] on fresh systems one after another, pass [i] on
   [ctx_of i], for as long as [more i] holds.  [sys] is already running
   on [ctx_of 0].  Each later pass's set-up (spawn to the first correct
   answer) is one more set-up sample; the time between passes is not
   measured.  Returns each pass's loop result, the set-ups and each
   pass's peak RSS. *)
let in_passes sys ~setups ~ctx_of ~more pass =
  let rec go i sys done_ setups rss =
    let res = pass (ctx_of i) sys in
    let rss = rss_mb sys :: rss in
    stop_system sys;
    let done_ = res :: done_ in
    if not (more (i + 1)) then List.rev done_, List.rev setups, rss
    else begin
      let ctx = ctx_of (i + 1) in
      let t0 = Wire.now_ns () in
      let sys = start_system ctx ~rep:(i + 1) in
      first_answer ctx sys;
      let dt = float_of_int (Wire.now_ns () - t0) /. 1e9 in
      warm_up ctx sys;
      go (i + 1) sys done_ (dt :: setups) rss
    end
  in
  go 0 sys [] (List.rev setups) []

(* serve_derived serves [derived_graphs] seeded graphs in turn, each on
   a fresh server for an equal share of the run.  A Figure 3 request's
   cost depends strongly on its graph's chords and weights (per-graph
   p50 from 8 to 15 ms over 20 seeds), so one graph per run made the
   seed, not the program, decide the figures.  (Putting the graphs side
   by side in one fact file does not work: a request then costs as
   much as all the graphs together.) *)
let derived_graphs = 16

(* update_write runs in passes.  A pass inserts and retracts every
   scheduled chord once, on a fresh server; the run repeats passes
   until [seconds] have passed, and ends on a whole pass.  The retract
   drift (README.md) grows with the number of updates a server has
   taken, so in a single long loop an op's latency depends on how many
   ops came before it, and that count on the host's speed.  In passes,
   op j of every pass sits at the same place in the drift, in every
   run. *)
let measure ctx ~graph sys ~setups =
  match ctx.inp.workload with
  | Update_write ->
    let k = List.length ctx.inp.chords in
    let deadline = Wire.now_ns () + int_of_float (ctx.seconds *. 1e9) in
    in_passes sys ~setups ~ctx_of:(fun _ -> ctx) ~more:(fun _ -> Wire.now_ns () < deadline) (fun ctx sys ->
        closed_loop ~boundary:(fun _ i -> i >= k) sys.addr ~conns:1 ~seconds:0. (update_write_op ctx))
  | Serve_derived ->
    let slice = ctx.seconds /. float_of_int derived_graphs in
    in_passes sys ~setups
      ~ctx_of:(fun g -> if g = 0 then ctx else graph g)
      ~more:(fun g -> g < derived_graphs)
      (fun ctx sys -> drive ctx sys ~seconds:slice)
  | _ ->
    in_passes sys ~setups ~ctx_of:(fun _ -> ctx) ~more:(fun _ -> false) (fun ctx sys ->
        drive ctx sys ~seconds:ctx.seconds)

(* Completed ops per second, as the median over consecutive blocks of
   [rate_block] completions of each block's rate.  A closed loop's
   plain rate is its mean latency turned over, and on a shared host
   the mean follows how much of the run other tenants stole: over 10
   serve_point runs the plain rate spread 0.29 while p50_ms spread
   0.05.  The median block rate follows the typical op, as p50_ms does.
   [op_s] holds the completion times of passes laid end to end; a run
   with fewer than three blocks reports its plain rate. *)
let rate_block = 10

let ops_per_s op_s ~elapsed_s =
  let a = Array.of_list op_s in
  let nb = Array.length a / rate_block in
  if nb < 3 then float_of_int (Array.length a) /. elapsed_s
  else
    median
      (List.init nb (fun b ->
           let start = if b = 0 then 0. else a.((b * rate_block) - 1) in
           float_of_int rate_block /. (a.(((b + 1) * rate_block) - 1) -. start)))

let end_to_end ctx ~graph =
  let sys, setups = timed_setups ctx in
  warm_up ctx sys;
  let passes, setups, rss = measure ctx ~graph sys ~setups in
  let op_ms = List.concat_map (fun r -> r.op_ms) passes and read_ms = List.concat_map (fun r -> r.read_ms) passes in
  let nops = List.length op_ms and nreads = List.length read_ms in
  let elapsed_s = List.fold_left (fun acc r -> acc +. r.elapsed_s) 0. passes in
  let op_s, _ =
    List.fold_left (fun (acc, offset) r -> acc @ List.map (( +. ) offset) r.op_s, offset +. r.elapsed_s) ([], 0.) passes
  in
  metric "ops_per_s" "ops/s" ~n:nops (ops_per_s op_s ~elapsed_s);
  metric "p50_ms" "ms" ~n:nops (quantile op_ms 0.5);
  info "p90_ms" "ms" ~n:nops (tail op_ms 0.9);
  info "p99_ms" "ms" ~n:nops (tail op_ms 0.99);
  metric "read_p50_ms" "ms" ~n:nreads (quantile read_ms 0.5);
  info "read_p99_ms" "ms" ~n:nreads (tail read_ms 0.99);
  metric "setup_s" "s" ~n:(List.length setups) (median setups);
  metric "rss_mb" "MiB" ~n:(List.length rss) (median rss)

(* ------------------------------------------------------------------ *)
(* --trace 1: per-layer metrics                                        *)
(* ------------------------------------------------------------------ *)

(* Per-layer samples, keyed by metric name. *)
let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v = Hashtbl.replace samples name (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])
let got name = Option.value (Hashtbl.find_opt samples name) ~default:[]
let total name = List.fold_left ( +. ) 0. (got name)

let us_of_ns ns = float_of_int ns /. 1e3

let time_us f =
  let t0 = Wire.now_ns () in
  let v = f () in
  v, us_of_ns (Wire.now_ns () - t0)

let render_rows (r : Engine.query_result) =
  List.map
    (fun row ->
      if r.Engine.qvars = [] then Protocol.Ans "true"
      else
        Protocol.Ans
          (String.concat ", "
             (List.map2
                (fun (v : Coral.Term.var) value ->
                  Printf.sprintf "%s = %s" v.Coral.Term.vname (Coral.Term.to_string value))
                r.Engine.qvars (Array.to_list row))))
    r.Engine.rows

let ans_rows (resp : Protocol.response) =
  List.filter_map (function Protocol.Ans s -> Some s | Protocol.Txt _ -> None) resp.Protocol.payload

let rel_delta f =
  let i0, d0, s0 = Coral.Relation.global_stats () in
  let v = f () in
  let i1, d1, s1 = Coral.Relation.global_stats () in
  sample "rel.inserts" (float_of_int (i1 - i0));
  sample "rel.duplicates" (float_of_int (d1 - d0));
  sample "rel.scans" (float_of_int (s1 - s0));
  v

(* Every per-layer metric with its unit, in BENCHMARK.json's order. *)
let per_layer =
  [ "server.parse_us", "us"; "admission.admit_us", "us"; "snapshot.freeze_us", "us";
    "snapshot.read_view_us", "us"; "plan.prepare_us", "us"; "plan.hit_ratio", "ratio";
    "rewrite.plan_us", "us"; "eval.query_us", "us"; "eval.rounds_per_op", "count";
    "phase.rewrite_us", "us"; "phase.eval_us", "us"; "phase.emit_us", "us"; "emit.render_us", "us";
    "emit.rows_per_op", "count"; "session.handle_us", "us"; "session.overhead_us", "us";
    "wire.overhead_us", "us"; "session.commit_us", "us"; "rel.inserts_per_op", "count";
    "rel.duplicates_per_op", "count"; "rel.scans_per_op", "count"; "rel.useful_ratio", "ratio";
    "maintain.insert_us", "us"; "maintain.retract_us", "us"; "maintain.deleted_per_retract", "count";
    "maintain.rederived_per_retract", "count"; "maintain.rounds_per_update", "count";
    "maintain.rederive_ratio", "ratio"; "maintain.retract_drift", "ratio"; "dist.fixpoint_ms", "ms";
    "dist.rounds", "count"; "dist.shipped_tuples", "count"; "dist.shipped_bytes", "bytes";
    "dist.skew_max", "ratio"; "dist.step_max_ms", "ms"; "dist.barrier_wait_ms", "ms";
    "dist.reprovision_ms", "ms"; "dist.single_node_ms", "ms"; "dist.overhead_ratio", "ratio";
    "trace.overhead_pct", "%" ]

let layer name ~n v = metric name (List.assoc name per_layer) ~n v

(* A layer the workload does not pass through reports 0 with n=0. *)
let not_exercised prefix why =
  List.iter
    (fun (name, unit) ->
      if String.starts_with ~prefix name then begin
        Printf.printf "%-32s (not exercised: %s)\n" name why;
        results := (name, 0., unit, 0) :: !results
      end)
    per_layer

(* The layers a served read passes through, called in request order,
   each inside its own span under one "request" root. *)
type read_layers = {
  tr : Spans.t;
  gate : Admission.t;
  pc : Plan_cache.t;
  mutable view : Engine.view;
  mutable epoch : int;
}

(* Returns the eval.query span's duration in us. *)
let traced_read ctx ly ~op ~src =
  let within name f = Spans.within ly.tr ~op name f in
  within "request" (fun () ->
      let line = Inputs.query_line ctx.inp src in
      let text =
        within "server.parse" (fun () ->
            match Protocol.parse_request line with
            | `Req (Protocol.Query text) -> text
            | _ -> failwith "parse_request: not a query")
      in
      within "admission.admit" (fun () ->
          match Admission.admit ly.gate with
          | `Admitted -> Admission.release ly.gate
          | `Busy _ -> failwith "default admission gate refused");
      let rdb = within "snapshot.read_view" (fun () -> Coral.of_engine (Engine.read_view ly.view)) in
      let lits =
        within "plan.prepare" (fun () ->
            match Plan_cache.prepare ly.pc ~epoch:ly.epoch rdb text with
            | Ok (lits, _) -> lits
            | Error _ -> failwith "plan cache: parse error")
      in
      let rounds = ref 0 in
      let r, eval_us =
        within "eval.query" (fun () ->
            time_us (fun () ->
                rel_delta (fun () ->
                    Coral.with_progress rdb
                      (fun ~rounds:_ ~delta:_ ~lanes:_ -> incr rounds)
                      (fun () -> Engine.query (Coral.engine rdb) lits))))
      in
      sample "eval.rounds" (float_of_int !rounds);
      sample "emit.rows" (float_of_int (List.length r.Engine.rows));
      let payload =
        within "emit.render" (fun () ->
            let payload = render_rows r in
            Protocol.render (Buffer.create 1024) (Protocol.ok payload);
            payload)
      in
      let rows = List.map (function Protocol.Ans s -> s | Protocol.Txt s -> s) payload in
      count ~ok:(read_ok ctx src rows);
      eval_us)

let phase_names = [ "phase.rewrite"; "phase.eval"; "phase.emit" ]

let hist_sum name =
  match Obs.find name with Some (Obs.M_histogram h) -> Obs.Histogram.sum_ns h | _ -> 0

(* The whole request through Session.handle, with the Obs phase
   histograms read around it; returns its time in us. *)
let handled_read ctx sess ~src =
  let before = List.map hist_sum phase_names in
  let line = Inputs.query_line ctx.inp src in
  let text = String.sub line 6 (String.length line - 6) in
  let resp, us = time_us (fun () -> Session.handle sess (Protocol.Query text)) in
  List.iter2 (fun name b -> sample name (us_of_ns (hist_sum name - b))) phase_names before;
  sample "session.handle" us;
  count ~ok:(Result.is_ok resp.Protocol.status && read_ok ctx src (ans_rows resp));
  us

let freeze store =
  let view, us =
    time_us (fun () -> Session.locked store (fun () -> Engine.snapshot (Coral.engine (Session.db store))))
  in
  sample "snapshot.freeze" us;
  match view with Some v -> v | None -> failwith "snapshot: no lock-free view"

(* The engine the binary builds: maintenance on, then the files. *)
let binary_engine ctx =
  let db = Coral.create () in
  Engine.set_maintenance (Coral.engine db) true;
  List.iter (Coral.consult_file db) ctx.files;
  db

(* Cold planning of the workload's query form on fresh engines. *)
let cold_plans ctx =
  let pred, adorn = match ctx.inp.workload with Serve_derived -> "s_p", "bfff" | _ -> "path", "bf" in
  for _ = 1 to 5 do
    let db = binary_engine ctx in
    let plan, us =
      time_us (fun () ->
          Engine.plan_for (Coral.engine db) ~pred:(Coral.Symbol.intern pred) ~arity:(String.length adorn)
            ~adorn:(Coral.Ast.adornment_of_string adorn))
    in
    if Result.is_error plan then failwith "plan_for failed";
    sample "rewrite.plan" us
  done

(* The store's own prepared-plan cache, as its stats report it. *)
let plan_hit_ratio sess =
  let resp = Session.handle sess Protocol.Stats in
  let find name =
    List.find_map
      (function
        | Protocol.Txt l when String.starts_with ~prefix:(name ^ "=") l ->
          float_of_string_opt (String.sub l (String.length name + 1) (String.length l - String.length name - 1))
        | _ -> None)
      resp.Protocol.payload
    |> Option.value ~default:0.
  in
  let hits = find "prepared.hits" and misses = find "prepared.misses" in
  ratio hits (hits +. misses)

(* An untraced wire pass against the binary: the read p50 that
   wire.overhead_us is taken from (never reported end to end).  Reads,
   not whole ops, because update ops grow with the retract drift while
   a read-back does not. *)
let wire_read_p50_ms ctx ~seconds =
  let sys = start_system ctx ~rep:0 in
  first_answer ctx sys;
  warm_up ctx sys;
  let res = drive ctx sys ~seconds in
  stop_system sys;
  quantile res.read_ms 0.5

(* serve_point, serve_derived and the update workloads: Server started
   in-process on the engine the binary builds.  Each op runs once
   through the layers one by one (traced) and once through
   Session.handle (untraced). *)
let traced_served ctx =
  let inp = ctx.inp and n = ctx.inp.nodes in
  let wire_ms = wire_read_p50_ms ctx ~seconds:(ctx.seconds *. 0.25) in
  let t_end = Wire.now_ns () + int_of_float (ctx.seconds *. 0.75 *. 1e9) in
  Obs.set_enabled true;
  let srv = Server.start ~listen:(`Unix "traced.sock") (binary_engine ctx) in
  let store = Server.store srv in
  let sess = Session.create store in
  let tr = Spans.create () in
  let ly =
    { tr; gate = Admission.create Admission.default; pc = Plan_cache.create (); view = freeze store;
      epoch = Session.snapshot_epoch store }
  in
  (* warm both paths, as the end-to-end run does *)
  Array.iter (fun src -> ignore (traced_read ctx ly ~op:(-1) ~src, handled_read ctx sess ~src)) inp.sources;
  tr.Spans.spans <- [];
  Hashtbl.reset samples;
  tally.attempted <- 0;
  tally.failed <- 0;
  cold_plans ctx;
  for _ = 1 to 5 do
    ly.view <- freeze store
  done;
  let ops = ref 0 in
  (* one read both ways; returns (handle us, handle - eval us) *)
  let read ~op src =
    let eval_us = traced_read ctx ly ~op ~src in
    let handle_us = handled_read ctx sess ~src in
    handle_us, handle_us -. eval_us
  in
  (match inp.workload with
  | Update_read | Update_write ->
    (* a second engine built the same way takes the same updates
       through Engine.insert_facts / retract_facts directly, so the
       maintenance time can be split from Session.handle's *)
    let deng = Coral.engine (binary_engine ctx) in
    let edge = Coral.Symbol.intern "edge" in
    let cycle = ref 0 in
    while Wire.now_ns () < t_end do
      let a, b = chord ctx !cycle in
      (* one update both ways, then its read-back; returns the
         Session.handle time of the update and the read, and the read's
         handle - eval *)
      let update_both ~inserting ~op =
        let verb = if inserting then "insert" else "retract" in
        let fact = Printf.sprintf "edge(%d, %d)." a b in
        let resp, update_us =
          time_us (fun () -> Session.handle sess (if inserting then Protocol.Insert fact else Protocol.Retract fact))
        in
        let rep, maint_us =
          Spans.within tr ~op ("maintain." ^ verb) (fun () ->
              time_us (fun () ->
                  rel_delta (fun () ->
                      let facts = [ edge, [| Coral.int a; Coral.int b |] ] in
                      if inserting then Engine.insert_facts deng facts else Engine.retract_facts deng facts)))
        in
        count ~ok:(Result.is_ok resp.Protocol.status && rep.Engine.ur_applied = 1);
        sample ("maintain." ^ verb) maint_us;
        sample "session.commit" (update_us -. maint_us);
        sample "maintain.rounds" (float_of_int rep.Engine.ur_rounds);
        if not inserting then begin
          sample "maintain.deleted" (float_of_int rep.Engine.ur_deleted);
          sample "maintain.rederived" (float_of_int rep.Engine.ur_rederived)
        end;
        (* the commit's new version, then the read that returns the
           update's effect *)
        let view, us = time_us (fun () -> Engine.snapshot deng) in
        sample "snapshot.freeze" us;
        (match view with Some v -> ly.view <- v | None -> failwith "snapshot: no lock-free view");
        ly.epoch <- ly.epoch + 1;
        let handle_us, overhead_us = read ~op a in
        (* update_write's sweep: the read-back from every other source *)
        let swept =
          if inp.workload = Update_write then
            List.filter_map (fun src -> if src = a then None else Some (read ~op src)) (Array.to_list inp.sources)
          else []
        in
        ( update_us +. handle_us +. List.fold_left (fun acc (h, _) -> acc +. h) 0. swept,
          mean (overhead_us :: List.map snd swept) )
      in
      if inp.workload = Update_write then begin
        (* the op is the whole insert/retract cycle with its sweeps *)
        let h1, o1 = update_both ~inserting:true ~op:!ops in
        let h2, o2 = update_both ~inserting:false ~op:!ops in
        sample "op.handle" (h1 +. h2);
        sample "op.overhead" ((o1 +. o2) /. 2.);
        incr ops
      end
      else
        List.iter
          (fun inserting ->
            let op = !ops in
            let h, o = update_both ~inserting ~op in
            sample "op.handle" h;
            sample "op.overhead" o;
            incr ops;
            (* the reader's point read beside it *)
            ignore (read ~op:(-1) inp.sources.(op mod n)))
          [ true; false ];
      incr cycle
    done;
    let retracts = List.rev (got "maintain.retract") in
    let nr = List.length retracts and nu = List.length (got "maintain.rounds") in
    let tenth = max 1 (nr / 10) in
    let first = List.filteri (fun i _ -> i < tenth) retracts in
    let last = List.filteri (fun i _ -> i >= nr - tenth) retracts in
    layer "maintain.insert_us" ~n:(List.length (got "maintain.insert")) (median (got "maintain.insert"));
    layer "maintain.retract_us" ~n:nr (median retracts);
    layer "maintain.deleted_per_retract" ~n:nr (mean (got "maintain.deleted"));
    layer "maintain.rederived_per_retract" ~n:nr (mean (got "maintain.rederived"));
    layer "maintain.rounds_per_update" ~n:nu (mean (got "maintain.rounds"));
    layer "maintain.rederive_ratio" ~n:nr (ratio (total "maintain.rederived") (total "maintain.deleted"));
    layer "maintain.retract_drift" ~n:nr (ratio (mean last) (mean first));
    layer "session.commit_us" ~n:nu (median (got "session.commit"))
  | _ ->
    while Wire.now_ns () < t_end do
      let handle_us, overhead_us = read ~op:!ops inp.sources.(!ops mod n) in
      sample "op.handle" handle_us;
      sample "op.overhead" overhead_us;
      incr ops
    done;
    not_exercised "maintain." "no updates";
    not_exercised "session.commit" "no updates");
  (* span self times, per layer *)
  let self = Hashtbl.create 16 in
  List.iter
    (fun ((s : Spans.span), ns) ->
      Hashtbl.replace self s.Spans.name (us_of_ns ns :: Option.value (Hashtbl.find_opt self s.Spans.name) ~default:[]))
    (Spans.self_times tr);
  let span_layer metric_name span_name =
    let xs = Option.value (Hashtbl.find_opt self span_name) ~default:[] in
    layer metric_name ~n:(List.length xs) (median xs)
  in
  let nreq = List.length (got "session.handle") in
  span_layer "server.parse_us" "server.parse";
  span_layer "admission.admit_us" "admission.admit";
  layer "snapshot.freeze_us" ~n:(List.length (got "snapshot.freeze")) (median (got "snapshot.freeze"));
  span_layer "snapshot.read_view_us" "snapshot.read_view";
  span_layer "plan.prepare_us" "plan.prepare";
  layer "plan.hit_ratio" ~n:nreq (plan_hit_ratio sess);
  layer "rewrite.plan_us" ~n:(List.length (got "rewrite.plan")) (median (got "rewrite.plan"));
  span_layer "eval.query_us" "eval.query";
  layer "eval.rounds_per_op" ~n:!ops (total "eval.rounds" /. float_of_int (max 1 !ops));
  List.iter (fun p -> layer (p ^ "_us") ~n:nreq (ratio (total p) (float_of_int nreq))) phase_names;
  span_layer "emit.render_us" "emit.render";
  layer "emit.rows_per_op" ~n:!ops (total "emit.rows" /. float_of_int (max 1 !ops));
  let handle = median (got "session.handle") in
  layer "session.handle_us" ~n:!ops (median (got "op.handle"));
  layer "session.overhead_us" ~n:!ops (median (got "op.overhead"));
  layer "wire.overhead_us" ~n:nreq ((wire_ms *. 1e3) -. handle);
  let per_op name = total name /. float_of_int (max 1 !ops) in
  layer "rel.inserts_per_op" ~n:!ops (per_op "rel.inserts");
  layer "rel.duplicates_per_op" ~n:!ops (per_op "rel.duplicates");
  layer "rel.scans_per_op" ~n:!ops (per_op "rel.scans");
  layer "rel.useful_ratio" ~n:!ops
    (ratio (total "rel.inserts") (total "rel.inserts" +. total "rel.duplicates"));
  not_exercised "dist." "single node";
  (* a request's self times add up to its root span: the traced
     request, against the untraced Session.handle of the same request *)
  let roots = List.filter (fun (s : Spans.span) -> s.Spans.parent < 0 && s.Spans.name = "request") tr.Spans.spans in
  let traced = median (List.map (fun s -> us_of_ns (Spans.dur s)) roots) in
  Printf.printf "span self times per request: p50 sum %.3f us (n=%d); untraced session.handle p50 %.3f us (n=%d)\n"
    traced (List.length roots) handle nreq;
  layer "trace.overhead_pct" ~n:nreq (100. *. ratio (traced -. handle) handle);
  Session.close sess;
  Server.shutdown srv;
  tr

(* The "txt round=..." lines of a dstat reply: the sum over rounds of
   the slowest shard's step. *)
let step_max_sum (ds : Wire.reply) =
  List.fold_left
    (fun acc l ->
      if String.starts_with ~prefix:"round=" l then
        String.split_on_char ' ' l
        |> List.find_map (fun tok ->
               if String.starts_with ~prefix:"step_max_ms=" tok then
                 float_of_string_opt (String.sub tok 12 (String.length tok - 12))
               else None)
        |> Option.fold ~none:acc ~some:(( +. ) acc)
      else acc)
    0. ds.Wire.txt

(* dist_closure: the cluster binaries, read through the router's stats
   and dstat after every traced op.  Cycles alternate traced and
   untraced, so trace.overhead_pct compares like with like. *)
let traced_dist ctx =
  let inp = ctx.inp and n = ctx.inp.nodes in
  let single =
    let db = Inputs.reference_engine inp ~extra:[] in
    List.init 5 (fun _ ->
        let rows, us = time_us (fun () -> Coral.query_rows db "path(X, Y)") in
        if List.length rows <> n * n then failwith "single node: wrong closure size";
        us /. 1e3)
  in
  let sys = start_system ctx ~rep:0 in
  first_answer ctx sys;
  let c = Wire.connect sys.addr in
  let tr = Spans.create () in
  let t_end = Wire.now_ns () + int_of_float (ctx.seconds *. 1e9) in
  let i = ref 0 in
  while Wire.now_ns () < t_end || !i mod 4 <> 0 do
    let op = !i in
    let j = op / 2 and inserting = op mod 2 = 0 in
    if j mod 2 = 0 then begin
      let ms, _, ok = update ctx c j ~inserting in
      count ~ok;
      sample "op.untraced" ms
    end
    else begin
      let op_ms, _, ok =
        Spans.within tr ~op "dist.op" (fun () ->
            update ~within:(fun name f -> Spans.within tr ~op ("dist." ^ name) f) ctx c j ~inserting)
      in
      count ~ok;
      sample "op.traced" op_ms;
      let st = Spans.within tr ~op "router.stats" (fun () -> Wire.request c "stats") in
      let ds = Spans.within tr ~op "router.dstat" (fun () -> Wire.request c "dstat") in
      let get name = Option.value (Wire.stat st name) ~default:0. in
      let fix = get "router.fixpoint.wall_ms" and step_max = step_max_sum ds in
      sample "dist.fixpoint_ms" fix;
      sample "dist.rounds" (get "router.fixpoint.rounds");
      sample "dist.shipped_tuples" (get "router.fixpoint.shipped_tuples");
      sample "dist.shipped_bytes" (get "router.fixpoint.shipped_bytes");
      sample "dist.skew_max" (get "router.fixpoint.skew");
      sample "dist.step_max_ms" step_max;
      sample "dist.barrier_wait_ms" (fix -. step_max);
      sample "dist.reprovision_ms" (op_ms -. fix)
    end;
    incr i
  done;
  ignore (Wire.request c "quit");
  Wire.close c;
  stop_system sys;
  List.iter
    (fun (name, _) ->
      if not (String.starts_with ~prefix:"dist." name || name = "trace.overhead_pct") then
        not_exercised name "the cluster is measured through the router")
    per_layer;
  let nt = List.length (got "op.traced") in
  List.iter
    (fun name -> layer name ~n:nt (median (got name)))
    [ "dist.fixpoint_ms"; "dist.rounds"; "dist.shipped_tuples"; "dist.shipped_bytes"; "dist.skew_max";
      "dist.step_max_ms"; "dist.barrier_wait_ms"; "dist.reprovision_ms" ];
  let single_ms = median single in
  layer "dist.single_node_ms" ~n:(List.length single) single_ms;
  layer "dist.overhead_ratio" ~n:nt (ratio (median (got "dist.fixpoint_ms")) single_ms);
  let traced = median (got "op.traced") and plain = median (got "op.untraced") in
  Printf.printf "traced op p50 %.3f ms (n=%d); untraced op p50 %.3f ms (n=%d)\n" traced nt plain
    (List.length (got "op.untraced"));
  layer "trace.overhead_pct" ~n:nt (100. *. ratio (traced -. plain) plain);
  tr

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let root = ref (Sys.getcwd ()) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := int_of_string t; parse rest
    | "--root" :: r :: rest -> root := r; parse rest
    | arg :: _ -> Printf.eprintf "bench: unknown argument %s\n" arg; exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let w =
    match List.assoc_opt !workload Inputs.workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "bench: --workload must be one of %s\n"
        (String.concat ", " (List.map fst Inputs.workloads));
      exit 2
  in
  let root = if Filename.is_relative !root then Filename.concat (Sys.getcwd ()) !root else !root in
  let exe name = Filename.concat root ("_build/default/bin/" ^ name ^ ".exe") in
  let work = Filename.concat root (Printf.sprintf "perfbench/work/%s-%d-%d" !workload !seed (Unix.getpid ())) in
  let traces = Filename.concat root "perfbench/work/traces" in
  List.iter
    (fun d -> if not (Sys.file_exists d) then ignore (Sys.command (Filename.quote_command "mkdir" [ "-p"; d ])))
    [ work; traces ];
  Sys.chdir work;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* graph [g] of the seed, its files under [work] (graph 0) or a
     subdirectory of it, and its reference answers *)
  let graph g =
    let dir = if g = 0 then work else Filename.concat work (Printf.sprintf "graph%d" g) in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let inp = Inputs.generate w ~seed:!seed ~graph:g in
    let files = Inputs.write_files inp ~dir in
    let base, with_chord =
      match w with
      | Serve_derived -> Inputs.cost_answers inp, [||]
      | _ ->
        ( Inputs.closure_answers inp ~extra:[],
          Array.of_list (List.map (fun c -> Inputs.closure_answers inp ~extra:[ c ]) inp.chords) )
    in
    { inp; files; server_exe = exe "coral_server"; router_exe = exe "coral_router"; seconds = !seconds; base;
      with_chord }
  in
  let ctx = graph 0 in
  let inp = ctx.inp in
  Printf.printf "workload %s seed %d: %d nodes, %d edges, %d scheduled chords; %.0fs %s run\n%!" !workload !seed
    inp.nodes (List.length inp.edges) (List.length inp.chords) !seconds
    (if !trace = 1 then "traced" else "end-to-end");
  let status =
    match
      if !trace = 1 then begin
        let tr = match w with Dist_closure -> traced_dist ctx | _ -> traced_served ctx in
        let path = Filename.concat traces (Printf.sprintf "%s-%d.json" !workload !seed) in
        Spans.write_chrome tr path;
        Printf.printf "trace: %s (%d spans)\n" path (List.length tr.Spans.spans);
        (* BENCHMARK.json's order, whatever order the layers reported in *)
        results :=
          List.rev_map (fun (name, _) -> List.find (fun (n, _, _, _) -> n = name) !results) per_layer
      end
      else end_to_end ctx ~graph
    with
    | () ->
      print_result ~attempted:tally.attempted ~failed:tally.failed;
      0
    | exception e ->
      Printf.eprintf "bench: %s\n%!" (Printexc.to_string e);
      1
  in
  Wire.stop_all ();
  Sys.chdir root;
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; work ]));
  exit status
