(* Server throughput benchmark: drives coral_server's wire protocol
   over real TCP sockets and reports requests/second.

   Run:  dune exec bench/server_bench.exe [-- --clients N] [--requests N]

   The workload is the serving sweet spot: a recursive path/2 module
   over a random graph, queried with rotating bound sources so every
   request after the first warm-up hits the prepared-plan cache.  Each
   client thread owns one connection and issues its requests back to
   back; engine work is serialized by the store lock, so the numbers
   measure protocol + dispatch + evaluation end to end.  The server runs
   with incremental maintenance on, as coral_server does by default, so
   a point read scans the maintained path/2 extent; the
   [maintenance_off] arm repeats the workload against a server built
   like [coral_server --no-maintain], where every read runs a fixpoint. *)

let program =
  "module paths.\n\
   export path(bf).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- edge(X, Z), path(Z, Y).\n\
   end_module.\n"

let nodes = 64

let build_db ?(maintain = true) () =
  let db = Coral.create () in
  let rand = ref 123456789 in
  let next_rand bound =
    rand := (!rand * 1103515245) + 12345;
    (!rand lsr 7) mod bound
  in
  for i = 0 to nodes - 1 do
    Coral.fact db "edge" [ Coral.int i; Coral.int ((i + 1) mod nodes) ];
    Coral.fact db "edge" [ Coral.int i; Coral.int (next_rand nodes) ]
  done;
  Coral.consult_text db program;
  Coral.Engine.set_maintenance (Coral.engine db) maintain;
  db

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd, fd

let request (ic, oc, _) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let rec drain n =
    match In_channel.input_line ic with
    | None -> failwith "server closed the connection"
    | Some line when Coral_server.Protocol.is_status line ->
      if String.starts_with ~prefix:"err " line then failwith ("server error: " ^ line);
      n
    | Some _ -> drain (n + 1)
  in
  drain 0

(* like [request] but a status of "err ..." is returned, not fatal —
   the long-fixpoint probe ends in a deliberate deadline error *)
let request_any (ic, oc, _) line =
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let rec drain () =
    match In_channel.input_line ic with
    | None -> failwith "server closed the connection"
    | Some line when Coral_server.Protocol.is_status line -> line
    | Some _ -> drain ()
  in
  drain ()

let client port requests id =
  let conn = connect port in
  let answers = ref 0 in
  for i = 0 to requests - 1 do
    let src = (id + (i * 7)) mod nodes in
    answers := !answers + request conn (Printf.sprintf "query path(%d, Y)" src)
  done;
  ignore (request conn "quit");
  let _, _, fd = conn in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  !answers

let close_conn (_, _, fd) = try Unix.close fd with Unix.Unix_error _ -> ()

let percentile lats p =
  let a = Array.copy lats in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* ------------------------------------------------------------------ *)
(* Read scaling: throughput and tail latency vs connection count       *)
(* ------------------------------------------------------------------ *)

(* Each connection issues [per_conn] point queries back to back;
   snapshot reads pin an epoch and evaluate without the store lock, so
   added connections overlap protocol handling with evaluation (and on
   multicore, evaluations with each other). *)
let run_scaling port ~conns ~per_conn =
  let lats = Array.make (conns * per_conn) 0.0 in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init conns (fun id ->
        Thread.create
          (fun () ->
            let c = connect port in
            for i = 0 to per_conn - 1 do
              let src = ((id * 31) + (i * 7)) mod nodes in
              let q0 = Unix.gettimeofday () in
              ignore (request c (Printf.sprintf "query path(%d, Y)" src));
              lats.((id * per_conn) + i) <- Unix.gettimeofday () -. q0
            done;
            ignore (request c "quit");
            close_conn c)
          ())
  in
  List.iter Thread.join threads;
  let dt = Unix.gettimeofday () -. t0 in
  let rps = float_of_int (conns * per_conn) /. dt in
  rps, percentile lats 0.5, percentile lats 0.99

(* The throughput workload and a one-connection latency pass against a
   fresh server with maintenance off.  Returns (rps, p50_s, p99_s). *)
let run_maintenance_off ~clients ~requests =
  let db = build_db ~maintain:false () in
  let srv = Coral_server.Server.start ~listen:(`Tcp ("127.0.0.1", 0)) db in
  let port = Coral_server.Server.port srv in
  let warm = connect port in
  ignore (request warm "query path(0, Y)");
  ignore (request warm "quit");
  close_conn warm;
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun id -> Thread.create (fun () -> client port requests id) ())
  in
  List.iter Thread.join threads;
  let rps = float_of_int (clients * requests) /. (Unix.gettimeofday () -. t0) in
  let _, p50, p99 = run_scaling port ~conns:1 ~per_conn:(max 50 (requests / 2)) in
  Coral_server.Server.shutdown srv;
  rps, p50, p99

(* ------------------------------------------------------------------ *)
(* Reader isolation: point-read p99 while a long fixpoint runs         *)
(* ------------------------------------------------------------------ *)

(* Two reader connections issue point queries for [seconds]; when
   [long] is set, another connection runs an unbounded recursive query
   (nat/1) under a deadline for the whole window, and an operator
   connection polls [ps] to record how many queries were genuinely
   in flight at once.  Returns (p99_s, max_inflight). *)
let run_isolation port ~seconds ~long =
  let lats_lock = Mutex.create () in
  let lats = ref [] in
  let stop = ref false in
  let max_inflight = ref 0 in
  let long_thread =
    if not long then None
    else
      Some
        (Thread.create
           (fun () ->
             let c = connect port in
             ignore (request c (Printf.sprintf "timeout %d" (int_of_float (seconds *. 1000.0))));
             (* ends in err TIMEOUT by design; keeps a fixpoint running
                for the whole measurement window *)
             ignore (request_any c "query nat(X)");
             ignore (request_any c "quit");
             close_conn c)
           ())
  in
  let ps_thread =
    Thread.create
      (fun () ->
        let c = connect port in
        let ic, oc, _ = c in
        while not !stop do
          output_string oc "ps\n";
          flush oc;
          let rec count n =
            match In_channel.input_line ic with
            | None -> n
            | Some l when Coral_server.Protocol.is_status l -> n
            | Some l -> count (if String.length l > 4 then n + 1 else n)
          in
          let inflight = count 0 in
          if inflight > !max_inflight then max_inflight := inflight;
          Thread.delay 0.02
        done;
        ignore (request c "quit");
        close_conn c)
      ()
  in
  (* let the long query get onto a pool domain before measuring *)
  if long then Thread.delay 0.2;
  let readers =
    List.init 2 (fun id ->
        Thread.create
          (fun () ->
            let c = connect port in
            let deadline = Unix.gettimeofday () +. seconds in
            let i = ref 0 in
            while Unix.gettimeofday () < deadline do
              let src = ((id * 17) + (!i * 7)) mod nodes in
              incr i;
              let q0 = Unix.gettimeofday () in
              ignore (request c (Printf.sprintf "query path(%d, Y)" src));
              let dt = Unix.gettimeofday () -. q0 in
              Mutex.lock lats_lock;
              lats := dt :: !lats;
              Mutex.unlock lats_lock
            done;
            ignore (request c "quit");
            close_conn c)
          ())
  in
  List.iter Thread.join readers;
  stop := true;
  Thread.join ps_thread;
  Option.iter Thread.join long_thread;
  percentile (Array.of_list !lats) 0.99, !max_inflight

(* ------------------------------------------------------------------ *)
(* Overload: drive at 2x the in-flight cap, shedding on vs unbounded   *)
(* ------------------------------------------------------------------ *)

(* [drivers] connections hammer point queries for [seconds] against a
   fresh server whose in-flight cap is [cap] (0 = unbounded).  With a
   cap the surplus is shed as BUSY and the driver backs off by the
   reply's retry-after advice; unbounded, every request queues on the
   engine.  Returns (goodput_rps, busy_total, p99 of served requests). *)
let run_overload ~cap ~drivers ~seconds =
  let db = build_db () in
  let limits =
    { Coral_server.Admission.default with Coral_server.Admission.max_inflight = cap }
  in
  let srv = Coral_server.Server.start ~limits ~listen:(`Tcp ("127.0.0.1", 0)) db in
  let port = Coral_server.Server.port srv in
  let ok = Atomic.make 0 and busy = Atomic.make 0 in
  let lats_lock = Mutex.create () in
  let lats = ref [] in
  let threads =
    List.init drivers (fun id ->
        Thread.create
          (fun () ->
            let c = connect port in
            let deadline = Unix.gettimeofday () +. seconds in
            let i = ref 0 in
            while Unix.gettimeofday () < deadline do
              let src = ((id * 13) + (!i * 7)) mod nodes in
              incr i;
              let q0 = Unix.gettimeofday () in
              let status = request_any c (Printf.sprintf "query path(%d, Y)" src) in
              if String.starts_with ~prefix:"err BUSY" status then begin
                Atomic.incr busy;
                let retry_ms =
                  match String.split_on_char ' ' status with
                  | _ :: _ :: ms :: _ -> ( try int_of_string ms with Failure _ -> 50)
                  | _ -> 50
                in
                Thread.delay (float_of_int retry_ms /. 1000.0)
              end
              else begin
                Atomic.incr ok;
                let dt = Unix.gettimeofday () -. q0 in
                Mutex.lock lats_lock;
                lats := dt :: !lats;
                Mutex.unlock lats_lock
              end
            done;
            ignore (request_any c "quit");
            close_conn c)
          ())
  in
  List.iter Thread.join threads;
  Coral_server.Server.shutdown srv;
  ( float_of_int (Atomic.get ok) /. seconds,
    Atomic.get busy,
    percentile (Array.of_list !lats) 0.99 )

(* ------------------------------------------------------------------ *)
(* Mixed read/update: maintenance vs recompute-on-write                *)
(* ------------------------------------------------------------------ *)

(* The materialized-view serving shape: a forest of short chains (an
   update touches one chain; the closure spans the whole forest) with
   the full path/2 view as the read.  Each client loops
   retract-read-insert-read cycles against its own chains, so an
   update only counts once the derived state is served fresh again —
   with maintenance on, the update propagates a bounded delta through
   the maintained extent and the read scans it; off (the seed's
   recompute-on-write behavior) every update invalidates the closure
   and the read that follows pays a full fixpoint.
   Returns (update_rps, read_rps, read_p99_s). *)
let mixed_chains = 48

let mixed_len = 8 (* nodes per chain *)

let run_mixed ~maintain ~clients ~seconds =
  let db = Coral.create () in
  for c = 0 to mixed_chains - 1 do
    for p = 0 to mixed_len - 2 do
      let base = c * mixed_len in
      Coral.fact db "edge" [ Coral.int (base + p); Coral.int (base + p + 1) ]
    done
  done;
  Coral.consult_text db program;
  if maintain then Coral.Engine.set_maintenance (Coral.engine db) true;
  let srv = Coral_server.Server.start ~listen:(`Tcp ("127.0.0.1", 0)) db in
  let port = Coral_server.Server.port srv in
  let warm = connect port in
  ignore (request warm "query path(X, Y)");
  ignore (request warm "quit");
  close_conn warm;
  let stop = Atomic.make false in
  let updates = Atomic.make 0 and reads = Atomic.make 0 in
  let lats_lock = Mutex.create () in
  let lats = ref [] in
  let threads =
    List.init clients (fun id ->
        Thread.create
          (fun () ->
            let c = connect port in
            let read () =
              let q0 = Unix.gettimeofday () in
              ignore (request c "query path(X, Y)");
              let dt = Unix.gettimeofday () -. q0 in
              Atomic.incr reads;
              Mutex.lock lats_lock;
              lats := dt :: !lats;
              Mutex.unlock lats_lock
            in
            let i = ref 0 in
            while not (Atomic.get stop) do
              (* each client owns an interleaved slice of the chains *)
              let chain = (id + (!i * clients)) mod mixed_chains in
              let p = !i mod (mixed_len - 1) in
              incr i;
              let a = (chain * mixed_len) + p in
              ignore (request c (Printf.sprintf "retract edge(%d, %d)." a (a + 1)));
              Atomic.incr updates;
              read ();
              ignore (request c (Printf.sprintf "insert edge(%d, %d)." a (a + 1)));
              Atomic.incr updates;
              read ()
            done;
            ignore (request c "quit");
            close_conn c)
          ())
  in
  Thread.delay seconds;
  Atomic.set stop true;
  List.iter Thread.join threads;
  Coral_server.Server.shutdown srv;
  ( float_of_int (Atomic.get updates) /. seconds,
    float_of_int (Atomic.get reads) /. seconds,
    percentile (Array.of_list !lats) 0.99 )

(* BENCH_server.json: throughput plus the Obs histograms the run filled
   in — request/query latency and per-phase engine time (the emit phase
   only exists on the server path, so it shows up here and not in
   BENCH_core.json). *)
let write_json path ~clients ~requests ~elapsed_s ~event_log:(off_s, on_s, noise_s) ~scaling
    ~maintenance_off:(off_rps, off_p50, off_p99) ~isolation:(base_p99, cont_p99, max_inflight)
    ~overload:(cap, drivers, (c_rps, c_busy, c_p99), (u_rps, u_busy, u_p99))
    ~maintenance:
      (m_readers, (m_upd, m_read, m_p99), (r_upd, r_read, r_p99)) =
  let module Obs = Coral_obs.Obs in
  let oc = open_out path in
  let total = clients * requests in
  Printf.fprintf oc
    "{\n  \"clients\": %d,\n  \"requests\": %d,\n  \"elapsed_s\": %.6e,\n  \
     \"requests_per_second\": %.1f,\n"
    clients total elapsed_s
    (float_of_int total /. elapsed_s);
  Printf.fprintf oc "  \"cores\": %d,\n  \"read_domains\": %d,\n"
    (Domain.recommended_domain_count ())
    (Coral_server.Exec_pool.width ());
  (* snapshot-read scaling: same per-connection workload at rising
     connection counts (true parallel speedup needs cores; on one core
     the gain is pipeline overlap only) *)
  output_string oc "  \"read_scaling\": [\n";
  List.iteri
    (fun i (conns, rps, p50, p99) ->
      Printf.fprintf oc
        "    {\"connections\": %d, \"rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}%s\n"
        conns rps (p50 *. 1000.0) (p99 *. 1000.0)
        (if i = List.length scaling - 1 then "" else ","))
    scaling;
  output_string oc "  ],\n";
  (* the headline and read_scaling serve with maintenance on (the
     shipped default); this arm is the same workload with it off *)
  Printf.fprintf oc
    "  \"maintenance_off\": {\"requests_per_second\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
    off_rps (off_p50 *. 1000.0) (off_p99 *. 1000.0);
  Printf.fprintf oc
    "  \"isolation\": {\"reader_p99_ms\": %.3f, \"reader_p99_under_long_fixpoint_ms\": %.3f, \
     \"p99_ratio\": %.2f, \"max_inflight\": %d},\n"
    (base_p99 *. 1000.0) (cont_p99 *. 1000.0)
    (if base_p99 > 0.0 then cont_p99 /. base_p99 else 0.0)
    max_inflight;
  (* overload at 2x the in-flight cap: goodput and served-request tail
     with admission control on versus the unbounded seed behavior *)
  Printf.fprintf oc
    "  \"overload\": {\"inflight_cap\": %d, \"drivers\": %d,\n\
    \    \"capped\": {\"goodput_rps\": %.1f, \"busy_replies\": %d, \"p99_ms\": %.3f},\n\
    \    \"unbounded\": {\"goodput_rps\": %.1f, \"busy_replies\": %d, \"p99_ms\": %.3f}},\n"
    cap drivers c_rps c_busy (c_p99 *. 1000.0) u_rps u_busy (u_p99 *. 1000.0);
  (* sustained mixed read/update: incremental maintenance versus the
     recompute-on-write seed behavior (--no-maintain) *)
  Printf.fprintf oc
    "  \"maintenance_mixed\": {\"clients\": %d,\n\
    \    \"maintained\": {\"update_rps\": %.1f, \"read_rps\": %.1f, \"read_p99_ms\": %.3f},\n\
    \    \"recompute\": {\"update_rps\": %.1f, \"read_rps\": %.1f, \"read_p99_ms\": %.3f},\n\
    \    \"update_speedup\": %.2f, \"read_p99_ratio\": %.2f},\n"
    m_readers m_upd m_read (m_p99 *. 1000.0) r_upd r_read (r_p99 *. 1000.0)
    (if r_upd > 0.0 then m_upd /. r_upd else 0.0)
    (if r_p99 > 0.0 then m_p99 /. r_p99 else 0.0);
  (* the event log's cost per request: the same workload with event
     recording off versus on (file sink attached).  Both arms are
     warmed and double-run (best-of-two); the delta is clamped at zero
     — a negative measurement only ever means run-to-run noise, whose
     observed magnitude is reported alongside as the honest bound. *)
  Printf.fprintf oc
    "  \"event_log\": {\"baseline_rps\": %.1f, \"enabled_rps\": %.1f, \
     \"overhead_ns_per_request\": %.0f, \"noise_ns_per_request\": %.0f},\n"
    (float_of_int total /. off_s)
    (float_of_int total /. on_s)
    (Float.max 0.0 ((on_s -. off_s) /. float_of_int total *. 1e9))
    (noise_s /. float_of_int total *. 1e9);
  output_string oc "  \"histograms\": [\n";
  let hists =
    [ "server.request_seconds"; "server.query_seconds"; "phase.rewrite"; "phase.eval";
      "phase.emit"
    ]
  in
  List.iteri
    (fun i name ->
      let count, sum_s =
        match Obs.find name with
        | Some (Obs.M_histogram h) ->
          Obs.Histogram.count h, float_of_int (Obs.Histogram.sum_ns h) /. 1e9
        | _ -> 0, 0.0
      in
      let mean_s = if count = 0 then 0.0 else sum_s /. float_of_int count in
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"count\": %d, \"sum_s\": %.6e, \"mean_s\": %.6e}%s\n" name
        count sum_s mean_s
        (if i = List.length hists - 1 then "" else ","))
    hists;
  output_string oc "  ]\n}\n";
  close_out oc

let () =
  Coral_obs.Obs.set_enabled true;
  let clients = ref 4 and requests = ref 250 in
  let rec parse_args = function
    | [] -> ()
    | "--clients" :: n :: rest ->
      clients := int_of_string n;
      parse_args rest
    | "--requests" :: n :: rest ->
      requests := int_of_string n;
      parse_args rest
    | arg :: _ ->
      Printf.eprintf "usage: server_bench [--clients N] [--requests N] (got %s)\n" arg;
      exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let db = build_db () in
  (* nat/1 powers the long-fixpoint probe in the isolation scenario *)
  Coral.consult_text db
    "module nats.\nexport nat(f).\nnat(0).\nnat(Y) :- nat(X), Y = X + 1.\nend_module.\n";
  let srv = Coral_server.Server.start ~listen:(`Tcp ("127.0.0.1", 0)) db in
  let port = Coral_server.Server.port srv in
  Printf.printf "server_bench: %d clients x %d requests against path/2 over %d nodes\n%!"
    !clients !requests nodes;
  (* warm the prepared-plan cache so the steady state is measured *)
  let warm = connect port in
  ignore (request warm "query path(0, Y)");
  ignore (request warm "quit");
  let run_workload () =
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init !clients (fun id -> Thread.create (fun () -> client port !requests id) ())
    in
    List.iter Thread.join threads;
    Unix.gettimeofday () -. t0
  in
  let module Events = Coral_obs.Query_log.Events in
  (* event-log overhead: the identical workload with event recording
     off, then on with a file sink attached (the server's production
     configuration) — the second run is also the reported headline.
     Each arm gets one discarded warm-up pass (thread stacks, page
     cache, allocator arenas) and reports its best of two timed runs;
     a raw single-pass comparison put the unwarmed baseline first and
     measured a NEGATIVE overhead.  The spread between the two timed
     runs is kept as the noise bound for the report. *)
  let measure_arm () =
    ignore (run_workload ());
    let a = run_workload () in
    let b = run_workload () in
    Float.min a b, Float.abs (a -. b)
  in
  Events.configure ~enabled:false ();
  let dt_off, noise_off = measure_arm () in
  let event_file = Filename.temp_file "server_bench_events" ".jsonl" in
  Events.reset ();
  Events.configure ~path:event_file ();
  let dt, noise_on = measure_arm () in
  Events.configure ~path:"" ();
  (try Sys.remove event_file with Sys_error _ -> ());
  (try Sys.remove (event_file ^ ".1") with Sys_error _ -> ());
  let total = !clients * !requests in
  let noise_s = Float.max noise_off noise_on in
  Printf.printf "total: %d requests in %.3fs -> %.0f requests/second\n" total dt
    (float_of_int total /. dt);
  Printf.printf
    "event log: off %.0f rps, on %.0f rps (overhead %.0fns +/- %.0fns per request, %d events)\n"
    (float_of_int total /. dt_off)
    (float_of_int total /. dt)
    (Float.max 0.0 ((dt -. dt_off) /. float_of_int total *. 1e9))
    (noise_s /. float_of_int total *. 1e9)
    (Events.total ());
  (* the stats request shows where the time went *)
  let conn = connect port in
  let ic, oc, fd = conn in
  output_string oc "stats\n";
  flush oc;
  let rec dump () =
    match In_channel.input_line ic with
    | None -> ()
    | Some line when Coral_server.Protocol.is_status line -> ()
    | Some line ->
      let line =
        if String.starts_with ~prefix:"txt " line then String.sub line 4 (String.length line - 4)
        else line
      in
      print_endline ("  " ^ line);
      dump ()
  in
  dump ();
  ignore oc;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* read scaling: snapshot reads at 1, 2 and 4 connections *)
  let per_conn = max 50 (!requests / 2) in
  let scaling =
    List.map
      (fun conns ->
        let rps, p50, p99 = run_scaling port ~conns ~per_conn in
        Printf.printf
          "read scaling: %d connection%s -> %.0f rps (p50 %.2fms, p99 %.2fms)\n%!" conns
          (if conns = 1 then " " else "s")
          rps (p50 *. 1000.0) (p99 *. 1000.0);
        conns, rps, p50, p99)
      [ 1; 2; 4 ]
  in
  let maintenance_off = run_maintenance_off ~clients:!clients ~requests:!requests in
  let off_rps, off_p50, off_p99 = maintenance_off in
  Printf.printf "maintenance off: %.0f requests/second (1 connection: p50 %.2fms, p99 %.2fms)\n%!"
    off_rps (off_p50 *. 1000.0) (off_p99 *. 1000.0);
  (* reader tail latency with and without a long fixpoint in flight *)
  let base_p99, _ = run_isolation port ~seconds:1.5 ~long:false in
  let cont_p99, max_inflight = run_isolation port ~seconds:1.5 ~long:true in
  Printf.printf
    "isolation: reader p99 %.2fms alone, %.2fms under a long fixpoint (ratio %.2f, max %d in flight)\n%!"
    (base_p99 *. 1000.0) (cont_p99 *. 1000.0)
    (if base_p99 > 0.0 then cont_p99 /. base_p99 else 0.0)
    max_inflight;
  Coral_server.Server.shutdown srv;
  (* overload: 2x the in-flight cap, with and without the cap *)
  let cap = 4 in
  let drivers = 2 * cap in
  let capped = run_overload ~cap ~drivers ~seconds:1.5 in
  let c_rps, c_busy, c_p99 = capped in
  Printf.printf
    "overload (cap %d, %d drivers): %.0f rps goodput, %d BUSY, served p99 %.2fms\n%!" cap
    drivers c_rps c_busy (c_p99 *. 1000.0);
  let unbounded = run_overload ~cap:0 ~drivers ~seconds:1.5 in
  let u_rps, u_busy, u_p99 = unbounded in
  Printf.printf
    "overload (unbounded, %d drivers): %.0f rps goodput, %d BUSY, served p99 %.2fms\n%!"
    drivers u_rps u_busy (u_p99 *. 1000.0);
  (* sustained mixed read/update: maintenance vs recompute-on-write *)
  let m_readers = 2 in
  let maintained = run_mixed ~maintain:true ~clients:m_readers ~seconds:1.5 in
  let m_upd, m_read, m_p99 = maintained in
  Printf.printf
    "mixed (maintenance): %.0f updates/s, %.0f reads/s, read p99 %.2fms\n%!" m_upd m_read
    (m_p99 *. 1000.0);
  let recompute = run_mixed ~maintain:false ~clients:m_readers ~seconds:1.5 in
  let r_upd, r_read, r_p99 = recompute in
  Printf.printf
    "mixed (recompute-on-write): %.0f updates/s, %.0f reads/s, read p99 %.2fms\n%!" r_upd
    r_read (r_p99 *. 1000.0);
  write_json "BENCH_server.json" ~clients:!clients ~requests:!requests ~elapsed_s:dt
    ~event_log:(dt_off, dt, noise_s) ~scaling ~maintenance_off
    ~isolation:(base_p99, cont_p99, max_inflight)
    ~overload:(cap, drivers, capped, unbounded)
    ~maintenance:(m_readers, maintained, recompute);
  Printf.printf "wrote BENCH_server.json\n"
