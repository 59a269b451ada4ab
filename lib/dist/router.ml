(* The fan-out router: the cluster's front door.

   To a client the router IS a coral_server — same protocol, same
   commands, same error codes; the REPL's [--connect], [ps]/[kill],
   [stats]/[metrics] all work unchanged.  It holds a full single-node
   replica of the consulted program (so any request it cannot
   distribute is answered locally, with ordinary single-node
   semantics) and, when the program falls in the distributable class,
   materializes the derived relations across its workers and fans
   queries out to them.

   Cluster lifecycle is a two-state machine guarded by one mutex:

     Dirty  the workers' materialized state does not reflect the
            router's database (fresh start, a consult/insert landed, a
            query mutated the replica through assert/retract, a worker
            went unreachable).  The first distributed query
            reprovisions from scratch — configure, dreset, re-ship the
            EDB, ship the program, seed the partitioned predicates'
            consulted facts to their owner shards, run the fixpoint to
            quiescence — and moves to Clean.  Reprovisioning wholesale
            instead of incrementally keeps exactly one code path whose
            postcondition is "worker state equals router state".
     Clean  distributed queries fan out and merge.

   Fan-out merge needs no deduplication: the one distributed literal
   in a fanned-out query is instantiated by each answer row, the
   instantiated tuple has exactly one owner shard, so two shards can
   never produce the same row.

   Every query — local or distributed — registers in the process-wide
   Query_log, so [ps] sees it and [kill] aborts it; a killed or
   timed-out fan-out abandons its worker threads (each closes its own
   connection when it notices). *)

open Coral_server
module Obs = Coral_obs.Obs

(* A fan-out's wake channel: a socket pair whose read end has a receive
   timeout of one kill/deadline tick.  Each shard thread writes a byte
   when it has filled its slot, so the waiter returns as soon as the
   last shard answers instead of on the next tick.  The waiter and every
   shard thread hold a reference — an abandoned thread can finish long
   after its waiter gave up — and whoever lets go last closes both
   descriptors, exactly once. *)
type wake = {
  w_read : Unix.file_descr;
  w_write : Unix.file_descr;
  w_refs : int Atomic.t;
}

type fanout = {
  slots : (Protocol.response, Protocol.error_code * string) result option array;
  threads : Thread.t list;
  wake : wake;
}

type t = {
  fd : Unix.file_descr;
  bound_port : int;
  sock_path : string option;
  sstore : Session.store;
  coord : Coordinator.t;
  cl_lock : Mutex.t;  (* guards dirty / verdict / last_run / last_tid *)
  mutable dirty : bool;
  mutable verdict : Plan.verdict;
  mutable last_run : Coordinator.run_stats option;
  mutable last_tid : string option;  (* trace id of the newest distributed query *)
  mutable closed : bool;
  mutable accept_thread : Thread.t option;
  (* registry-backed, created at start (no module-level state) *)
  c_dist : Coral_obs.Obs.Counter.t;
  c_local : Coral_obs.Obs.Counter.t;
  c_fixpoints : Coral_obs.Obs.Counter.t;
  c_resyncs : Coral_obs.Obs.Counter.t;
}

let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  with Invalid_argument _ | Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Cluster provisioning                                                *)
(* ------------------------------------------------------------------ *)

(* Iterate the router's base relations, skipping reserved @ names. *)
let iter_base_relations eng f =
  List.iter
    (fun (key, _card) ->
      match String.rindex_opt key '/' with
      | None -> ()
      | Some i -> (
        let name = String.sub key 0 i in
        match int_of_string_opt (String.sub key (i + 1) (String.length key - i - 1)) with
        | None -> ()
        | Some arity ->
          if not (String.contains name '@') then begin
            match Coral.Engine.relation_of eng (Coral.Symbol.intern name) arity with
            | None -> ()
            | Some rel -> f name arity rel
          end))
    (Coral.Engine.list_relations eng)

(* Dump the router's base relations (the replicated EDB) as fact
   lines.  Derived predicates and the @delta siblings are excluded —
   the workers rebuild those themselves. *)
let edb_text t (a : Plan.analysis) =
  let eng = Coral.engine (Session.db t.sstore) in
  let buf = Buffer.create 4096 in
  Session.locked t.sstore (fun () ->
      iter_base_relations eng (fun name arity rel ->
          if not (List.mem (name, arity) a.Plan.idb) then
            Seq.iter
              (fun tuple ->
                Buffer.add_string buf (Delta_codec.fact_line name tuple);
                Buffer.add_char buf '\n')
              (Coral.Relation.scan rel ())))
  ;
  Buffer.contents buf

(* A predicate defined by rules can ALSO be seeded with consulted
   facts (path(a, b). plus recursive path rules).  Those facts live in
   the router's base relations but are excluded from the replicated
   EDB — each belongs to exactly one owner shard.  Ship them as
   per-owner delta batches: they sit in the owner's exchange buffer,
   are absorbed into full + @delta at the first promote, and from
   round 2 on the linear rules derive from them like any other delta.
   Returns the per-shard batches plus the total seeded count. *)
let seed_batches t (a : Plan.analysis) =
  let eng = Coral.engine (Session.db t.sstore) in
  let part = Coordinator.partition t.coord in
  let batches = Array.init (Coordinator.shards t.coord) (fun _ -> Buffer.create 256) in
  let count = ref 0 in
  Session.locked t.sstore (fun () ->
      iter_base_relations eng (fun name arity rel ->
          if List.mem (name, arity) a.Plan.idb then
            Seq.iter
              (fun tuple ->
                let buf = batches.(Partition.owner part tuple) in
                Buffer.add_string buf (Delta_codec.fact_line name tuple);
                Buffer.add_char buf '\n';
                incr count)
              (Coral.Relation.scan rel ())));
  batches, !count

(* Reprovision the cluster from the router's database.  Caller holds
   [cl_lock]. *)
let resync t (a : Plan.analysis) =
  Coral_obs.Obs.Counter.incr t.c_resyncs;
  (* Reprovisioning must talk to whatever listens at each address NOW,
     not to a control connection established before the cluster went
     dirty: a worker restarted on the same address would otherwise get
     the deltas (its peers reconnect) but never the shard/dprog
     configuration (still riding the stale control session). *)
  Coordinator.disconnect t.coord;
  let ( >>= ) r f = Result.bind r f in
  match
    Coordinator.configure t.coord
    >>= fun () ->
    Coordinator.reset t.coord
    >>= fun () ->
    Coordinator.send_edb t.coord (edb_text t a)
    >>= fun () ->
    Coordinator.send_program t.coord a.Plan.text
    >>= fun () ->
    let batches, seeded = seed_batches t a in
    let rec ship shard =
      if shard >= Array.length batches then Ok ()
      else if Buffer.length batches.(shard) = 0 then ship (shard + 1)
      else
        Coordinator.send_delta t.coord ~shard (Buffer.contents batches.(shard))
        >>= fun () -> ship (shard + 1)
    in
    ship 0
    >>= fun () ->
    Coordinator.run_fixpoint ~seeded t.coord
    >>= fun stats -> Ok (stats, seeded)
  with
  | exception Delta_codec.Unencodable m ->
    (* a value the codec cannot round-trip must not reach a worker:
       fail the sync; the caller's query surfaces the error and the
       cluster stays dirty *)
    Error (Protocol.Cluster, m)
  | Error e -> Error e
  | Ok (stats, seeded) ->
    Coral_obs.Obs.Counter.incr t.c_fixpoints;
    Coral_obs.Query_log.Events.log ~kind:"dist_fixpoint"
      [ "shards", Coral_obs.Json.Int (Coordinator.shards t.coord);
        "rounds", Coral_obs.Json.Int stats.Coordinator.rounds;
        "seeded_tuples", Coral_obs.Json.Int seeded;
        "new_tuples", Coral_obs.Json.Int stats.Coordinator.new_tuples;
        "shipped_tuples", Coral_obs.Json.Int stats.Coordinator.shipped_tuples;
        "shipped_bytes", Coral_obs.Json.Int stats.Coordinator.shipped_bytes;
        "wall_ms", Coral_obs.Json.Int (int_of_float (stats.Coordinator.wall_s *. 1000.));
        "skew", Coral_obs.Json.Float stats.Coordinator.skew_max;
        "straggler_rounds", Coral_obs.Json.Int stats.Coordinator.stragglers
      ];
    t.last_run <- Some stats;
    t.dirty <- false;
    Ok ()

(* Re-read the verdict under [cl_lock] and, if the cluster is dirty,
   reprovision with the analysis read THERE — not one a caller read
   before taking the lock.  A concurrent consult can flip the verdict
   between a caller's unlocked routing check and this point; returning
   the locked-in analysis (or [`Local]) makes that race harmless
   instead of an [assert false]. *)
let ensure_synced t =
  Mutex.lock t.cl_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.cl_lock)
    (fun () ->
      match t.verdict with
      | Plan.Local _ -> `Local
      | Plan.Distributable a -> (
        if not t.dirty then `Synced a
        else
          match resync t a with
          | Ok () -> `Synced a
          | Error e -> `Error e))

let mark_dirty t =
  Mutex.lock t.cl_lock;
  t.dirty <- true;
  t.verdict <- Plan.analyse_engine (Coral.engine (Session.db t.sstore));
  Mutex.unlock t.cl_lock

(* ------------------------------------------------------------------ *)
(* Query routing                                                       *)
(* ------------------------------------------------------------------ *)

(* A query is fanned out when the cluster holds its derived data and
   the merge is provably disjoint: exactly one positive literal over a
   partitioned predicate (its instantiation in any answer row has a
   unique owner shard), none negated, and no update builtin anywhere
   in the query — a fanned-out assert/retract would mutate the
   workers' replicas instead of the router's database.  Everything
   else — pure-EDB queries, multi-IDB joins, negation over IDB,
   mutating queries — evaluates on the router's own replica. *)
let distributable_query (a : Plan.analysis) text =
  match Coral.Parser.query text with
  | Error _ -> None  (* let the local session produce the parse error *)
  | Ok lits ->
    let is_idb (atom : Coral.Ast.atom) =
      List.mem (Coral.Symbol.name atom.Coral.Ast.pred, Array.length atom.Coral.Ast.args) a.Plan.idb
    in
    let mutates (atom : Coral.Ast.atom) =
      let n = Coral.Symbol.name atom.Coral.Ast.pred in
      (n = "assert" || n = "retract") && Array.length atom.Coral.Ast.args = 1
    in
    let pos_idb =
      List.filter (function Coral.Ast.Pos at -> is_idb at | _ -> false) lits
    in
    let neg_idb =
      List.exists (function Coral.Ast.Neg at -> is_idb at | _ -> false) lits
    in
    let mutating =
      List.exists (function Coral.Ast.Pos at -> mutates at | _ -> false) lits
    in
    (match pos_idb, neg_idb, mutating with
    | [ _ ], false, false -> Some ()
    | _ -> None)

(* Strip a worker reply line back into payload form. *)
let payload_of_line line =
  if String.starts_with ~prefix:"ans " line then
    Some (Protocol.Ans (String.sub line 4 (String.length line - 4)))
  else if String.starts_with ~prefix:"txt " line then
    Some (Protocol.Txt (String.sub line 4 (String.length line - 4)))
  else None

(* One worker's share of a fanned-out query, on its own connection
   (the coordinator's control connections stay untouched, so an
   abandoned query thread can never poison a barrier). *)
let shard_query addr ~timeout_ms text =
  let client = Shard_client.create ~attempts:2 ~backoff_ms:20 addr in
  Fun.protect
    ~finally:(fun () -> Shard_client.disconnect client)
    (fun () ->
      if timeout_ms > 0 then
        ignore (Shard_client.request client (Printf.sprintf "timeout %d" timeout_ms));
      let lines, status = Shard_client.request client ("query " ^ text) in
      match Shard_client.status_ok status with
      | Some detail ->
        Ok (Protocol.ok ~detail (List.filter_map payload_of_line lines))
      | None -> (
        match Shard_client.status_err status with
        | Some (code, msg) ->
          let code = Option.value (Protocol.code_of_string code) ~default:Protocol.Cluster in
          Error (code, Printf.sprintf "%s: %s" addr msg)
        | None -> Error (Protocol.Proto, "unparseable reply from " ^ addr)))

(* How long the waiter sleeps between kill and deadline checks when no
   shard has answered. *)
let wake_tick_s = 0.02

let wake_create () =
  let w_read, w_write = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float w_read Unix.SO_RCVTIMEO wake_tick_s;
  { w_read; w_write; w_refs = Atomic.make 1 }

let wake_release w =
  if Atomic.fetch_and_add w.w_refs (-1) = 1 then begin
    (try Unix.close w.w_read with Unix.Unix_error _ -> ());
    try Unix.close w.w_write with Unix.Unix_error _ -> ()
  end

let wake_signal w = try ignore (Unix.write_substring w.w_write "!" 0 1) with Unix.Unix_error _ -> ()

(* Block until some shard signals or a tick passes; either way the
   caller re-checks.  Signals are bytes, so one sent before this call
   is not lost. *)
let wake_wait w =
  let buf = Bytes.create 16 in
  try ignore (Unix.read w.w_read buf 0 (Bytes.length buf))
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let launch_fanout ~timeout_ms addrs text =
  let slots = Array.make (List.length addrs) None in
  let wake = wake_create () in
  (* a thread that never started never releases: do it for it *)
  let start i addr =
    Atomic.incr wake.w_refs;
    try
      Thread.create
        (fun () ->
          Fun.protect ~finally:(fun () -> wake_release wake) @@ fun () ->
          let r =
            try shard_query addr ~timeout_ms text
            with Shard_client.Down m -> Error (Protocol.Unavail, m)
          in
          slots.(i) <- Some r;
          wake_signal wake)
        ()
    with e ->
      wake_release wake;
      raise e
  in
  try { slots; threads = List.mapi start addrs; wake }
  with e ->
    wake_release wake;
    raise e

(* Evaluate on the router's own replica — and notice when the query
   mutated it.  The assert/retract builtins ride ordinary queries (the
   session routes them to the write lane), and any committed mutation
   publishes a new snapshot epoch; an epoch bump across the call means
   the workers' materialized state no longer reflects the database, so
   the cluster goes dirty exactly like after a consult.  A concurrent
   session's mutation can bump the epoch in the same window and cause
   a spurious re-dirty — harmless; that mutation dirties the cluster
   itself anyway. *)
let local_query t session text =
  Coral_obs.Obs.Counter.incr t.c_local;
  let before = Session.snapshot_epoch t.sstore in
  let r = Session.handle session (Protocol.Query text) in
  if Session.snapshot_epoch t.sstore <> before then mark_dirty t;
  r

let fan_out t session text =
      Coral_obs.Obs.Counter.incr t.c_dist;
      (* The connection thread's trace context, captured HERE: the
         fan-out threads below have none, so the id travels to each
         worker inside the command line instead (a trailing [tid=]
         token the worker's serving layer re-installs). *)
      let tid = Obs.Trace.current () in
      (match tid with
      | Some id ->
        Mutex.lock t.cl_lock;
        t.last_tid <- Some id;
        Mutex.unlock t.cl_lock
      | None -> ());
      let wire_text = match tid with Some id -> text ^ " tid=" ^ id | None -> text in
      let timeout_ms = Session.deadline_ms session in
      let entry =
        Coral_obs.Query_log.register ~session:(Session.sid session)
          ~deadline_ms:timeout_ms ~kind:"dist" text
      in
      Fun.protect ~finally:(fun () -> Coral_obs.Query_log.unregister entry)
      @@ fun () ->
      let t0 = Unix.gettimeofday () in
      let t0_ns = Obs.now_ns () in
      let fo = launch_fanout ~timeout_ms (Coordinator.addrs t.coord) wire_text in
      (* Wait on the wake channel rather than join: kill (and the local
         deadline) must be able to abandon threads stuck on a wedged
         worker, so both are re-checked on every tick.  Abandoned
         threads own their connections and close them on exit. *)
      let rec wait () =
        if Array.for_all Option.is_some fo.slots then `Done
        else if Coral_obs.Query_log.killed entry then `Killed
        else if
          timeout_ms > 0 && (Unix.gettimeofday () -. t0) *. 1000. > float_of_int (timeout_ms + 200)
        then `Timeout
        else begin
          wake_wait fo.wake;
          wait ()
        end
      in
      let outcome = Fun.protect ~finally:(fun () -> wake_release fo.wake) wait in
      (match outcome with
      | `Killed -> Protocol.err Protocol.Killed "query killed by operator request"
      | `Timeout ->
        Protocol.err Protocol.Timeout
          (Printf.sprintf "deadline of %dms exceeded; fan-out abandoned" timeout_ms)
      | `Done ->
        List.iter Thread.join fo.threads;
        let results = Array.map Option.get fo.slots in
        (match
           Array.fold_left
             (fun acc r -> match acc, r with None, Error e -> Some e | _ -> acc)
             None results
         with
        | Some (code, msg) ->
          (* a vanished worker leaves the cluster suspect: resync
             before the next distributed query *)
          if code = Protocol.Unavail then mark_dirty t;
          Protocol.err code msg
        | None ->
          let payload =
            Array.to_list results
            |> List.concat_map (function
                 | Ok (r : Protocol.response) -> r.Protocol.payload
                 | Error _ -> [])
          in
          let rows =
            List.length (List.filter (function Protocol.Ans _ -> true | _ -> false) payload)
          in
          if Obs.enabled () then
            Obs.Span.record "router.fanout" t0_ns
              (Obs.now_ns () - t0_ns)
              [ "shards", string_of_int (Coordinator.shards t.coord);
                "rows", string_of_int rows ];
          Protocol.ok
            ~detail:
              (Printf.sprintf "%d answer%s shards=%d%s" rows
                 (if rows = 1 then "" else "s")
                 (Coordinator.shards t.coord)
                 (match tid with Some id -> " tid=" ^ id | None -> ""))
            payload))

let do_dist_query t session text =
  match ensure_synced t with
  | `Error (code, msg) -> Protocol.err code ("cluster sync failed: " ^ msg)
  | `Local ->
    (* the verdict flipped under a concurrent consult; the replica is
       the correct target now *)
    local_query t session text
  | `Synced a -> (
    (* re-check the query against the analysis the workers actually
       hold, not the one the unlocked routing peek saw *)
    match distributable_query a text with
    | Some () -> fan_out t session text
    | None -> local_query t session text)

let handle_query t session text =
  (* an unlocked peek, only to route: do_dist_query re-reads the
     verdict under cl_lock before touching the cluster *)
  match t.verdict with
  | Plan.Distributable a when Coordinator.shards t.coord > 0 -> (
    match distributable_query a text with
    | Some () -> do_dist_query t session text
    | None -> local_query t session text)
  | _ -> local_query t session text

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let router_stats t =
  Mutex.lock t.cl_lock;
  let dirty = t.dirty and verdict = t.verdict and last = t.last_run in
  Mutex.unlock t.cl_lock;
  let lines =
    [ Printf.sprintf "router.shards=%d" (Coordinator.shards t.coord);
      Printf.sprintf "router.state=%s" (if dirty then "dirty" else "clean");
      Printf.sprintf "router.distributable=%s"
        (match verdict with
        | Plan.Distributable a -> Printf.sprintf "yes (%d idb)" (List.length a.Plan.idb)
        | Plan.Local reason -> "no: " ^ reason);
      Printf.sprintf "router.queries.dist=%d" (Coral_obs.Obs.Counter.value t.c_dist);
      Printf.sprintf "router.queries.local=%d" (Coral_obs.Obs.Counter.value t.c_local);
      Printf.sprintf "router.fixpoint.runs=%d" (Coral_obs.Obs.Counter.value t.c_fixpoints)
    ]
    @
    match last with
    | None -> []
    | Some s ->
      [ Printf.sprintf "router.fixpoint.rounds=%d" s.Coordinator.rounds;
        Printf.sprintf "router.fixpoint.new_tuples=%d" s.Coordinator.new_tuples;
        Printf.sprintf "router.fixpoint.shipped_tuples=%d" s.Coordinator.shipped_tuples;
        Printf.sprintf "router.fixpoint.shipped_bytes=%d" s.Coordinator.shipped_bytes;
        Printf.sprintf "router.fixpoint.wall_ms=%.1f" (s.Coordinator.wall_s *. 1000.);
        Printf.sprintf "router.fixpoint.skew=%.2f" s.Coordinator.skew_max;
        Printf.sprintf "router.fixpoint.straggler_rounds=%d" s.Coordinator.stragglers
      ]
  in
  List.map (fun l -> Protocol.Txt l) lines

(* ------------------------------------------------------------------ *)
(* Cluster observability: federation, dstat, trace stitching           *)
(* ------------------------------------------------------------------ *)

(* Rewrite one line of a worker's Prometheus exposition into the
   federated namespace: [coral_X ...] becomes
   [coral_shard_X{shard="N",...} ...].  [typed] remembers which
   federated metric names have already emitted a [# TYPE] header —
   the exposition format allows it at most once per name, and every
   shard's scrape carries the same headers. *)
let relabel_metric_line ~typed ~shard line =
  let shard_label = Printf.sprintf "shard=\"%d\"" shard in
  if String.starts_with ~prefix:"# TYPE coral_" line then begin
    let rest = String.sub line 7 (String.length line - 7) in
    match String.index_opt rest ' ' with
    | None -> None
    | Some i ->
      let name = "coral_shard_" ^ String.sub rest 6 (i - 6) in
      let kind = String.sub rest (i + 1) (String.length rest - i - 1) in
      if Hashtbl.mem typed name then None
      else begin
        Hashtbl.replace typed name ();
        Some (Printf.sprintf "# TYPE %s %s" name kind)
      end
  end
  else if String.starts_with ~prefix:"coral_" line then begin
    let n = String.length line in
    let rec name_end i =
      if i >= n then n else match line.[i] with '{' | ' ' -> i | _ -> name_end (i + 1)
    in
    let cut = name_end 0 in
    let name = "coral_shard_" ^ String.sub line 6 (cut - 6) in
    let rest = String.sub line cut (n - cut) in
    if String.length rest > 0 && rest.[0] = '{' then
      Some (name ^ "{" ^ shard_label ^ "," ^ String.sub rest 1 (String.length rest - 1))
    else Some (name ^ "{" ^ shard_label ^ "}" ^ rest)
  end
  else None  (* # HELP, blanks, non-coral series *)

(* The router's federated scrape body: its own replica's metrics, the
   cluster roll-ups, then every worker's metrics relabeled under
   [coral_shard_*{shard="N"}] plus a per-shard [coral_shard_up] gauge.
   Scrapes ride one-shot connections (Shard_client.fetch), never the
   coordinator's pooled control clients. *)
let metrics_text t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Session.metrics_text t.sstore);
  Mutex.lock t.cl_lock;
  let dirty = t.dirty and last = t.last_run in
  Mutex.unlock t.cl_lock;
  Obs.prometheus_sample buf ~kind:"gauge" "router.shards" (Coordinator.shards t.coord);
  Obs.prometheus_sample buf ~kind:"gauge" "router.dirty" (if dirty then 1 else 0);
  (match last with
  | None -> ()
  | Some s ->
    Obs.prometheus_sample buf ~kind:"gauge" "router.fixpoint.rounds" s.Coordinator.rounds;
    Obs.prometheus_sample buf ~kind:"gauge" "router.fixpoint.new_tuples"
      s.Coordinator.new_tuples;
    Obs.prometheus_sample buf ~kind:"gauge" "router.fixpoint.shipped_tuples"
      s.Coordinator.shipped_tuples;
    Obs.prometheus_sample_f buf ~kind:"gauge" "router.fixpoint.wall_seconds"
      s.Coordinator.wall_s;
    Obs.prometheus_sample_f buf ~kind:"gauge" "dist.skew_ratio" s.Coordinator.skew_max;
    Obs.prometheus_sample buf ~kind:"gauge" "dist.straggler_rounds"
      s.Coordinator.stragglers);
  let typed = Hashtbl.create 64 in
  List.iteri
    (fun i addr ->
      let scraped =
        match Shard_client.fetch addr "metrics" with
        | Error _ -> None
        | Ok (lines, status) ->
          if Shard_client.status_ok status = None then None else Some lines
      in
      Obs.prometheus_sample_labeled buf
        ~typ:(not (Hashtbl.mem typed "coral_shard_up"))
        ~kind:"gauge"
        ~labels:[ "shard", string_of_int i; "addr", addr ]
        "shard.up"
        (if scraped = None then 0. else 1.);
      Hashtbl.replace typed "coral_shard_up" ();
      match scraped with
      | None -> ()
      | Some lines ->
        List.iter
          (fun line ->
            if String.starts_with ~prefix:"txt " line then
              let raw = String.sub line 4 (String.length line - 4) in
              match relabel_metric_line ~typed ~shard:i raw with
              | Some l ->
                Buffer.add_string buf l;
                Buffer.add_char buf '\n'
              | None -> ())
          lines)
    (Coordinator.addrs t.coord);
  Buffer.contents buf

let do_metrics t =
  let lines =
    metrics_text t |> String.split_on_char '\n' |> List.filter (fun l -> l <> "")
  in
  Protocol.ok (List.map (fun l -> Protocol.Txt l) lines)

(* Per-round fixpoint instrumentation, as an operator table. *)
let do_dstat t =
  Mutex.lock t.cl_lock;
  let last = t.last_run in
  Mutex.unlock t.cl_lock;
  match last with
  | None ->
    Protocol.err Protocol.Cluster
      "dstat: no distributed fixpoint has run yet (consult a distributable program and query it)"
  | Some s ->
    let lines =
      List.concat_map
        (fun (r : Coordinator.round_stat) ->
          Printf.sprintf "round=%d wall_ms=%.2f step_max_ms=%.2f skew=%.2f straggler=%s"
            r.Coordinator.r_round
            (r.Coordinator.r_wall_s *. 1000.)
            (r.Coordinator.r_step_max_s *. 1000.)
            r.Coordinator.r_skew
            (match r.Coordinator.r_straggler with
            | None -> "-"
            | Some sh -> string_of_int sh)
          :: List.map
               (fun (sr : Coordinator.shard_round) ->
                 Printf.sprintf
                   "  shard=%d step_ms=%.2f derived=%d shipped=%d received=%d new=%d"
                   sr.Coordinator.sr_shard
                   (sr.Coordinator.sr_step_s *. 1000.)
                   sr.Coordinator.sr_derived sr.Coordinator.sr_shipped
                   sr.Coordinator.sr_received sr.Coordinator.sr_new)
               r.Coordinator.r_shards)
        s.Coordinator.round_stats
    in
    Protocol.ok
      ~detail:
        (Printf.sprintf "rounds=%d skew_max=%.2f straggler_rounds=%d wall_ms=%.1f"
           s.Coordinator.rounds s.Coordinator.skew_max s.Coordinator.stragglers
           (s.Coordinator.wall_s *. 1000.))
      (List.map (fun l -> Protocol.Txt l) lines)

(* Stitch one trace: the router's own spans plus a [spans <tid>] pull
   from every worker, each as its own pid lane of one Chrome
   trace_event JSON.  A worker that cannot be reached simply
   contributes an empty lane — a partial trace beats none. *)
let do_trace t tid_arg =
  let tid =
    if tid_arg <> "last" then Some tid_arg
    else begin
      Mutex.lock t.cl_lock;
      let v = t.last_tid in
      Mutex.unlock t.cl_lock;
      v
    end
  in
  match tid with
  | None ->
    Protocol.err Protocol.Cluster
      "trace last: no distributed query has been traced yet (is observability on? try 'obs on')"
  | Some tid ->
    let shard_lanes =
      List.mapi
        (fun i addr ->
          let spans =
            match Shard_client.fetch addr ("spans " ^ tid) with
            | Error _ -> []
            | Ok (lines, status) ->
              if Shard_client.status_ok status = None then []
              else
                List.filter_map
                  (fun line ->
                    if String.starts_with ~prefix:"txt " line then
                      match
                        Obs.Span.of_json (String.sub line 4 (String.length line - 4))
                      with
                      | Ok s -> Some s
                      | Error _ -> None
                    else None)
                  lines
          in
          Printf.sprintf "shard%d %s" i addr, spans)
        (Coordinator.addrs t.coord)
    in
    let lanes = ("router", Obs.Span.matching tid) :: shard_lanes in
    let total = List.fold_left (fun n (_, spans) -> n + List.length spans) 0 lanes in
    if total = 0 then
      Protocol.err Protocol.Eval
        (Printf.sprintf "trace %s: no spans recorded (is observability on? try 'obs on')"
           tid)
    else
      let payload =
        Obs.Span.to_chrome_json_lanes lanes
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> Protocol.Txt l)
      in
      Protocol.ok
        ~detail:
          (Printf.sprintf "%d span%s tid=%s lanes=%d" total
             (if total = 1 then "" else "s")
             tid (List.length lanes))
        payload

let handle t session (req : Protocol.request) =
  match req with
  | Protocol.Query text -> handle_query t session text
  | Protocol.Consult _ | Protocol.Insert _ | Protocol.Retract _ ->
    let r = Session.handle session req in
    (match r.Protocol.status with Ok _ -> mark_dirty t | Error _ -> ());
    r
  | Protocol.Stats ->
    let r = Session.handle session req in
    (match r.Protocol.status with
    | Ok _ -> { r with Protocol.payload = r.Protocol.payload @ router_stats t }
    | Error _ -> r)
  | Protocol.Metrics -> do_metrics t
  | Protocol.Dstat -> do_dstat t
  | Protocol.Trace tid -> do_trace t tid
  | _ -> Session.handle session req

(* ------------------------------------------------------------------ *)
(* Accept loop (mirrors Server's; same framing, same byte accounting)  *)
(* ------------------------------------------------------------------ *)

let serve_connection ?reserved t client =
  let store = t.sstore in
  let ic = Unix.in_channel_of_descr client in
  let oc = Unix.out_channel_of_descr client in
  let session = Session.create ?reserved store in
  let write r = Session.note_bytes_written store (Protocol.write_response oc r) in
  let rec loop () =
    match Protocol.read_line_capped ic with
    | None -> ()
    | Some line when String.trim line = "" ->
      Session.note_bytes_read store (String.length line + 1);
      loop ()
    | Some line -> begin
      Session.note_bytes_read store (String.length line + 1);
      (* The router is the trace origin: adopt a client-supplied
         [tid=], otherwise mint a fresh id (when tracing is on) so the
         whole fan-out — local spans, worker commands, events — shares
         one trace id. *)
      let tid =
        match snd (Protocol.split_tid line) with
        | Some _ as it -> it
        | None -> if Obs.enabled () then Some (Obs.Trace.fresh ()) else None
      in
      let handle_req req = Obs.Trace.with_id tid (fun () -> handle t session req) in
      let with_payload kind n build =
        if n > Protocol.max_payload_bytes then
          write
            (Protocol.err Protocol.Too_big
               (Printf.sprintf "%s payload of %d bytes exceeds the %d byte limit" kind n
                  Protocol.max_payload_bytes))
        else begin
          match really_input_string ic n with
          | text ->
            Session.note_bytes_read store n;
            write (handle_req (build text));
            loop ()
          | exception End_of_file -> ()
        end
      in
      match Protocol.parse_request line with
      | `Bad msg ->
        write (Protocol.err Protocol.Proto msg);
        loop ()
      | `Consult_payload n -> with_payload "consult#" n (fun txt -> Protocol.Consult txt)
      | `Dprog_payload n -> with_payload "dprog#" n (fun txt -> Protocol.Dprog txt)
      | `Delta_payload n -> with_payload "delta#" n (fun txt -> Protocol.Delta txt)
      | `Req Protocol.Quit -> write (handle_req Protocol.Quit)
      | `Req req ->
        write (handle_req req);
        loop ()
    end
  in
  (try loop () with
  | Protocol.Line_too_long ->
    (try
       write
         (Protocol.err Protocol.Too_big
            (Printf.sprintf "request line exceeds %d bytes" Protocol.max_line_bytes))
     with Sys_error _ | Unix.Unix_error _ -> ())
  | Sys_error _ | End_of_file -> ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  | Unix.Unix_error _ -> ());
  Session.close session;
  try Unix.close client with Unix.Unix_error _ -> ()

let accept_loop t =
  while not t.closed do
    match Unix.accept t.fd with
    | client, _addr -> begin
      let adm = Session.admission t.sstore in
      let cap = (Admission.config adm).Admission.max_sessions in
      if not (Session.try_reserve t.sstore ~cap) then begin
        Admission.note_shed adm;
        let retry = (Admission.config adm).Admission.retry_after_ms in
        (try
           let oc = Unix.out_channel_of_descr client in
           ignore
             (Protocol.write_response oc
                (Protocol.busy ~retry_after_ms:retry
                   (Printf.sprintf "router at capacity (%d connections)" cap)))
         with Sys_error _ | Unix.Unix_error _ | Out_of_memory -> ());
        try Unix.close client with Unix.Unix_error _ -> ()
      end
      else begin
        match
          Thread.create
            (fun () ->
              try serve_connection ~reserved:true t client
              with _ -> ( try Unix.close client with Unix.Unix_error _ -> ()))
            ()
        with
        | (_ : Thread.t) -> ()
        | exception _ ->
          Session.unreserve t.sstore;
          (try Unix.close client with Unix.Unix_error _ -> ())
      end
    end
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> t.closed <- true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      if not t.closed then Thread.delay 0.05
    | exception Unix.Unix_error (_, _, _) | exception Sys_error _ ->
      if not t.closed then Thread.delay 0.01
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

type listen =
  [ `Tcp of string * int
  | `Unix of string ]

let start ?(consult = []) ?limits ?straggler_factor ~listen ~shard_addrs ~key db =
  ignore_sigpipe ();
  List.iter (fun file -> Coral.consult_file db file) consult;
  let fd, bound_port =
    match listen with
    | `Tcp (host, port) ->
      let addr =
        match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
        | { Unix.ai_addr; _ } :: _ -> ai_addr
        | [] -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      in
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd addr;
      Unix.listen fd 64;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      fd, bound
    | `Unix path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd, 0
  in
  let t =
    { fd;
      bound_port;
      sock_path = (match listen with `Unix path -> Some path | `Tcp _ -> None);
      sstore = Session.make_store ?limits db;
      coord = Coordinator.create ?straggler_factor ~addrs:shard_addrs ~key ();
      cl_lock = Mutex.create ();
      dirty = true;
      verdict = Plan.analyse_engine (Coral.engine db);
      last_run = None;
      last_tid = None;
      closed = false;
      accept_thread = None;
      c_dist = Coral_obs.Obs.counter "router.queries.dist_total";
      c_local = Coral_obs.Obs.counter "router.queries.local_total";
      c_fixpoints = Coral_obs.Obs.counter "router.fixpoint.runs_total";
      c_resyncs = Coral_obs.Obs.counter "router.resyncs_total"
    }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let port t = t.bound_port
let store t = t.sstore
let shards t = Coordinator.shards t.coord

let wait t =
  match t.accept_thread with
  | Some th -> Thread.join th
  | None -> ()

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.fd with Unix.Unix_error _ -> ());
    wait t;
    Coordinator.disconnect t.coord;
    match t.sock_path with
    | Some path -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ()
  end
