(* The per-shard evaluation loop behind the cluster control plane.

   A worker owns one partition of every derived relation and a full
   replica of the base relations.  It never installs the distributed
   program into its engine as modules: derived relations are
   materialized as ordinary base relations ([path], plus a [path@delta]
   sibling holding the tuples new in the last promote), and each
   global round evaluates rule bodies directly with [Engine.query] —
   Init rules against the replicated EDB, Linear rules with their one
   derived body literal retargeted at the [@delta] relation.  Those
   bodies are built once, at [dprog], which also installs on their
   relations the argument-form indexes maintenance's selection rule
   ([Maintain.body_indexes]) picks, so a delta tuple probes the EDB
   instead of scanning it.  Queries arriving from the router then need
   nothing special: the answers are sitting in base relations.

   Concurrency contract: [barrier]/[dprog]/[dreset] arrive serialized
   on the coordinator's connection and take the store's write lane
   ([commit]) or read lane ([locked]); [delta] batches arrive on peer
   connection threads and touch only the exchange buffer's private
   mutex, so a step that is blocked sending its own deltas can always
   absorb incoming ones.  [step] replies only after every shipped
   batch is acknowledged, which is what lets the coordinator treat
   "all steps replied" as "no delta in flight". *)

open Coral
open Coral_server
module Obs = Coral_obs.Obs
module Maintain = Coral_eval.Maintain

let delta_suffix = "@delta"

type config = {
  part : Partition.t;
  self : int;
  peers : Shard_client.t option array;  (* [None] at our own index *)
}

(* One rule as the barrier step runs it: Init rules in round 1 over
   the replicated EDB, Linear rules in every later round with their
   derived literal retargeted at its @delta sibling. *)
type step_rule = {
  rule : Ast.rule;
  cls : Plan.rule_class;
  head_name : string;
  head_arity : int;
  body : Ast.literal list;
}

type prog = {
  analysis : Plan.analysis;
  steps : step_rule list;
}

type t = {
  eng : Engine.t;
  commit : invalidate:bool -> (unit -> unit) -> unit;
      (* the store's write lane: promotes are ordinary MVCC commits *)
  locked : (unit -> unit) -> unit;  (* the read lane, for step evaluation *)
  budget : unit -> int;  (* max promoted tuples per fixpoint; 0 = none *)
  exchange : Exchange.t;
  mutable config : config option;
  mutable prog : prog option;
  mutable derived_total : int;
  mutable shipped_total : int;
  mutable shipped_bytes : int;
  mutable promoted_total : int;
  mutable rounds_total : int;
  mutable fault_step_delay_s : float;
      (* test seam: sleep this long inside every barrier step, turning
         this worker into a deterministic straggler *)
}

let create ~eng ~commit ~locked ~budget =
  { eng;
    commit;
    locked;
    budget;
    exchange = Exchange.create ();
    config = None;
    prog = None;
    derived_total = 0;
    shipped_total = 0;
    shipped_bytes = 0;
    promoted_total = 0;
    rounds_total = 0;
    fault_step_delay_s = 0.
  }

(* Fault seam for tests and drills: make every step this much slower,
   so straggler detection can be exercised deterministically. *)
let set_fault_step_delay t seconds = t.fault_step_delay_s <- Float.max 0. seconds

let stats t =
  let received, batches = Exchange.totals t.exchange in
  [ "dist.derived_total", t.derived_total;
    "dist.shipped_total", t.shipped_total;
    "dist.shipped_bytes", t.shipped_bytes;
    "dist.received_total", received;
    "dist.received_batches", batches;
    "dist.promoted_total", t.promoted_total;
    "dist.rounds_total", t.rounds_total
  ]

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

let drop_peers t =
  match t.config with
  | None -> ()
  | Some cfg -> Array.iter (Option.iter Shard_client.disconnect) cfg.peers

let disconnect = drop_peers

let do_shard t ~index ~count ~key ~peer_addrs =
  drop_peers t;
  let peers =
    Array.of_list peer_addrs
    |> Array.mapi (fun i addr -> if i = index then None else Some (Shard_client.create addr))
  in
  t.config <- Some { part = Partition.create ~shards:count ~key; self = index; peers };
  Protocol.ok ~detail:(Printf.sprintf "shard=%d/%d key=%d" index count key) []

(* ------------------------------------------------------------------ *)
(* Program installation                                                *)
(* ------------------------------------------------------------------ *)

let full_rel t name arity = Engine.base_relation t.eng (Symbol.intern name) arity
let delta_rel t name arity = Engine.base_relation t.eng (Symbol.intern (name ^ delta_suffix)) arity

(* Retarget the rule's one derived body literal at its @delta sibling,
   in place, preserving literal order (and with it the planner's
   binding propagation). *)
let delta_body (r : Ast.rule) i =
  List.mapi
    (fun j lit ->
      if j <> i then lit
      else
        match lit with
        | Ast.Pos a ->
          Ast.Pos { a with Ast.pred = Symbol.intern (Symbol.name a.Ast.pred ^ delta_suffix) }
        | _ -> lit)
    r.Ast.body

let step_rule (d : Plan.drule) =
  let head = Ast.atom_of_head d.Plan.rule.Ast.head in
  { rule = d.Plan.rule;
    cls = d.Plan.cls;
    head_name = Symbol.name head.Ast.pred;
    head_arity = Array.length head.Ast.args;
    body =
      (match d.Plan.cls with
      | Plan.Init -> d.Plan.rule.Ast.body
      | Plan.Linear i -> delta_body d.Plan.rule i)
  }

let do_dprog t text =
  match Plan.analyse_text text with
  | Plan.Local reason ->
    Protocol.err Protocol.Cluster ("program is not distributable: " ^ reason)
  | Plan.Distributable a ->
    let steps = List.map step_rule a.Plan.drules in
    t.commit ~invalidate:true (fun () ->
        List.iter
          (fun (name, arity) ->
            ignore (full_rel t name arity);
            ignore (delta_rel t name arity))
          a.Plan.idb;
        (* Clearing keeps index specs, so these survive dreset and
           every promote; a repeated dprog finds them already there. *)
        List.iter
          (fun s ->
            List.iter
              (fun ((atom : Ast.atom), spec) ->
                Relation.add_index
                  (Engine.base_relation t.eng atom.Ast.pred (Array.length atom.Ast.args))
                  spec)
              (Maintain.body_indexes ~bound:[] s.body))
          steps;
        t.prog <- Some { analysis = a; steps });
    Protocol.ok
      ~detail:
        (Printf.sprintf "rules=%d idb=%d" (List.length a.Plan.drules)
           (List.length a.Plan.idb))
      []

(* ------------------------------------------------------------------ *)
(* Delta intake (peer connection threads)                              *)
(* ------------------------------------------------------------------ *)

let do_delta t text =
  match t.config, t.prog with
  | None, _ | _, None ->
    Protocol.err Protocol.Cluster "delta before shard/dprog configuration"
  | Some cfg, Some { analysis; _ } -> begin
    match Delta_codec.decode text with
    | Error m -> Protocol.err Protocol.Proto ("bad delta batch: " ^ m)
    | Ok atoms ->
      let check_item (a : Ast.atom) =
        let name = Symbol.name a.Ast.pred in
        let arity = Array.length a.Ast.args in
        if not (List.mem (name, arity) analysis.Plan.idb) then
          Error (Printf.sprintf "delta for non-derived predicate %s/%d" name arity)
        else begin
          let tuple = Tuple.of_terms a.Ast.args in
          if Partition.owner cfg.part tuple <> cfg.self then
            Error (Printf.sprintf "misrouted delta tuple %s" (Tuple.to_string tuple))
          else Ok { Exchange.pred = name; arity; tuple }
        end
      in
      let rec convert acc = function
        | [] -> Ok (List.rev acc)
        | a :: rest -> (
          match check_item a with
          | Ok item -> convert (item :: acc) rest
          | Error m -> Error m)
      in
      (match convert [] atoms with
      | Error m -> Protocol.err Protocol.Cluster m
      | Ok items ->
        let n = Exchange.add_remote t.exchange items in
        Protocol.ok ~detail:(Printf.sprintf "received=%d" n) [])
  end

(* ------------------------------------------------------------------ *)
(* Barrier step: one local round + delta shipping                      *)
(* ------------------------------------------------------------------ *)

(* Instantiate the rule head under one answer row.  [Engine.query]
   renumbers variables but preserves their names, so the head's
   variables are matched to query columns by name. *)
let head_tuples (r : Ast.rule) (res : Engine.query_result) =
  let col_of_name = Hashtbl.create 8 in
  List.iteri
    (fun i (v : Term.var) -> Hashtbl.replace col_of_name v.Term.vname i)
    res.Engine.qvars;
  let head = Ast.atom_of_head r.Ast.head in
  List.map
    (fun row ->
      Array.map
        (fun arg ->
          Term.map_vars
            (fun (v : Term.var) ->
              match Hashtbl.find_opt col_of_name v.Term.vname with
              | Some i -> row.(i)
              | None -> Term.Var v)
            arg)
        head.Ast.args
      |> Tuple.of_terms)
    res.Engine.rows

(* Per-round duplicate table: (pred, variant-hash) buckets compared
   with variant equality, same discipline as relation storage. *)
let seen_add seen pred (tuple : Tuple.t) =
  let key = pred, tuple.Tuple.hash in
  let bucket = try Hashtbl.find seen key with Not_found -> [] in
  if List.exists (Tuple.equal tuple) bucket then false
  else begin
    Hashtbl.replace seen key (tuple :: bucket);
    true
  end

let do_step t round =
  match t.config, t.prog with
  | None, _ | _, None -> Protocol.err Protocol.Cluster "barrier before shard/dprog"
  | Some cfg, Some prog ->
    let derived = ref 0 in
    let shipped_count = ref 0 in
    (* Runs on the coordinator's connection thread, where the wire
       trace id is installed — so this span lands in the distributed
       trace with the right tid. *)
    Obs.Span.with_
      ~attrs:(fun () ->
        [ "round", string_of_int round;
          "shard", string_of_int cfg.self;
          "derived", string_of_int !derived;
          "shipped", string_of_int !shipped_count
        ])
      "dist.step"
    @@ fun () ->
    if t.fault_step_delay_s > 0. then Thread.delay t.fault_step_delay_s;
    t.rounds_total <- t.rounds_total + 1;
    let local = ref [] in
    let outbound = Array.make (Array.length cfg.peers) [] in
    let seen = Hashtbl.create 64 in
    t.locked (fun () ->
        List.iter
          (fun s ->
            if (s.cls = Plan.Init) = (round = 1) then begin
              let name = s.head_name and arity = s.head_arity in
              let full = full_rel t name arity in
              let res = Engine.query t.eng s.body in
              List.iter
                (fun tuple ->
                  if (not (Relation.mem full tuple)) && seen_add seen name tuple then begin
                    let owner = Partition.owner cfg.part tuple in
                    let item = { Exchange.pred = name; arity; tuple } in
                    match s.cls with
                    | Plan.Init ->
                      (* every shard derives the same Init tuples from
                         the replicated EDB: keep ours, ship nothing *)
                      if owner = cfg.self then begin
                        incr derived;
                        local := item :: !local
                      end
                    | Plan.Linear _ ->
                      incr derived;
                      if owner = cfg.self then local := item :: !local
                      else outbound.(owner) <- item :: outbound.(owner)
                  end)
                (head_tuples s.rule res)
            end)
          prog.steps);
    Exchange.add_local t.exchange (List.rev !local);
    t.derived_total <- t.derived_total + !derived;
    (* Ship each destination its batch and wait for the ack: when this
       reply goes out, no delta of ours is still in flight. *)
    let ship dest items =
      match cfg.peers.(dest) with
      | None -> Ok (0, 0)  (* own bucket is always empty; defensive *)
      | Some peer ->
        let lines = List.rev_map (fun i -> Delta_codec.fact_line i.Exchange.pred i.Exchange.tuple) items in
        let payload = String.concat "\n" (List.rev lines) ^ "\n" in
        let n = List.length items in
        (match
           Shard_client.request peer
             ~payload
             (Printf.sprintf "delta# %d" (String.length payload))
         with
        | _, status when Shard_client.status_ok status <> None ->
          t.shipped_total <- t.shipped_total + n;
          t.shipped_bytes <- t.shipped_bytes + String.length payload;
          Ok (n, String.length payload)
        | _, status -> Error (Printf.sprintf "%s rejected delta: %s" (Shard_client.addr peer) status)
        | exception Shard_client.Down m -> Error m)
    in
    let rec ship_all dest shipped bytes =
      if dest >= Array.length outbound then Ok (shipped, bytes)
      else if outbound.(dest) = [] then ship_all (dest + 1) shipped bytes
      else
        match ship dest outbound.(dest) with
        | Ok (n, b) -> ship_all (dest + 1) (shipped + n) (bytes + b)
        | Error m -> Error m
    in
    (match ship_all 0 0 0 with
    | Error m -> Protocol.err Protocol.Unavail ("peer unreachable mid-round: " ^ m)
    | exception Delta_codec.Unencodable m ->
      (* a derived value the codec cannot round-trip (a rule computed
         a non-finite double, say) must fail the round loudly, not
         ship a lie to its owner *)
      Protocol.err Protocol.Cluster ("derived tuple cannot be shipped: " ^ m)
    | Ok (shipped, bytes) ->
      shipped_count := shipped;
      Protocol.ok
        ~detail:(Printf.sprintf "derived=%d shipped=%d bytes=%d" !derived shipped bytes)
        [])

(* ------------------------------------------------------------------ *)
(* Barrier promote: absorb the exchange into full + delta relations    *)
(* ------------------------------------------------------------------ *)

let do_promote t round =
  match t.config, t.prog with
  | None, _ | _, None -> Protocol.err Protocol.Cluster "barrier before shard/dprog"
  | Some cfg, Some prog ->
    let fresh = ref 0 in
    let received = ref 0 in
    Obs.Span.with_
      ~attrs:(fun () ->
        [ "round", string_of_int round;
          "shard", string_of_int cfg.self;
          "new", string_of_int !fresh;
          "received", string_of_int !received
        ])
      "dist.promote"
    @@ fun () ->
    t.commit ~invalidate:true (fun () ->
        let items, recv = Exchange.drain t.exchange in
        received := recv;
        List.iter (fun (name, arity) -> Relation.clear (delta_rel t name arity)) prog.analysis.Plan.idb;
        List.iter
          (fun item ->
            let full = full_rel t item.Exchange.pred item.Exchange.arity in
            if Relation.insert full item.Exchange.tuple then begin
              incr fresh;
              ignore (Relation.insert (delta_rel t item.Exchange.pred item.Exchange.arity) item.Exchange.tuple)
            end)
          items);
    t.promoted_total <- t.promoted_total + !fresh;
    let budget = t.budget () in
    if budget > 0 && t.promoted_total > budget then
      Protocol.err Protocol.Resource
        (Printf.sprintf
           "distributed fixpoint exceeded this worker's tuple budget (%d promoted > %d)"
           t.promoted_total budget)
    else
      Protocol.ok ~detail:(Printf.sprintf "new=%d received=%d" !fresh !received) []

(* ------------------------------------------------------------------ *)
(* Reset                                                               *)
(* ------------------------------------------------------------------ *)

let do_dreset t =
  Exchange.reset t.exchange;
  (* Clear every base relation, not just the derived ones: the router
     reprovisions a dirty cluster from scratch (dreset, re-ship the
     EDB, dprog, rerun the fixpoint), and the invariant that makes
     that simple is that a reset worker holds exactly what the router
     ships next — including after a retract upstream. *)
  t.commit ~invalidate:true (fun () ->
      List.iter
        (fun (key, _card) ->
          match String.rindex_opt key '/' with
          | None -> ()
          | Some i -> (
            let name = String.sub key 0 i in
            let arity =
              int_of_string_opt (String.sub key (i + 1) (String.length key - i - 1))
            in
            match arity with
            | None -> ()
            | Some arity -> (
              match Engine.relation_of t.eng (Symbol.intern name) arity with
              | Some rel -> Relation.clear rel
              | None -> ())))
        (Engine.list_relations t.eng));
  t.derived_total <- 0;
  t.shipped_total <- 0;
  t.shipped_bytes <- 0;
  t.promoted_total <- 0;
  t.rounds_total <- 0;
  Protocol.ok ~detail:"reset" []

(* ------------------------------------------------------------------ *)

let handle t (req : Protocol.request) =
  match req with
  | Protocol.Shard { index; count; key; peers } ->
    do_shard t ~index ~count ~key ~peer_addrs:peers
  | Protocol.Dprog text -> do_dprog t text
  | Protocol.Delta text -> do_delta t text
  | Protocol.Barrier (Protocol.Step, r) -> do_step t r
  | Protocol.Barrier (Protocol.Promote, r) -> do_promote t r
  | Protocol.Dreset -> do_dreset t
  | _ -> Protocol.err Protocol.Proto "not a cluster request"
