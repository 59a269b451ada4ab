(* Incremental view maintenance (DRed): the maintained engine must
   stay byte-identical to a from-scratch recompute after every insert
   and retract — over the recursive E1/E2-style workloads and the
   Figure 3 aggregate program (the fallback class), under parallel
   evaluation (workers 4), and across a persistent-relation reopen in
   the middle of an update sequence. *)

open Coral_term
open Coral_storage

let sym = Symbol.intern

let tmpdir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rows e q =
  Coral.query_rows e q
  |> List.map (fun row -> Array.to_list row |> List.map Term.to_string)
  |> List.sort compare

let eng = Coral.engine

(* ------------------------------------------------------------------ *)
(* Workload programs                                                   *)
(* ------------------------------------------------------------------ *)

let tc_program =
  {|
module paths.
export path(ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
|}

(* same-generation: nonlinear recursion over two base relations *)
let sg_program =
  {|
person(0). person(1). person(2). person(3). person(4). person(5). person(6).
module sg.
export sg(ff).
sg(X, X) :- person(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
end_module.
|}

(* Figure 3 shortest paths: aggregation + aggregate selections put the
   whole module in the maintenance fallback class — updates must go
   through recompute and still match the oracle exactly *)
let fig3_program =
  {|
module s_p.
export s_p(bfff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C)       :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(C)) :- p(X, Y, P, C).
p(X, Y, P1, C1)       :- p(X, Z, P, C), edge(Z, Y, EC),
                         append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- edge(X, Y, C).
end_module.
|}

(* ------------------------------------------------------------------ *)
(* The differential harness                                            *)
(* ------------------------------------------------------------------ *)

(* Apply a seeded random mixed insert/retract sequence to a maintained
   engine, and after every single update rebuild an oracle engine from
   scratch (same program, current base facts, maintenance off) and
   demand identical answers on every probe query. *)
let differential ?(workers = 1) ~name ~program ~probes ~gen_fact ~steps ~seed () =
  let rng = Random.State.make [| seed |] in
  let m = Coral.create ~workers () in
  Coral.consult_text m program;
  Coral.Engine.set_maintenance (eng m) true;
  let current = ref [] in
  for step = 1 to steps do
    let f = gen_fact rng in
    let removing = Random.State.int rng 3 = 0 && !current <> [] in
    if removing then begin
      (* half the time retract a fact that is present, otherwise the
         freshly generated one (often absent: the missing path) *)
      let victim =
        if Random.State.bool rng then
          List.nth !current (Random.State.int rng (List.length !current))
        else f
      in
      ignore (Coral.Engine.retract_facts (eng m) [ victim ]);
      current := List.filter (fun g -> g <> victim) !current
    end
    else begin
      ignore (Coral.Engine.insert_facts (eng m) [ f ]);
      if not (List.mem f !current) then current := f :: !current
    end;
    let o = Coral.create ~workers () in
    Coral.consult_text o program;
    ignore (Coral.Engine.insert_facts (eng o) !current);
    List.iter
      (fun q ->
        Alcotest.(check (list (list string)))
          (Printf.sprintf "%s step %d: %s" name step q)
          (rows o q) (rows m q))
      probes
  done

let gen_edge2 dom rng =
  sym "edge", [| Term.int (Random.State.int rng dom); Term.int (Random.State.int rng dom) |]

let gen_par dom rng =
  sym "par", [| Term.int (Random.State.int rng dom); Term.int (Random.State.int rng dom) |]

let gen_edge3 dom rng =
  ( sym "edge",
    [| Term.int (Random.State.int rng dom);
       Term.int (Random.State.int rng dom);
       Term.int (1 + Random.State.int rng 9)
    |] )

let test_differential_tc () =
  differential ~name:"tc" ~program:tc_program
    ~probes:[ "path(X, Y)"; "path(0, Y)"; "edge(X, Y)" ]
    ~gen_fact:(gen_edge2 8) ~steps:60 ~seed:11 ()

let test_differential_sg () =
  differential ~name:"sg" ~program:sg_program
    ~probes:[ "sg(X, Y)"; "sg(2, Y)" ]
    ~gen_fact:(gen_par 7) ~steps:40 ~seed:23 ()

let test_differential_fig3 () =
  differential ~name:"fig3" ~program:fig3_program
    ~probes:[ "s_p(0, Y, P, C)"; "s_p(1, Y, P, C)" ]
    ~gen_fact:(gen_edge3 5) ~steps:18 ~seed:37 ()

let test_differential_tc_workers () =
  differential ~workers:4 ~name:"tc-w4" ~program:tc_program
    ~probes:[ "path(X, Y)"; "path(0, Y)" ]
    ~gen_fact:(gen_edge2 8) ~steps:40 ~seed:51 ()

(* ------------------------------------------------------------------ *)
(* Persistent reopen mid-sequence                                      *)
(* ------------------------------------------------------------------ *)

(* The maintained extents are in-memory and rebuilt lazily; the base
   relation is persistent.  Close and reopen the store halfway through
   a mixed update sequence — the second engine must pick the sequence
   up where the first left off and still match the oracle. *)
let test_persistent_reopen () =
  let dir = tmpdir "maint" in
  let seed = 77 and steps = 40 and dom = 8 in
  let rng = Random.State.make [| seed |] in
  let current = ref [] in
  let open_engine () =
    let h = Persistent_relation.open_ ~indexes:[ 0 ] ~dir ~name:"edge" ~arity:2 () in
    let e = Coral.create () in
    Coral.install_relation e "edge" (Persistent_relation.relation h);
    Coral.consult_text e tc_program;
    Coral.Engine.set_maintenance (eng e) true;
    h, e
  in
  let run_steps e n =
    for _ = 1 to n do
      let f = gen_edge2 dom rng in
      if Random.State.int rng 3 = 0 && !current <> [] then begin
        let victim = List.nth !current (Random.State.int rng (List.length !current)) in
        ignore (Coral.Engine.retract_facts (eng e) [ victim ]);
        current := List.filter (fun g -> g <> victim) !current
      end
      else begin
        ignore (Coral.Engine.insert_facts (eng e) [ f ]);
        if not (List.mem f !current) then current := f :: !current
      end;
      let o = Coral.create () in
      Coral.consult_text o tc_program;
      ignore (Coral.Engine.insert_facts (eng o) !current);
      Alcotest.(check (list (list string))) "persistent tc matches oracle"
        (rows o "path(X, Y)") (rows e "path(X, Y)")
    done
  in
  let h1, e1 = open_engine () in
  run_steps e1 (steps / 2);
  Persistent_relation.close h1;
  let h2, e2 = open_engine () in
  run_steps e2 (steps / 2);
  Persistent_relation.close h2

(* ------------------------------------------------------------------ *)
(* Unit behavior of the maintenance driver                             *)
(* ------------------------------------------------------------------ *)

let chain_engine () =
  let e = Coral.create () in
  Coral.consult_text e ("edge(1, 2). edge(2, 3).\n" ^ tc_program);
  Coral.Engine.set_maintenance (eng e) true;
  (* force the first extent build so updates take the incremental path *)
  ignore (rows e "path(X, Y)");
  e

let test_insert_propagates () =
  let e = chain_engine () in
  let rep = Coral.Engine.insert_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ] in
  Alcotest.(check bool) "maintained" true rep.Coral.Engine.ur_maintained;
  Alcotest.(check int) "stored" 1 rep.Coral.Engine.ur_applied;
  (* path(3,4), path(2,4), path(1,4) *)
  Alcotest.(check int) "derived" 3 rep.Coral.Engine.ur_derived;
  Alcotest.(check (list (list string))) "closure after insert"
    [ [ "1"; "2" ]; [ "1"; "3" ]; [ "1"; "4" ]; [ "2"; "3" ]; [ "2"; "4" ]; [ "3"; "4" ] ]
    (rows e "path(X, Y)")

let test_insert_duplicate_accounting () =
  let e = chain_engine () in
  let f = [ sym "edge", [| Term.int 1; Term.int 2 |]; sym "edge", [| Term.int 7; Term.int 8 |] ] in
  let rep = Coral.Engine.insert_facts (eng e) f in
  Alcotest.(check int) "one stored" 1 rep.Coral.Engine.ur_applied;
  Alcotest.(check int) "one duplicate" 1 rep.Coral.Engine.ur_noop

let test_retract_dred_rederives () =
  let e = Coral.create () in
  (* diamond: 1 -> {2, 3} -> 4; deleting edge(2, 4) must keep
     path(1, 4) alive through the 3 branch (rederivation) *)
  Coral.consult_text e ("edge(1, 2). edge(1, 3). edge(2, 4). edge(3, 4).\n" ^ tc_program);
  Coral.Engine.set_maintenance (eng e) true;
  ignore (rows e "path(X, Y)");
  let rep = Coral.Engine.retract_facts (eng e) [ sym "edge", [| Term.int 2; Term.int 4 |] ] in
  Alcotest.(check bool) "maintained" true rep.Coral.Engine.ur_maintained;
  Alcotest.(check int) "removed" 1 rep.Coral.Engine.ur_applied;
  (* over-deletion touched path(2,4) and path(1,4) ... *)
  Alcotest.(check bool) "over-deleted" true (rep.Coral.Engine.ur_deleted >= 2);
  (* ... and path(1,4) came back *)
  Alcotest.(check bool) "rederived" true (rep.Coral.Engine.ur_rederived >= 1);
  Alcotest.(check (list (list string))) "closure after retract"
    [ [ "1"; "2" ]; [ "1"; "3" ]; [ "1"; "4" ]; [ "3"; "4" ] ]
    (rows e "path(X, Y)")

let test_retract_missing_accounting () =
  let e = chain_engine () in
  let rep = Coral.Engine.retract_facts (eng e) [ sym "edge", [| Term.int 9; Term.int 9 |] ] in
  Alcotest.(check int) "nothing removed" 0 rep.Coral.Engine.ur_applied;
  Alcotest.(check int) "missing counted" 1 rep.Coral.Engine.ur_noop

let test_fallback_class () =
  let e = Coral.create () in
  Coral.consult_text e
    ("edge(1, 2). edge(2, 3). blocked(2).\n\
      module safe.\n\
      export reach(ff).\n\
      reach(X, Y) :- edge(X, Y), not blocked(Y).\n\
      reach(X, Y) :- reach(X, Z), edge(Z, Y), not blocked(Y).\n\
      end_module.\n");
  Coral.Engine.set_maintenance (eng e) true;
  let fallbacks = Coral.Engine.maintenance_fallbacks (eng e) in
  Alcotest.(check bool) "negation excluded from maintenance" true
    (List.exists (fun (p, _) -> p = "reach/2") fallbacks);
  (* the fallback path still answers correctly through updates *)
  ignore (Coral.Engine.insert_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ]);
  Alcotest.(check (list (list string))) "recompute fallback"
    [ [ "4" ] ]
    (rows e "reach(3, Y)");
  ignore (Coral.Engine.retract_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ]);
  Alcotest.(check (list (list string))) "recompute fallback after retract" []
    (rows e "reach(3, Y)")

let test_maintenance_info () =
  let e = chain_engine () in
  match Coral.Engine.maintenance_info (eng e) with
  | None -> Alcotest.fail "maintenance should be on"
  | Some (preds, refreshes) ->
    Alcotest.(check bool) "path is maintained" true (preds >= 1);
    Alcotest.(check bool) "one refresh so far" true (refreshes >= 1);
    (* incremental updates must not trigger full rebuilds *)
    ignore (Coral.Engine.insert_facts (eng e) [ sym "edge", [| Term.int 3; Term.int 4 |] ]);
    ignore (rows e "path(X, Y)");
    (match Coral.Engine.maintenance_info (eng e) with
    | Some (_, r2) -> Alcotest.(check int) "no extra rebuild" refreshes r2
    | None -> Alcotest.fail "maintenance dropped")

(* ------------------------------------------------------------------ *)
(* Retract drift                                                       *)
(* ------------------------------------------------------------------ *)

(* The serving layer's write lane: every commit is followed by a
   snapshot.  DRed over-deletes the whole closure of a cyclic graph on
   each retract, so without compaction tombstones pile up, and without
   consolidation every snapshot leaves one more sealed subsidiary
   behind for probes to visit.  Over 100 insert/retract cycles the
   answers must match a from-scratch engine at every step, and the
   physical footprint of the maintained extent and of [edge] must stay
   bounded by their live size, independent of the cycle count. *)
let ring_program =
  {|
module ring.
export path(bf).
export path(ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- path(X, Z), edge(Z, Y).
end_module.
|}

let test_retract_drift_bounded () =
  let n = 12 in
  (* a ring with a three-node tail hanging off node n - 1: chords out of
     the tail's end change the answers, ring chords only the work *)
  let base =
    List.init n (fun i -> i, (i + 1) mod n) @ [ n - 1, n; n, n + 1; n + 1, n + 2 ]
  in
  let edge (a, b) = sym "edge", [| Term.int a; Term.int b |] in
  let facts edges =
    String.concat " " (List.map (fun (a, b) -> Printf.sprintf "edge(%d, %d)." a b) edges)
  in
  let e = Coral.create () in
  Coral.consult_text e (facts base ^ "\n" ^ ring_program);
  Coral.Engine.set_maintenance (eng e) true;
  ignore (rows e "path(X, Y)");
  (* the joins' bound positions and the bf export are indexed: a delta
     edge(Z, Y) probes path on Z, a support check path(X, Y) probes
     path on X, a delta path(X, Z) probes edge on Z *)
  let indexed rel cols =
    List.exists (Coral_rel.Index.spec_equal (Coral_rel.Index.Args cols))
      (Coral_rel.Relation.indexes rel)
  in
  let path_ext = Option.get (Coral.Engine.maintained_extent (eng e) (sym "path") 2) in
  let edge_rel = Option.get (Coral.Engine.relation_of (eng e) (sym "edge") 2) in
  Alcotest.(check bool) "path indexed on 0" true (indexed path_ext [ 0 ]);
  Alcotest.(check bool) "path indexed on 1" true (indexed path_ext [ 1 ]);
  Alcotest.(check bool) "edge indexed on 0" true (indexed edge_rel [ 0 ]);
  let refreshes () = Option.map snd (Coral.Engine.maintenance_info (eng e)) in
  let refreshes0 = refreshes () in
  let footprint what rel =
    let s = Coral_rel.Relation.storage rel in
    let stored = s.Coral_rel.Relation.st_stored and live = s.Coral_rel.Relation.st_live in
    if stored > (2 * live) + 32 then
      Alcotest.failf "%s: %d stored tuples for %d live" what stored live;
    (* consolidated subsidiaries at least double in size from newest to
       oldest: at most log2(stored) + 1 sealed ones plus the open one *)
    let log2 x = int_of_float (Float.log2 (float_of_int (max x 1))) in
    if s.Coral_rel.Relation.st_subsidiaries > log2 stored + 2 then
      Alcotest.failf "%s: %d subsidiaries for %d stored tuples" what
        s.Coral_rel.Relation.st_subsidiaries stored
  in
  let commit label edges =
    (match Coral.Engine.snapshot (eng e) with
    | None -> Alcotest.fail "no snapshot"
    | Some view ->
      let o = Coral.create () in
      Coral.consult_text o (facts edges ^ "\n" ^ ring_program);
      let expected = rows o "path(X, Y)" in
      Alcotest.(check (list (list string))) (label ^ ": live") expected (rows e "path(X, Y)");
      let reader = Coral.of_engine (Coral.Engine.read_view view) in
      Alcotest.(check (list (list string))) (label ^ ": snapshot") expected
        (rows reader "path(X, Y)");
      Alcotest.(check (list (list string))) (label ^ ": point read")
        (List.filter (fun r -> List.hd r = string_of_int n) expected
        |> List.map (fun r -> List.tl r))
        (rows reader (Printf.sprintf "path(%d, Y)" n)));
    footprint (label ^ ": path extent")
      (Option.get (Coral.Engine.maintained_extent (eng e) (sym "path") 2));
    footprint (label ^ ": edge") (Option.get (Coral.Engine.relation_of (eng e) (sym "edge") 2))
  in
  for cycle = 1 to 100 do
    let chord =
      if cycle mod 2 = 0 then begin
        let a = cycle mod n in
        a, (a + 2 + (cycle mod (n - 3))) mod n
      end
      else n + 2, cycle mod n
    in
    let label = Printf.sprintf "cycle %d" cycle in
    let rep = Coral.Engine.insert_facts (eng e) [ edge chord ] in
    Alcotest.(check int) (label ^ ": inserted") 1 rep.Coral.Engine.ur_applied;
    commit (label ^ " insert") (chord :: base);
    let rep = Coral.Engine.retract_facts (eng e) [ edge chord ] in
    Alcotest.(check int) (label ^ ": retracted") 1 rep.Coral.Engine.ur_applied;
    commit (label ^ " retract") base
  done;
  Alcotest.(check (option int)) "incremental throughout: no rebuild" refreshes0 (refreshes ());
  match Coral.Engine.maintenance_storage (eng e) with
  | None -> Alcotest.fail "maintenance should be on"
  | Some s ->
    Alcotest.(check bool) "the extent compacted" true (s.Coral_rel.Relation.st_compactions > 0)

let () =
  Alcotest.run "coral_maintain"
    [ ( "differential",
        [ Alcotest.test_case "transitive closure" `Quick test_differential_tc;
          Alcotest.test_case "same generation" `Quick test_differential_sg;
          Alcotest.test_case "figure 3 (fallback)" `Quick test_differential_fig3;
          Alcotest.test_case "tc, workers 4" `Quick test_differential_tc_workers;
          Alcotest.test_case "persistent reopen" `Quick test_persistent_reopen
        ] );
      ( "driver",
        [ Alcotest.test_case "insert propagates" `Quick test_insert_propagates;
          Alcotest.test_case "duplicate accounting" `Quick test_insert_duplicate_accounting;
          Alcotest.test_case "retract rederives" `Quick test_retract_dred_rederives;
          Alcotest.test_case "missing accounting" `Quick test_retract_missing_accounting;
          Alcotest.test_case "fallback class" `Quick test_fallback_class;
          Alcotest.test_case "maintenance info" `Quick test_maintenance_info;
          Alcotest.test_case "retract drift bounded" `Quick test_retract_drift_bounded
        ] )
    ]
