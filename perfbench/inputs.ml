(* Seeded workload inputs and the from-scratch reference answers.

   Every workload runs over a ring-with-chords graph: the ring makes it
   strongly connected (so the transitive closure is exactly n^2 tuples
   and every node reaches every node), and the seeded chords shape the
   fixpoint.  The servers only ever see the two files written here — a
   fact file and a program file. *)

type workload = Serve_point | Serve_derived | Update_read | Update_write | Dist_closure

let workloads =
  [ "serve_point", Serve_point;
    "serve_derived", Serve_derived;
    "update_read", Update_read;
    "update_write", Update_write;
    "dist_closure", Dist_closure
  ]

(* Left-linear transitive closure, exported for bound and free sources. *)
let path_module =
  "module paths.\n\
   export path(bf).\n\
   export path(ff).\n\
   path(X, Y) :- edge(X, Y).\n\
   path(X, Y) :- path(X, Z), edge(Z, Y).\n\
   end_module.\n"

(* The paper's Figure 3 over a weighted graph [wedge/3]; path elements
   keep the figure's [edge(Z, Y)] functor. *)
let shortest_path_module =
  "module s_p.\n\
   export s_p(bfff).\n\
   @aggregate_selection p(X, Y, P, C) (X, Y) min(C).\n\
   @aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).\n\
   s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).\n\
   s_p_length(X, Y, min(C)) :- p(X, Y, P, C).\n\
   p(X, Y, P1, C1) :- p(X, Z, P, C), wedge(Z, Y, EC),\n\
  \                   append([edge(Z, Y)], P, P1), C1 = C + EC.\n\
   p(X, Y, [edge(X, Y)], C) :- wedge(X, Y, C).\n\
   end_module.\n"

type t = {
  workload : workload;
  nodes : int;
  edges : (int * int * int) list;  (* (src, dst, weight); weight unused for edge/2 *)
  chords : (int * int) list;  (* update schedule: chords absent from [edges] *)
  sources : int array;  (* seeded rotation over every node *)
  program : string;
  facts : string;
}

let nodes_of = function
  | Serve_point -> 64
  | Serve_derived -> 16
  | Update_read | Update_write -> 32
  | Dist_closure -> 64

(* update_write is update_read's writer alone, on the same inputs *)
let tag = function
  | Serve_point -> 1
  | Serve_derived -> 2
  | Update_read | Update_write -> 3
  | Dist_closure -> 4

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [graph] numbers the graphs one seed gives (serve_derived serves
   several in turn); graph 0 is the seed's own. *)
let generate ?(graph = 0) workload ~seed =
  let rng = Random.State.make (if graph = 0 then [| seed; tag workload |] else [| seed; tag workload; graph |]) in
  let n = nodes_of workload in
  let present = Hashtbl.create (4 * n) in
  let ring =
    List.init n (fun i ->
        Hashtbl.replace present (i, (i + 1) mod n) ();
        i, (i + 1) mod n, 1 + Random.State.int rng 10)
  in
  (* [k] distinct chords that are neither self-loops nor already present *)
  let rec pick k acc =
    if k = 0 then List.rev acc
    else begin
      let a = Random.State.int rng n and b = Random.State.int rng n in
      if a = b || Hashtbl.mem present (a, b) then pick k acc
      else begin
        Hashtbl.replace present (a, b) ();
        pick (k - 1) ((a, b) :: acc)
      end
    end
  in
  let chords_per_node = if workload = Serve_derived then 2 else 1 in
  let graph_chords =
    List.map (fun (a, b) -> a, b, 1 + Random.State.int rng 100) (pick (chords_per_node * n) [])
  in
  let chords = pick 8 [] in
  let edges = ring @ graph_chords in
  let facts =
    let b = Buffer.create (n * 32) in
    List.iter
      (fun (a, c, w) ->
        if workload = Serve_derived then Printf.bprintf b "wedge(%d, %d, %d).\n" a c w
        else Printf.bprintf b "edge(%d, %d).\n" a c)
      edges;
    Buffer.contents b
  in
  { workload;
    nodes = n;
    edges;
    chords;
    sources = shuffle rng (Array.init n Fun.id);
    program = (if workload = Serve_derived then shortest_path_module else path_module);
    facts
  }

let write_files t ~dir =
  let write file text =
    let path = Filename.concat dir file in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    path
  in
  (* facts first: the program's first consult then sees the whole EDB *)
  [ write "facts.coral" t.facts; write "program.coral" t.program ]

let query_line t src =
  match t.workload with
  | Serve_derived -> Printf.sprintf "query s_p(%d, Y, P, C)" src
  | _ -> Printf.sprintf "query path(%d, Y)" src

(* ------------------------------------------------------------------ *)
(* Reference answers: a fresh in-process engine, maintenance off       *)
(* ------------------------------------------------------------------ *)

(* An answer is compared as the sorted list of its "Y = .." /
   "Y = .., C = .." keys, so row order and Figure 3's tie-broken
   paths never matter. *)
type answer = string list

let reference_engine t ~extra =
  let db = Coral.create () in
  Coral.consult_text db t.facts;
  List.iter (fun (a, b) -> Coral.fact db "edge" [ Coral.int a; Coral.int b ]) extra;
  Coral.consult_text db t.program;
  db

(* path(X, Y) once, grouped by source: the answer of path(s, Y) for
   every s on the EDB plus [extra] edges. *)
let closure_answers t ~extra =
  let db = reference_engine t ~extra in
  let by_src = Array.make t.nodes [] in
  List.iter
    (fun row ->
      match row with
      | [| x; y |] -> begin
        match Coral.Term.to_string x |> int_of_string_opt with
        | Some s when s >= 0 && s < t.nodes ->
          by_src.(s) <- ("Y = " ^ Coral.Term.to_string y) :: by_src.(s)
        | _ -> failwith "reference: unexpected path row"
      end
      | _ -> failwith "reference: unexpected path arity")
    (Coral.query_rows db "path(X, Y)");
  Array.map (List.sort compare) by_src

let cost_answers t =
  let db = reference_engine t ~extra:[] in
  Array.init t.nodes (fun s ->
      Coral.query db (Printf.sprintf "s_p(%d, Y, P, C)" s)
      |> List.map (fun b ->
             Printf.sprintf "Y = %s, C = %s"
               (Coral.Term.to_string (List.assoc "Y" b))
               (Coral.Term.to_string (List.assoc "C" b)))
      |> List.sort compare)

(* The key of one served answer row ("Y = 3" or "Y = 3, P = [...], C = 7"). *)
let row_key t row =
  match t.workload with
  | Serve_derived -> begin
    let y = match String.index_opt row ',' with Some i -> String.sub row 0 i | None -> row in
    let c =
      let marker = ", C = " in
      let ml = String.length marker and rl = String.length row in
      let rec find i =
        if i < 0 then ""
        else if String.sub row i ml = marker then String.sub row (i + 2) (rl - i - 2)
        else find (i - 1)
      in
      find (rl - ml)
    in
    y ^ ", " ^ c
  end
  | _ -> row

let answer_of_rows t rows = List.sort compare (List.map (row_key t) rows)
