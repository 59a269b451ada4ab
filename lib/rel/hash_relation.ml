open Coral_term

(* Subsidiary relations are kept in a growable array indexed by mark
   interval, so a scan over a mark range selects its subsidiaries in
   O(selected) — semi-naive delta scans touch one or two subsidiaries
   regardless of how many iterations have passed.  Index stores live on
   each subsidiary (the paper: "the indexing mechanisms are used on each
   subsidiary relation"); the duplicate table is relation-global since
   duplicate checks always span all marks.

   Deletion tombstones tuples in place.  Once tombstones outnumber live
   tuples the relation compacts, copy-on-compact: every subsidiary
   holding a tombstone is rebuilt into fresh arrays and index stores,
   and the duplicate buckets into fresh lists.  Nothing a scan or a
   frozen view has captured is ever written, so pinned snapshot readers
   keep scanning their old arrays.  Subsidiary boundaries survive a
   compaction; on a relation nobody has taken a mark on (base relations,
   maintained extents) they carry no meaning, and the subsidiaries that
   [freeze] seals once per published epoch are consolidated so a probe
   visits O(log n) of them however many epochs have passed. *)

type sub = {
  mutable tuples : Tuple.t array;
  mutable n : int;
  mutable stores : Index.t list;  (* one per index spec, same order *)
}

type state = {
  mutable subs : sub array;  (* oldest first; subs.(nsubs-1) is open *)
  mutable nsubs : int;
  mutable specs : Index.spec list;
  mutable live : int;
  mutable stored : int;  (* tuples held by the subsidiaries, tombstones included *)
  mutable marked : bool;  (* a caller took a mark: subsidiary boundaries are semantic *)
  mutable compactions : int;
  mutable dups : (int, Tuple.t list ref) Hashtbl.t;
  mutable nonground : Tuple.t list;
}

(* Tombstones tolerated before a compaction, on top of one per live
   tuple: keeps tiny relations from rebuilding on every delete. *)
let compact_slack = 32

let dummy_tuple = Tuple.of_terms [||]

let new_sub specs =
  { tuples = Array.make 8 dummy_tuple; n = 0; stores = List.map Index.create specs }

(* A subsidiary holding exactly [tuples] (which it takes ownership of),
   with freshly built index stores. *)
let sub_of_tuples specs tuples =
  let n = Array.length tuples in
  let stores = List.map Index.create specs in
  List.iter (fun store -> Array.iter (Index.insert store) tuples) stores;
  { tuples = (if n = 0 then Array.make 8 dummy_tuple else tuples); n; stores }

let live_tuples sub =
  let out = ref [] in
  for i = sub.n - 1 downto 0 do
    let t = sub.tuples.(i) in
    if not t.Tuple.dead then out := t :: !out
  done;
  Array.of_list !out

let dummy_sub = { tuples = [||]; n = 0; stores = [] }

let set_subs st subs =
  let nsubs = List.length subs in
  let arr = Array.make (max 4 (2 * nsubs)) dummy_sub in
  List.iteri (fun i sub -> arr.(i) <- sub) subs;
  st.subs <- arr;
  st.nsubs <- nsubs

let push_sub st =
  if st.nsubs >= Array.length st.subs then begin
    let bigger = Array.make (max 4 (2 * Array.length st.subs)) dummy_sub in
    Array.blit st.subs 0 bigger 0 st.nsubs;
    st.subs <- bigger
  end;
  st.subs.(st.nsubs) <- new_sub st.specs;
  st.nsubs <- st.nsubs + 1

let sub_append st sub (tuple : Tuple.t) =
  if sub.n >= Array.length sub.tuples then begin
    let bigger = Array.make (2 * Array.length sub.tuples) tuple in
    Array.blit sub.tuples 0 bigger 0 sub.n;
    sub.tuples <- bigger
  end;
  sub.tuples.(sub.n) <- tuple;
  sub.n <- sub.n + 1;
  st.stored <- st.stored + 1;
  List.iter (fun store -> Index.insert store tuple) sub.stores

let kill st (t : Tuple.t) =
  Tuple.kill t;
  st.live <- st.live - 1

(* Merge the sealed subsidiaries of an unmarked relation, oldest first,
   binary-counter style: a subsidiary is folded into the next older one
   while it is at least half that one's size, and empty ones are
   dropped.  Sizes then at least double from newest to oldest, so there
   are O(log n) subsidiaries and each tuple is copied O(log n) times.
   Merged subsidiaries are fresh (copy-on-compact) and keep only live
   tuples, in scan order. *)
let consolidate st =
  if (not st.marked) && st.nsubs > 2 then begin
    let changed = ref false in
    let stack = ref [] in  (* newest first *)
    for s = 0 to st.nsubs - 2 do
      let sub = st.subs.(s) in
      if sub.n = 0 then changed := true
      else begin
        stack := sub :: !stack;
        let rec settle () =
          match !stack with
          | newer :: older :: rest when older.n <= 2 * newer.n ->
            let merged =
              sub_of_tuples st.specs (Array.append (live_tuples older) (live_tuples newer))
            in
            st.stored <- st.stored - older.n - newer.n + merged.n;
            stack := (if merged.n = 0 then rest else merged :: rest);
            changed := true;
            settle ()
          | _ -> ()
        in
        settle ()
      end
    done;
    if !changed then set_subs st (List.rev (st.subs.(st.nsubs - 1) :: !stack))
  end

(* Drop every tombstone (see the comment at the top). *)
let compact st =
  for s = 0 to st.nsubs - 1 do
    let sub = st.subs.(s) in
    let keep = live_tuples sub in
    if Array.length keep < sub.n then st.subs.(s) <- sub_of_tuples st.specs keep
  done;
  let dups = Hashtbl.create (Hashtbl.length st.dups) in
  Hashtbl.iter
    (fun h bucket ->
      match List.filter (fun (t : Tuple.t) -> not t.Tuple.dead) !bucket with
      | [] -> ()
      | live -> Hashtbl.replace dups h (ref live))
    st.dups;
  st.dups <- dups;
  st.nonground <- List.filter (fun (t : Tuple.t) -> not t.Tuple.dead) st.nonground;
  st.stored <- st.live;
  st.compactions <- st.compactions + 1;
  consolidate st

let maybe_compact st = if st.stored - st.live > max st.live compact_slack then compact st

let is_duplicate st (tuple : Tuple.t) =
  (match Hashtbl.find_opt st.dups tuple.Tuple.hash with
  | Some bucket -> List.exists (fun ex -> (not ex.Tuple.dead) && Tuple.equal ex tuple) !bucket
  | None -> false)
  || List.exists (fun ex -> (not ex.Tuple.dead) && Tuple.subsumes ex tuple) st.nonground

(* Inserting a more general non-ground tuple retires the tuples it
   strictly subsumes: answers are preserved (every instance of a
   subsumed tuple is an instance of the subsuming one). *)
let retire_subsumed st (tuple : Tuple.t) =
  for s = 0 to st.nsubs - 1 do
    let sub = st.subs.(s) in
    for i = 0 to sub.n - 1 do
      let ex = sub.tuples.(i) in
      if (not ex.Tuple.dead) && Tuple.subsumes tuple ex then kill st ex
    done
  done

let create ?(indexes = []) ~name ~arity () =
  let st =
    { subs = Array.make 4 dummy_sub;
      nsubs = 0;
      specs = indexes;
      live = 0;
      stored = 0;
      marked = false;
      compactions = 0;
      dups = Hashtbl.create 256;
      nonground = []
    }
  in
  push_sub st;
  let insert ~dedup tuple =
    if dedup && is_duplicate st tuple then false
    else begin
      if dedup && not (Tuple.is_ground tuple) then retire_subsumed st tuple;
      sub_append st st.subs.(st.nsubs - 1) tuple;
      (match Hashtbl.find_opt st.dups tuple.Tuple.hash with
      | Some bucket -> bucket := tuple :: !bucket
      | None -> Hashtbl.add st.dups tuple.Tuple.hash (ref [ tuple ]));
      if not (Tuple.is_ground tuple) then st.nonground <- tuple :: st.nonground;
      st.live <- st.live + 1;
      true
    end
  in
  let rec seq_array arr limit i () =
    if i >= limit then Seq.Nil else Seq.Cons (arr.(i), seq_array arr limit (i + 1))
  in
  let candidates ~tuples ~stores ~limit ~pattern =
    match pattern with
    | Some (args, env) ->
      let rec try_stores = function
        | [] -> None
        | store :: rest -> begin
          match Index.probe store args env with
          | Some found -> Some found
          | None -> try_stores rest
        end
      in
      (match try_stores stores with
      | Some found -> List.to_seq found
      | None -> seq_array tuples limit 0)
    | None -> seq_array tuples limit 0
  in
  let candidates_of_sub sub ~pattern ~snapshot =
    candidates ~tuples:sub.tuples ~stores:sub.stores ~limit:snapshot ~pattern
  in
  let scan ~from_mark ~to_mark ~pattern =
    let last = if to_mark < 0 then st.nsubs else min to_mark st.nsubs in
    let from_mark = max 0 from_mark in
    (* Snapshot each subsidiary's length now: tuples inserted after the
       scan opens are not seen (mark semantics for the open interval). *)
    let parts = ref [] in
    for s = last - 1 downto from_mark do
      let sub = st.subs.(s) in
      if sub.n > 0 then parts := candidates_of_sub sub ~pattern ~snapshot:sub.n :: !parts
    done;
    Seq.filter (fun t -> not t.Tuple.dead) (List.fold_right Seq.append !parts Seq.empty)
  in
  (* A ground pattern can only unify with an equal stored tuple, which
     sits in its hash bucket of the duplicate table, or with a
     non-ground one: those are all the candidates a point delete needs. *)
  let delete ~pattern pred =
    let count = ref 0 in
    let consider t =
      if (not t.Tuple.dead) && pred t then begin
        kill st t;
        incr count
      end
    in
    let ground =
      match pattern with
      | Some (args, env) when Array.length args = arity ->
        let probe = Tuple.make args env in
        if Tuple.is_ground probe then Some probe else None
      | _ -> None
    in
    (match ground with
    | Some probe ->
      Option.iter
        (fun bucket -> List.iter consider !bucket)
        (Hashtbl.find_opt st.dups probe.Tuple.hash);
      List.iter consider st.nonground
    | None -> Seq.iter consider (scan ~from_mark:0 ~to_mark:(-1) ~pattern));
    maybe_compact st;
    !count
  in
  let impl =
    { Relation.i_insert = insert;
      i_delete = delete;
      i_retire = (fun t -> if not t.Tuple.dead then kill st t);
      i_mark =
        (fun () ->
          st.marked <- true;
          push_sub st;
          st.nsubs - 1);
      i_marks = (fun () -> st.nsubs - 1);
      i_cardinal = (fun () -> st.live);
      i_add_index =
        (fun spec ->
          if not (List.exists (Index.spec_equal spec) st.specs) then begin
            st.specs <- st.specs @ [ spec ];
            for s = 0 to st.nsubs - 1 do
              let sub = st.subs.(s) in
              let store = Index.create spec in
              for i = 0 to sub.n - 1 do
                let t = sub.tuples.(i) in
                if not t.Tuple.dead then Index.insert store t
              done;
              sub.stores <- sub.stores @ [ store ]
            done
          end);
      i_indexes = (fun () -> st.specs);
      i_scan = scan;
      i_mem = (fun tuple -> is_duplicate st tuple);
      i_freeze =
        (fun () ->
          (* Seal the open subsidiary (unless already empty) so every
             captured array has reached its final extent, compact or
             consolidate if due, then capture each sealed subsidiary's
             cells by VALUE — the tuples array, its length, and the
             store list — because the live relation may later grow new
             index stores, reallocate the subs array, or replace a
             subsidiary when it compacts, and a frozen reader must never
             chase those.  Sealed tuple arrays are never appended to,
             and compaction and consolidation copy instead of writing
             them, so the capture is genuinely immutable (tombstone
             flags excepted; see DESIGN.md on retraction visibility). *)
          if st.subs.(st.nsubs - 1).n > 0 then push_sub st;
          maybe_compact st;
          consolidate st;
          let nsealed = st.nsubs - 1 in
          let snaps =
            Array.init nsealed (fun s ->
                let sub = st.subs.(s) in
                sub.tuples, sub.n, sub.stores)
          in
          let f_scan ~pattern =
            let parts = ref [] in
            for s = nsealed - 1 downto 0 do
              let tuples, n, stores = snaps.(s) in
              if n > 0 then parts := candidates ~tuples ~stores ~limit:n ~pattern :: !parts
            done;
            Seq.filter
              (fun (t : Tuple.t) -> not t.Tuple.dead)
              (List.fold_right Seq.append !parts Seq.empty)
          in
          let f_mem tuple =
            Seq.exists (fun ex -> Tuple.subsumes ex tuple) (f_scan ~pattern:None)
          in
          Some { Relation.f_scan; f_mem; f_cardinal = st.live });
      i_clear =
        (fun () ->
          st.subs <- Array.make 4 dummy_sub;
          st.nsubs <- 0;
          push_sub st;
          st.live <- 0;
          st.stored <- 0;
          st.dups <- Hashtbl.create 256;
          st.nonground <- []);
      i_storage =
        (fun () ->
          { Relation.st_live = st.live;
            st_stored = st.stored;
            st_subsidiaries = st.nsubs;
            st_compactions = st.compactions
          })
    }
  in
  let r = Relation.v ~name ~arity impl in
  (* Scans snapshot subsidiary lengths and arrays only grow by copy, so
     readers on other domains are safe while the owner inserts. *)
  r.Relation.scan_safe <- true;
  r
