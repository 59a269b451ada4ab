open Coral_term

type path = int list

type spec =
  | Args of int list
  | Paths of path list

let spec_paths = function
  | Args cols -> List.map (fun c -> [ c ]) cols
  | Paths paths -> paths

let pp_spec ppf = function
  | Args cols ->
    Format.fprintf ppf "args(%s)" (String.concat "," (List.map string_of_int cols))
  | Paths paths ->
    let pp_path p = String.concat "." (List.map string_of_int p) in
    Format.fprintf ppf "paths(%s)" (String.concat "," (List.map pp_path paths))

let spec_equal a b = spec_paths a = spec_paths b

let select ~arity bound =
  let cols = List.filter bound (List.init arity Fun.id) in
  if cols <> [] && List.length cols < arity then Some (Args cols) else None

type t = {
  paths : path list;
  buckets : (int, Tuple.t list ref) Hashtbl.t;
  mutable var_bucket : Tuple.t list;
  mutable mismatch : Tuple.t list;
      (* tuples structurally incompatible with the indexed positions:
         no probe through this index can match them, so they are stored
         but never returned *)
  mutable count : int;
}

let create spec =
  { paths = spec_paths spec;
    buckets = Hashtbl.create 64;
    var_bucket = [];
    mismatch = [];
    count = 0
  }

(* Walk a stored tuple's term along a path.  [`Key k] for a ground
   subterm, [`Var] when a variable occurs at or above the position (the
   tuple could match any probe), [`Mismatch] when the structure cannot
   unify with any probe that is ground at this position.  Keys are
   structural hashes ([Term.ground_key], lock-free and identical on
   every domain), not unique ids: distinct terms may share a bucket,
   which is sound because probe results are candidate supersets the
   caller unifies. *)
let rec extract_term term path =
  match path with
  | [] -> begin
    match Term.ground_key term with
    | Some k -> `Key k
    | None -> `Var
  end
  | i :: rest -> begin
    match term with
    | Term.Var _ -> `Var
    | Term.Const _ -> `Mismatch
    | Term.App a -> if i < Array.length a.args then extract_term a.args.(i) rest else `Mismatch
  end

let extract_tuple paths (tuple : Tuple.t) =
  let rec go acc = function
    | [] -> `Key acc
    | path :: rest -> begin
      match path with
      | [] -> assert false
      | argpos :: inner ->
        if argpos >= Array.length tuple.Tuple.terms then `Mismatch
        else begin
          match extract_term tuple.Tuple.terms.(argpos) inner with
          | `Key id -> go (((acc * 0x01000193) lxor id) land max_int) rest
          | `Var -> `Var
          | `Mismatch -> `Mismatch
        end
    end
  in
  go 0x811c9dc5 paths

(* Walk a query pattern along a path, dereferencing through the binding
   environment.  Returns the ground key or [None] if the pattern is not
   ground at some indexed position (index unusable). *)
let rec extract_pattern term env path =
  let term, env = Bindenv.deref term env in
  match path with
  | [] -> Term.ground_key (Unify.resolve term env)
  | i :: rest -> begin
    match term with
    | Term.Var _ | Term.Const _ -> None
    | Term.App a -> if i < Array.length a.args then extract_pattern a.args.(i) env rest else None
  end

let insert idx tuple =
  idx.count <- idx.count + 1;
  match extract_tuple idx.paths tuple with
  | `Key key -> begin
    match Hashtbl.find_opt idx.buckets key with
    | Some bucket -> bucket := tuple :: !bucket
    | None -> Hashtbl.add idx.buckets key (ref [ tuple ])
  end
  | `Var -> idx.var_bucket <- tuple :: idx.var_bucket
  | `Mismatch -> idx.mismatch <- tuple :: idx.mismatch

let probe idx pattern env =
  let rec go acc = function
    | [] -> Some acc
    | path :: rest -> begin
      match path with
      | [] -> None
      | argpos :: inner ->
        if argpos >= Array.length pattern then None
        else begin
          match extract_pattern pattern.(argpos) env inner with
          | Some id -> go (((acc * 0x01000193) lxor id) land max_int) rest
          | None -> None
        end
    end
  in
  match go 0x811c9dc5 idx.paths with
  | None -> None
  | Some key ->
    let keyed = match Hashtbl.find_opt idx.buckets key with Some b -> !b | None -> [] in
    Some (List.rev_append idx.var_bucket keyed)

let cardinal idx = idx.count
