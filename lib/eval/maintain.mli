(** Incremental view maintenance: materialized extents of derived
    predicates kept live under inserts and retracts.

    The engine's normal evaluation recomputes a fixpoint per query
    form; this module instead materializes the full extent of every
    {e maintainable} derived predicate once, then propagates updates
    through the same delta shape semi-naive evaluation uses:

    - an insert is a delta batch: each new tuple is joined at every
      positive occurrence in every rule against the full current state,
      and newly derived heads become the next round's delta (Brass &
      Stephan's observation that an update is just another delta);
    - a retract runs DRed (delete and rederive): over-deletion
      propagates the deleted tuples through the rules against the
      pre-delete state, everything over-deleted is physically removed,
      and each removed tuple is rederived if an alternative support
      (a remaining base fact or rule derivation) still exists, with
      rederived tuples feeding an insertion-propagation cascade.

    {b Supported program class.}  A derived predicate is maintained
    when every rule (transitively) deriving it has a plain head, a
    negation-free body, no foreign predicates, comparison/assignment
    literals over variables bound left-to-right by positive literals,
    and — for predicates in a recursive cycle — no value-generating
    assignment ([X = Y + 1] style) that could make the full extent
    infinite.  Everything else (negation, aggregation, multiset and
    aggregate-selection annotations, pipelined modules, predicates
    defined in several modules) yields a per-predicate fallback with a
    reason, mirroring the distribution planner's verdict pattern: the
    engine keeps recomputing those predicates from scratch.

    The caller (the engine) owns concurrency: all entry points must run
    on the write lane.  On any exception out of a maintenance call the
    caller must {!invalidate} — extents may be torn, and the next
    {!ensure} rebuilds them from scratch. *)

open Coral_term
open Coral_rel

type t

(** Everything maintenance reads from the engine, as closures so the
    two modules stay dependency-free of each other. *)
type source = {
  src_modules : unit -> Coral_lang.Ast.module_ list;
  src_user_rules : unit -> Coral_lang.Ast.rule list;
  src_relation : Symbol.t -> int -> Relation.t option;
      (** the stored base relation, without creating one *)
  src_foreign : Symbol.t -> int -> bool;
  src_tick : unit -> unit;  (** cancellation seam, polled during joins *)
}

(** Per-update work accounting. *)
type update_stats = {
  u_derived : int;  (** tuples added to extents by propagation *)
  u_deleted : int;  (** tuples physically removed from extents *)
  u_rederived : int;  (** over-deleted tuples restored by rederivation *)
  u_rounds : int;  (** propagation rounds (insert + delete + rederive) *)
}

val create : source -> t
(** A maintenance instance; initially stale (no extents built). *)

val invalidate : t -> unit
(** Mark the instance stale: the program changed (consult, load_module,
    add_clause), a relation was replaced, or a maintenance pass died
    mid-flight.  The next {!ensure} re-analyses and rebuilds. *)

val stale : t -> bool

val ensure : t -> unit
(** Re-analyse the program and rebuild every extent from scratch when
    stale; otherwise a no-op. *)

val body_indexes :
  bound:int list -> Coral_lang.Ast.literal list -> (Coral_lang.Ast.atom * Index.spec) list
(** Index selection for a rule body run left to right (paper section
    4.2): for each positive literal, in body order, the argument-form
    index {!Index.select} picks on the positions bound when the literal
    is reached, starting from the variable ids in [bound].  Literals
    with no usable form are left out.  The one selection rule for
    interpreted joins: maintenance and the sharded fixpoint's worker
    step both install what it returns. *)

val extent : t -> Symbol.t -> int -> Relation.t option
(** The maintained extent of a derived predicate ([None] for base
    predicates and fallback predicates).  Valid only after {!ensure};
    callers must not mutate it. *)

val extents : t -> (string * Relation.t) list
(** All maintained extents, keyed ["name/arity"] (snapshot freezing). *)

val measure : t -> unit
(** Re-read the extents' footprint for {!storage}.  Write lane only;
    every update and rebuild does it, and the engine after freezing the
    extents for a snapshot (which may compact or consolidate them). *)

val storage : t -> Relation.storage
(** The maintained extents' footprint as of the last {!measure}, summed:
    live against stored (tombstoned included) tuples and subsidiaries,
    and compactions over the instance's lifetime (rebuilt extents
    included).  One immutable record: safe to read from any thread. *)

val fallbacks : t -> (string * string) list
(** Derived predicates that are {e not} maintained, with the reason —
    the per-predicate analogue of the distribution planner's
    [Local of string] verdict. *)

val maintained_count : t -> int
val refreshes : t -> int
(** How many full rebuilds this instance has run. *)

val insert : t -> (Symbol.t * Term.t array) list -> update_stats
(** Propagate newly stored base facts (the caller has already inserted
    them into the base relations and filtered out duplicates).  Facts
    of maintained derived predicates are added to their extents; new
    extent tuples cascade through the rules. *)

val retract : t -> (Symbol.t * Term.t array) list -> int * int * update_stats
(** Retract base facts: returns [(removed, missing, stats)].  Runs the
    DRed rounds over maintained extents, then physically deletes the
    base facts (and every over-deleted extent tuple), then rederives.
    A fact with no matching stored base tuple counts as missing and
    propagates nothing. *)
