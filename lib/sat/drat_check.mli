(** Forward DRAT proof checker with watched-literal propagation.

    The checker validates refutation traces produced by {!Solver} (or parsed
    from textual DRAT via {!Proof.parse_file}): each [Add] step must be RUP
    (reverse unit propagation) or, failing that, RAT on its first literal;
    [Delete] steps remove clauses from the active set. Clauses live in a
    flat literal arena; unit propagation is incremental across proof steps
    via a persistent trail, so a bench-sized trace checks in near-linear
    time rather than the quadratic re-scan of the reference checker.

    Propagation runs on the solver's watcher lists ([Watch]): each watcher
    carries a blocker literal, so a visit whose blocker is true never reads
    the clause, and binary clauses are answered from the watcher alone. The
    trace is replayed straight from the proof's flat arena ({!Proof.iter}),
    and a deletion finds its clause through a hash of the clause's literal
    set, confirmed by a set-equality check. The propagation loop allocates
    nothing.

    Deviations worth knowing, all the drat-trim convention: a deletion
    matches any clause with the same literal set (order and repeated
    literals do not matter) and removes the most recently added copy;
    deleting a clause that is not present is a tolerated no-op (counted in
    {!stats}); and deleting a unit clause does not retract its
    propagation. *)

type stats = {
  mutable additions : int;  (** [Add] steps examined *)
  mutable rup_steps : int;  (** additions validated by RUP alone *)
  mutable rat_steps : int;  (** additions that needed the RAT fallback *)
  mutable deletions : int;  (** clauses actually removed *)
  mutable ignored_deletions : int;
      (** deletions of absent clauses, tolerated as no-ops *)
  mutable propagations : int;  (** trail literals processed *)
  mutable visits : int;  (** watchers examined during propagation *)
  mutable derefs : int;
      (** clauses read from the arena during propagation: visits minus
          those settled by a true blocker or an inline binary watcher *)
}

val pp_stats : Format.formatter -> stats -> unit

type error =
  | Bad_step of { step_index : int; reason : string }
      (** step [step_index] (0-based) is not a valid DRAT inference *)
  | No_empty_clause of { num_steps : int }
      (** the [num_steps]-step trace never derives a top-level conflict *)

val pp_error : Format.formatter -> error -> unit

val check : Cnf.t -> Proof.t -> (stats, error) result
(** [check cnf proof] replays [proof] against [cnf] and succeeds iff the
    trace derives the empty clause (equivalently, a top-level conflict),
    certifying that [cnf] is unsatisfiable. *)

val check_reference : Cnf.t -> Proof.t -> (unit, error) result
(** The original list-scanning RUP checker, kept as a differential-testing
    oracle and benchmark baseline. Quadratic in the trace size; rejects
    additions that need RAT and treats a deletion of an absent clause as a
    no-op without recording it. *)

val is_rup : Cnf.t -> Lit.t list -> bool
(** [is_rup cnf clause] holds iff assuming the negation of [clause] and
    unit-propagating over [cnf] yields a conflict. *)

val is_rat : Cnf.t -> Lit.t list -> bool
(** [is_rat cnf clause] holds iff [clause] is RUP, or RAT on its first
    literal, with respect to [cnf]. *)
