(** Minimal channel width by incremental SAT — the repository's one
    minimal-width search.

    The paper's optimality argument needs width [W] shown routable and
    [W - 1] shown unroutable. Rather than one fresh CNF per width, the
    colouring problem is encoded {e once} at the DSATUR upper bound with one
    fresh {e selector} variable per colour and clauses
    [not s_c \/ not pattern_v(c)]: assuming [s_c] switches colour [c] off for
    every vertex. One persistent solver answers every width query, keeping
    its learnt clauses between queries. Works with every encoding, because
    switching a colour off is a clause over its indexing pattern, not a
    single literal.

    The ladder only narrows. It keeps what the session has learnt: [best],
    the fewest-colour proper colouring found so far (initially the DSATUR
    colouring, with [best_k] colours), and [refuted], the largest width
    known uncolourable (initially the clique bound minus one). A query at
    [w >= best_k] or [w <= refuted] is answered from these without the
    solver. Any other query first asserts [s_c] as a permanent level-0 unit
    ({!Fpgasat_sat.Solver.assert_unit}) for every [c >= best_k - 1], then
    solves under the assumptions [s_w ... s_{best_k - 2}] only — none at
    all for the query at [best_k - 1]. Selectors fixed at level 0 never
    enter a learnt clause, while assumed ones pile into them and inflate
    their size and LBD (EXPERIMENTS.md, "A ladder that only narrows").

    {b Invariant.} The solver's level-0 formula is always the
    [(best_k - 1)]-colouring problem. Every width it can no longer express
    ([>= best_k]) is answered by [best], so asserting a unit is never
    wrong, even when the query that follows times out.

    This is an engineering extension beyond the paper (which re-translated
    per configuration). A per-width answer with a DRAT certificate comes
    from a cold {!Flow.submit} at that width. *)

(** {1 The width ladder}

    The encode-once-query-many substrate, exposed on its own so callers
    with their own query schedule can share it. {!walk_down} is the one
    downward walk: {!minimal_colors} runs it on a fresh ladder, and the
    solve server runs it on the ladder it keeps {e warm} per
    (benchmark × strategy) session, where it also answers repeated width
    queries without re-encoding. *)

type ladder
(** An encoded colouring problem with its persistent solver and colour
    selectors. Not thread-safe: callers serialise access (the server holds
    one mutex per session). *)

val prepare : ?strategy:Strategy.t -> Fpgasat_graph.Graph.t -> ladder
(** Runs DSATUR once, encodes the graph once at its bound (cold cost) and
    keeps the DSATUR colouring as [best]; every later {!query} is answered
    from what the ladder knows or by one call on the shared solver. *)

val query :
  ?budget:Fpgasat_sat.Solver.budget ->
  ladder ->
  width:int ->
  [ `Colorable of Fpgasat_graph.Coloring.t | `Uncolorable | `Timeout | `Memout ]
(** Is the graph colourable with [width] colours? [`Colorable best] for
    [width >= best_k] and [`Uncolorable] for [width <= refuted], without
    calling the solver; otherwise one solver call, whose budget applies to
    this query alone. A colouring found replaces [best] (it has at most
    [width < best_k] colours); a refutation raises [refuted]. A timeout
    changes neither. The returned colouring is a copy. Raises
    [Invalid_argument] when [width < 1] and {!Flow.Decode_mismatch} if a
    model fails to decode into a proper colouring within [width]. *)

val bounds : ladder -> int * int
(** [(lower, upper)]: the clique lower bound and DSATUR upper bound the
    ladder was built with. *)

val queries : ladder -> int
(** Queries that called the solver so far; answers from what the ladder
    knows are not counted. *)

val stats : ladder -> Fpgasat_sat.Stats.t
(** The shared solver's cumulative statistics — snapshot around a {!query}
    to attribute per-query work. *)

val strategy : ladder -> Strategy.t

val cnf_hash : ladder -> int64
(** {!Fpgasat_sat.Cnf.structural_hash} of the encoded problem CNF (before
    selector augmentation) — the content part of the server's answer-cache
    key. *)

val cnf_size : ladder -> int * int
(** [(vars, clauses)] of the encoded problem CNF, for run records. *)

(** {1 Minimal-width search} *)

val walk_down :
  ?budget:Fpgasat_sat.Solver.budget ->
  ladder ->
  (int * Fpgasat_graph.Coloring.t, string) result
(** [(w_min, colouring)]: queries [best_k - 1] until it is refuted (by the
    solver or already by [refuted]), so each query either shrinks [best] or
    ends the walk. On a ladder whose [w_min] is already known it makes no
    solver call. The budget applies per query; [Error] when one runs out.
    Raises {!Flow.Decode_mismatch} if a model fails to decode into a proper
    colouring. *)

type search_result = {
  w_min : int;
  coloring : Fpgasat_graph.Coloring.t;  (** A proper [w_min]-colouring. *)
  lower_bound : int;
      (** The clique lower bound. When [w_min = lower_bound], [w_min - 1]
          is impossible structurally; otherwise the ladder refuted it by
          SAT. *)
  queries : int;  (** Queries that called the shared solver. *)
  stats : Fpgasat_sat.Stats.t;  (** Cumulative solver statistics. *)
}

val minimal_colors :
  ?strategy:Strategy.t ->
  ?budget:Fpgasat_sat.Solver.budget ->
  Fpgasat_graph.Graph.t ->
  (search_result, string) result
(** Minimal number of colours of a conflict graph (= minimal channel width
    of the routing it came from): {!prepare} then {!walk_down}. The budget
    applies per query. *)
