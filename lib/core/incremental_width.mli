(** Minimal channel width by incremental SAT — the repository's one
    minimal-width search.

    The paper's optimality argument needs width [W] shown routable and
    [W - 1] shown unroutable. Rather than one fresh CNF per width, the
    colouring problem is encoded {e once} at the DSATUR upper bound with one
    fresh {e selector} variable per colour and clauses
    [not s_c \/ not pattern_v(c)]: assuming [s_c] switches colour [c] off for
    every vertex. One persistent solver then answers a width-[w] query under
    assumptions [{s_c | c >= w}], keeping its learnt clauses between
    queries. Works with every encoding, because switching a colour off is a
    clause over its indexing pattern, not a single literal.

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
(** Encodes the graph once at the DSATUR upper bound (cold cost); every
    subsequent {!query} is an assumption-only call on the shared solver. *)

val query :
  ?budget:Fpgasat_sat.Solver.budget ->
  ladder ->
  width:int ->
  [ `Colorable of Fpgasat_graph.Coloring.t | `Uncolorable | `Timeout | `Memout ]
(** Is the graph colourable with [width] colours? The budget applies to
    this query alone; learnt clauses persist across queries. Widths above
    the ladder's upper bound are answered at the upper bound (equivalent:
    a colouring within fewer colours fits a fortiori). Raises
    [Invalid_argument] when [width < 1] and {!Flow.Decode_mismatch} if a
    model fails to decode into a proper colouring. *)

val bounds : ladder -> int * int
(** [(lower, upper)]: the clique lower bound and DSATUR upper bound the
    ladder was built with. *)

val queries : ladder -> int
(** Queries answered so far. *)

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
(** [(w_min, colouring)]: walks the ladder downward from its upper bound.
    After a [`Colorable] answer at [w] whose model uses [u] colours the next
    query is at [min (w - 1) (u - 1)]; the walk stops at the first
    [`Uncolorable] width or below the clique bound. The budget applies per
    query; [Error] when one runs out. Raises {!Flow.Decode_mismatch} if a
    model fails to decode into a proper colouring. *)

type search_result = {
  w_min : int;
  coloring : Fpgasat_graph.Coloring.t;  (** A proper [w_min]-colouring. *)
  lower_bound : int;
      (** The clique lower bound. When [w_min = lower_bound], [w_min - 1]
          is impossible structurally; otherwise the ladder refuted it by
          SAT. *)
  queries : int;  (** SAT queries answered by the shared solver. *)
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
