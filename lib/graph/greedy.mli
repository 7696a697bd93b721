(** Greedy colouring heuristics.

    These provide fast upper bounds on the chromatic number. The
    minimal-width search starts its downward walk at the DSATUR bound, and the
    benchmark harness uses DSATUR as the non-SAT baseline detailed router
    (one-net-at-a-time, cannot prove unroutability — the contrast the paper
    draws in its introduction). *)

val sequential : ?order:int list -> Graph.t -> Coloring.t
(** First-fit colouring in the given vertex order (default [0 .. n-1]). *)

val dsatur : Graph.t -> Coloring.t
(** Brélaz's DSATUR: always colour the vertex with the highest saturation
    (number of distinct colours among neighbours), ties by highest degree,
    then lowest index; each vertex takes its smallest free colour.
    O((n + m) log n): saturations are updated as neighbours are coloured. *)

val upper_bound : Graph.t -> int
(** Colours used by DSATUR — an upper bound on the chromatic number. *)
