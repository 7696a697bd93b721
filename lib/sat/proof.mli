(** DRAT proof traces.

    When enabled, the CDCL solver records every learnt clause (an addition
    step) and every clause-database deletion, ending with the empty clause on
    an UNSAT answer. The trace can be written in the standard textual DRAT
    format consumed by external checkers, and this module also provides a
    lightweight internal check that the recorded additions end with the empty
    clause.

    Steps are stored in one flat int arena — per step a header word holding
    the literal count and an add/delete tag, then the literals — so recording
    a step copies its literals once and allocates nothing else, and
    {!Drat_check} replays the trace straight from the arena through {!iter}.
    {!steps} is a list view for code that wants to pattern-match. *)

type step = Add of Lit.t list | Delete of Lit.t list

type t

val create : unit -> t
val add : t -> Lit.t list -> unit

val add_array : t -> Lit.t array -> unit
(** As {!add}, copying the array into the arena; the caller may reuse it. *)

val delete : t -> Lit.t list -> unit

val delete_sub : t -> Lit.t array -> int -> int -> unit
(** [delete_sub t src off len] records the deletion of the clause whose
    literals are [src.(off) .. src.(off + len - 1)], copying them. *)

val iter : t -> f:(delete:bool -> Lit.t array -> int -> int -> unit) -> unit
(** [iter t ~f] calls [f ~delete data off len] for every step in recording
    order; the step's literals are [data.(off) .. data.(off + len - 1)].
    [data] is the trace's own storage: [f] must not write to it, and must
    not record steps into [t]. *)

val steps : t -> step list
(** In recording order. Builds a fresh list; {!iter} avoids the copy. *)

val num_steps : t -> int

val ends_with_empty : t -> bool
(** [true] iff the last addition step is the empty clause — the shape a DRAT
    refutation must have. *)

val output : out_channel -> t -> unit
(** Textual DRAT: one step per line, deletions prefixed with ["d"],
    0-terminated DIMACS literals. *)

exception Parse_error of string

val parse : in_channel -> t
(** Parse textual DRAT as written by {!output}: 0-terminated DIMACS
    literals, ["d"]-prefixed deletions, ["c"] comment lines and blank lines
    ignored. Raises {!Parse_error} on malformed input. *)

val parse_file : string -> t
(** [parse_file path] — {!parse} applied to the file at [path]. *)
